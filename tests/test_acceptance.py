"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.
"""

import json
import random
import time

import pytest
import requests

from conftest import THING_BODY

from iotpipe import cli, coap, gateway, link154, lowpan, node, sensorthings, sizebench, stack
from iotpipe.clock import VirtualClock
from iotpipe.pipeline import PipelineConfig, run_pipeline


def _passed(name):
    print("ACCEPTANCE %s: PASS" % name)


def test_criterion_1_size_reproduction(capsys):
    start = time.monotonic()
    report = sizebench.run_default_bench()
    by_variant = {b.variant: b for b in report.breakdowns}
    assert by_variant["COAP_6LOWPAN_154"].total == 67
    assert by_variant["COAP_UDP_IPV6_154"].total == 106
    assert by_variant["HTTP_TCP_IPV4_ETH"].total == 236
    assert by_variant["COAP_6LOWPAN_154"].app_header_bytes == 22
    assert by_variant["HTTP_TCP_IPV4_ETH"].app_header_bytes == 153
    assert by_variant["COAP_6LOWPAN_154"].payload_bytes == 15
    assert report.ratio > 3.5
    saving = [c for c in report.checks if c.name == "ipv6_to_ipv4_saving"][0]
    assert saving.actual == 20 and saving.passed
    # measured, not asserted: CoAP values come from serialized bytes
    assert by_variant["COAP_6LOWPAN_154"].provenance["app_header"] == "measured"
    assert by_variant["COAP_6LOWPAN_154"].provenance["network"] == "measured"
    assert cli.main(["bench"]) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _passed("1 size-reproduction (67/106/236 B, 22/153 B, 15 B, "
                ">3.5x, 20 B saving; %.2fs)" % elapsed)


def test_criterion_2_end_to_end_conservation(capsys):
    start = time.monotonic()
    result = run_pipeline(PipelineConfig(
        nodes=1, observations_per_node=100, period=10.0, loss_probability=0.0,
    ))
    assert result.sent == 100
    assert result.stored == 100
    records = result.records_per_node[0]
    assert all(r.response_code == "2.01" for r in records)
    assert all(r.time == 10.0 * (i + 1) for i, r in enumerate(records))
    assert all(
        bytes.fromhex(r.payload_hex) == b'{"result":%d}' % r.result
        for r in records
    )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    with capsys.disabled():
        _passed("2 end-to-end conservation (100 sent = 100 stored, "
                "all 2.01; %.2fs)" % elapsed)


def test_criterion_3_thing_body_fidelity(capsys):
    store = sensorthings.Store()
    server = sensorthings.BackendServer(store).start()
    try:
        response = requests.post(server.base_url + "/Things", json=THING_BODY)
        assert response.status_code == 201
        thing = requests.get(server.base_url + "/Things(1)").json()
        assert thing["name"] == "RIOT Alpha"
        locations = requests.get(server.base_url + "/Things(1)/Locations").json()
        assert locations["@iot.count"] == 1
        coords = locations["value"][0]["location"]["coordinates"]
        assert coords == [10.022993, 53.557189]
    finally:
        server.stop()
    with capsys.disabled():
        _passed("3 Thing deep-insert fidelity (RIOT Alpha @ [10.022993, 53.557189])")


def _random_coap_message(rng):
    n_options = rng.randrange(6)
    numbers = sorted(rng.randrange(0, 300) for _ in range(n_options))
    options = [
        (n, bytes(rng.randrange(256) for _ in range(rng.randrange(12))))
        for n in numbers
    ]
    return coap.CoapMessage(
        msg_type=coap.MsgType(rng.randrange(4)),
        code=(rng.randrange(8), rng.randrange(32)),
        message_id=rng.randrange(0x10000),
        token=bytes(rng.randrange(256) for _ in range(rng.randrange(9))),
        options=options,
        payload=bytes(rng.randrange(256) for _ in range(rng.randrange(65))),
    )


def _random_headers(rng):
    link_src = bytes(rng.randrange(256) for _ in range(rng.choice([2, 8])))
    link_dst = bytes(rng.randrange(256) for _ in range(rng.choice([2, 8])))
    ctx = lowpan.CompressionContext(link_src=link_src, link_dst=link_dst)

    def addr(kind, link_addr):
        if kind == 0:
            return lowpan.link_local_from(link_addr)
        if kind == 1:
            return (lowpan.LINK_LOCAL_PREFIX + b"\x00\x00\x00\xff\xfe\x00"
                    + bytes(rng.randrange(256) for _ in range(2)))
        if kind == 2:
            return lowpan.LINK_LOCAL_PREFIX + bytes(rng.randrange(256) for _ in range(8))
        return b"\x20\x01" + bytes(rng.randrange(256) for _ in range(14))

    src = addr(rng.randrange(4), link_src)
    dst = addr(rng.randrange(4), link_dst)
    port_kind = rng.randrange(3)
    if port_kind == 0:
        sp, dp = 0xF0B0 | rng.randrange(16), 0xF0B0 | rng.randrange(16)
    elif port_kind == 1:
        sp, dp = 0xF000 | rng.randrange(0xB0), rng.randrange(1, 0xF000)
    else:
        sp, dp = rng.randrange(1, 0xF000), rng.randrange(1, 0xF000)
    payload = bytes(rng.randrange(256) for _ in range(rng.randrange(48)))
    headers = lowpan.Ipv6UdpHeaders(
        src_addr=src,
        dst_addr=dst,
        udp_src_port=sp,
        udp_dst_port=dp,
        udp_checksum=lowpan.udp_checksum(src, dst, sp, dp, payload),
        payload_length=8 + len(payload),
        hop_limit=rng.choice([1, 2, 33, 64, 255]),
        traffic_class=rng.choice([0, 1, 0x68, 0xFF]),
        flow_label=rng.choice([0, 5, 0xFFFFF]),
    )
    return headers, ctx, payload


def test_criterion_4_codec_property_suites(capsys):
    start = time.monotonic()
    rng = random.Random(0xC0DEC)
    for _ in range(1000):
        msg = _random_coap_message(rng)
        assert coap.decode(coap.encode(msg)) == msg
    for _ in range(1000):
        headers, ctx, payload = _random_headers(rng)
        compressed = lowpan.compress(headers, ctx)
        assert lowpan.parse_datagram(compressed.to_bytes() + payload, ctx) == (headers, payload)
        assert compressed.size < 48
    for size in range(1, 1409):
        budget = 16 + (size % 112)  # budgets cycle across [16, 127]
        datagram = bytes(i & 0xFF for i in range(size))
        reassembler = lowpan.Reassembler()
        pushed = [reassembler.push(b"\x01", wire) for wire in
                  lowpan.fragment(datagram, budget).wire_fragments()]
        assert pushed[-1] == datagram and pushed[:-1] == [None] * (len(pushed) - 1)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    with capsys.disabled():
        _passed("4 codec properties (1000 CoAP + 1000 6LoWPAN round-trips, "
                "fragmentation identity 1-1408 B; %.2fs)" % elapsed)


def test_criterion_5_accelerated_soak_with_recovery(tmp_path, capsys):
    start = time.monotonic()
    journal = tmp_path / "journal.jsonl"
    result = run_pipeline(PipelineConfig(
        nodes=1, observations_per_node=10000, period=10.0,
        journal_path=str(journal),
    ))
    assert result.sent == 10000
    assert result.stored == 10000

    lines = journal.read_text().strip().splitlines()
    observation_records = [l for l in lines if '"op":"observation"' in l]
    assert len(observation_records) == 10000  # zero lost or duplicated
    results = [json.loads(l)["body"]["result"] for l in observation_records]
    assert results == [2143] * 10000

    recovered = sensorthings.Store.recover(str(journal))
    assert recovered.count("Observations") == 10000
    recovered.close()

    # crash-truncate the tail and recover again
    raw = journal.read_bytes()
    journal.write_bytes(raw[:-7])
    with pytest.warns(UserWarning):
        truncated = sensorthings.Store.recover(str(journal))
    assert truncated.count("Observations") == 9999
    truncated.close()
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _passed("5 accelerated soak (10,000 observations journaled, "
                "recovery incl. truncation; %.2fs)" % elapsed)


def test_criterion_6_fault_behavior(capsys):
    # backend down: every request answered with a gateway error, none stored
    store = sensorthings.Store()
    sensorthings.seed_default_entities(store)
    link = link154.SimulatedLink()
    node_ep = stack.StackEndpoint(link.endpoints[0], stack.node_stack_config())
    gw_ep = stack.StackEndpoint(link.endpoints[1], stack.gateway_stack_config())
    gw = gateway.Gateway(
        gw_ep, gateway.UpstreamConfig(base_url="http://127.0.0.1:9/v1.0")
    )
    sensor = node.Node(node.NodeConfig(), node_ep, VirtualClock())
    records = [sensor.send_observation(pump=gw.process_pending) for _ in range(10)]
    assert all(r.response_code == "5.02" for r in records)
    assert all(r.outcome != "acked" for r in records)
    assert store.count("Observations") == 0
    assert gw.metrics.upstream_errors == 10

    # lossy CON run: stored count equals the acknowledged-send count exactly
    lossy = run_pipeline(PipelineConfig(
        nodes=1, observations_per_node=50, loss_probability=0.3,
        confirmable=True, max_retransmit=4, seed=18,
    ))
    acked = sum(
        1 for r in lossy.records_per_node[0]
        if r.outcome == "acked" and r.response_code == "2.01"
    )
    assert lossy.stored == acked
    with capsys.disabled():
        _passed("6 fault behavior (backend down -> 5.02/none stored; "
                "lossy CON ledger: stored=%d acked=%d)" % (lossy.stored, acked))
