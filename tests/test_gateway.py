import http.client
import os
import socket
import subprocess
import sys
import time

import pytest

import iotpipe
from iotpipe import coap, gateway, link154, node, sensorthings, stack
from iotpipe.clock import VirtualClock

MAPPING = gateway.ProxyMapping()
UPSTREAM = gateway.UpstreamConfig(base_url="http://192.0.2.1/v1.0")

PAYLOAD = b'{"result":2143}'


def canonical_post():
    return coap.build_observation_request(["Observations"], PAYLOAD)


def test_translate_canonical_post():
    req = gateway.translate_request(canonical_post(), MAPPING, UPSTREAM)
    assert req.method == "POST"
    assert req.url == "http://192.0.2.1/v1.0/Observations"
    assert req.headers["Content-Type"] == "application/json"
    assert req.body == PAYLOAD
    assert len(req.body) == 15


def test_translate_get_has_no_body():
    msg = coap.CoapMessage(
        coap.MsgType.CON, (0, 1), 1, token=b"\x01",
        options=[(coap.OPT_URI_PATH, b"Things")],
    )
    req = gateway.translate_request(msg, MAPPING, UPSTREAM)
    assert req.method == "GET"
    assert req.url.endswith("/Things")
    assert req.body == b""
    assert "Content-Type" not in req.headers


def test_translate_unmapped_method():
    msg = coap.CoapMessage(
        coap.MsgType.CON, (0, 5), 1, token=b"\x01",
        options=[(coap.OPT_URI_PATH, b"Things")],
    )
    with pytest.raises(gateway.UnsupportedMethod):
        gateway.translate_request(msg, MAPPING, UPSTREAM)


def test_translate_missing_path():
    msg = coap.CoapMessage(coap.MsgType.CON, (0, 1), 1, token=b"\x01")
    with pytest.raises(gateway.MissingPath):
        gateway.translate_request(msg, MAPPING, UPSTREAM)


@pytest.mark.parametrize("status,code", [
    (201, (2, 1)),
    (200, (2, 5)),
    (204, (2, 4)),
    (400, (4, 0)),
    (404, (4, 4)),
    (500, (5, 0)),
    (502, (5, 2)),
])
def test_status_mapping(status, code):
    request = canonical_post()
    resp = gateway.HttpReply(status, {}, b"")
    out = gateway.translate_response(resp, request, MAPPING)
    assert out.code == code
    assert out.token == request.token


def test_unmapped_status_falls_back_to_bad_gateway():
    resp = gateway.HttpReply(418, {}, b"")
    out = gateway.translate_response(resp, canonical_post(), MAPPING)
    assert out.code == (5, 2)


def test_response_body_and_media_type_preserved():
    body = b'{"@iot.id": 3}'
    resp = gateway.HttpReply(200, {"Content-Type": "application/json"}, body)
    out = gateway.translate_response(resp, canonical_post(), MAPPING)
    assert out.payload == body
    assert out.content_format() == coap.CF_JSON


def test_con_request_gets_ack_response(build_pair):
    request = coap.build_observation_request(
        ["Observations"], PAYLOAD,
        coap.RequestConfig(msg_type=coap.MsgType.CON, token=b"\x05\x06", message_id=44),
    )
    resp = gateway.HttpReply(201, {}, b"")
    out = gateway.translate_response(resp, request, MAPPING)
    assert out.msg_type == coap.MsgType.ACK
    assert out.message_id == 44


# -- end-to-end through a live backend --------------------------------------

@pytest.fixture
def build_pair():
    """Builds (node endpoint, gateway) pairs; closes their sessions afterwards."""
    gateways = []

    def build(base_url, loss=0.0, seed=0, mapping=None, timeout=5.0):
        link = link154.SimulatedLink(link154.LinkConfig(loss_probability=loss, seed=seed))
        node_ep = stack.StackEndpoint(link.endpoints[0], stack.node_stack_config())
        gw_ep = stack.StackEndpoint(link.endpoints[1], stack.gateway_stack_config())
        gw = gateway.Gateway(
            gw_ep, gateway.UpstreamConfig(base_url=base_url, timeout=timeout),
            mapping=mapping,
        )
        gateways.append(gw)
        return node_ep, gw

    yield build
    for gw in gateways:
        gw.session.close()


def test_ten_observations_stored_and_acknowledged(backend, build_pair):
    node_ep, gw = build_pair(backend.base_url)
    clock = VirtualClock()
    records = node.run_node(
        node.NodeConfig(), node_ep, clock, count=10,
        pump=lambda now: gw.process_pending(now),
    )
    assert len(records) == 10
    assert all(r.outcome == "acked" and r.response_code == "2.01" for r in records)
    assert backend.store.count("Observations") == 10
    assert gw.metrics.requests_received == 10


def test_payload_bytes_preserved_end_to_end(backend, build_pair):
    node_ep, gw = build_pair(backend.base_url)
    records = node.run_node(
        node.NodeConfig(), node_ep, VirtualClock(), count=3,
        pump=lambda now: gw.process_pending(now),
    )
    stored = backend.store.query("Datastreams(1)/Observations")["value"]
    for record, obs in zip(records, stored):
        assert obs["result"] == record.result
        assert bytes.fromhex(record.payload_hex) == b'{"result":%d}' % obs["result"]


def test_backend_down_yields_gateway_errors(seeded_store, build_pair):
    node_ep, gw = build_pair("http://127.0.0.1:9")  # discard port, nothing listens
    records = node.run_node(
        node.NodeConfig(), node_ep, VirtualClock(), count=3,
        pump=lambda now: gw.process_pending(now),
    )
    assert all(r.response_code == "5.02" for r in records)
    assert seeded_store.count("Observations") == 0
    assert gw.metrics.upstream_errors == 3


def test_three_concurrent_nodes_no_token_mismatch(backend, build_pair):
    clock = VirtualClock()
    pairs = [build_pair(backend.base_url, seed=i) for i in range(3)]
    nodes = [
        node.Node(node.NodeConfig(), node_ep, clock, node_id=i)
        for i, (node_ep, _) in enumerate(pairs)
    ]

    def pump(now):
        for _, gw in pairs:
            gw.process_pending(now)

    for _ in range(100):
        clock.sleep(10.0)
        for one in nodes:
            one.send_observation(pump=pump)

    assert backend.store.count("Observations") == 300
    for one in nodes:
        assert all(r.outcome == "acked" for r in one.records)


def test_retransmission_deduplicated(backend, build_pair):
    node_ep, gw = build_pair(backend.base_url)
    request = coap.build_observation_request(
        ["Observations"], PAYLOAD,
        coap.RequestConfig(msg_type=coap.MsgType.CON, token=b"\x09\x0a", message_id=5),
    )
    encoded = coap.encode(request)
    node_ep.send(encoded, now=0.0)
    gw.process_pending(0.0)
    node_ep.send(encoded, now=1.0)  # retransmission of the same exchange
    gw.process_pending(1.0)
    assert backend.store.count("Observations") == 1
    assert gw.metrics.dedup_hits == 1
    responses = node_ep.receive(2.0)
    assert len(responses) == 2
    assert responses[0].payload == responses[1].payload


# -- the upstream session ----------------------------------------------------

def send_observations(node_ep, gw, count):
    return node.run_node(
        node.NodeConfig(), node_ep, VirtualClock(), count=count,
        pump=lambda now: gw.process_pending(now),
    )


def test_exchanges_share_one_keep_alive_connection(backend, monkeypatch, build_pair):
    connects = []
    real_connect = http.client.HTTPConnection.connect

    def counting_connect(conn):
        connects.append(conn)
        real_connect(conn)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting_connect)
    node_ep, gw = build_pair(backend.base_url)
    records = send_observations(node_ep, gw, 50)
    assert all(r.response_code == "2.01" for r in records)
    assert backend.store.count("Observations") == 50
    assert len(connects) == 1


def test_session_reply_headers_are_case_insensitive(backend):
    session = gateway.HttpSession()
    try:
        reply = session.request("GET", backend.base_url + "/Things(1)", timeout=5.0)
    finally:
        session.close()
    assert reply.status_code == 200
    assert reply.headers.get("content-type") == "application/json"
    assert b"RIOT Alpha" in reply.content


def test_next_observation_after_session_close_is_stored(backend, build_pair):
    node_ep, gw = build_pair(backend.base_url)
    sensor = node.Node(node.NodeConfig(), node_ep, VirtualClock())
    sensor.send_observation(pump=gw.process_pending)
    gw.session.close()
    record = sensor.send_observation(pump=gw.process_pending)
    assert record.outcome == "acked" and record.response_code == "2.01"
    assert backend.store.count("Observations") == 2


def test_next_observation_after_server_drops_idle_connection_is_stored(seeded_store,
                                                                      build_pair):
    server = sensorthings.BackendServer(seeded_store)
    server._httpd.RequestHandlerClass.timeout = 0.1   # server drops idle sockets
    server.start()
    try:
        node_ep, gw = build_pair(server.base_url)
        sensor = node.Node(node.NodeConfig(), node_ep, VirtualClock())
        sensor.send_observation(pump=gw.process_pending)
        time.sleep(0.4)
        record = sensor.send_observation(pump=gw.process_pending)
    finally:
        server.stop()
    assert record.outcome == "acked" and record.response_code == "2.01"
    assert seeded_store.count("Observations") == 2
    assert gw.metrics.upstream_errors == 0


def test_silent_upstream_times_out_with_5_04(build_pair):
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)   # accepts the connection in the kernel, never answers
    try:
        node_ep, gw = build_pair(
            "http://127.0.0.1:%d/v1.0" % listener.getsockname()[1], timeout=0.2)
        started = time.monotonic()
        records = send_observations(node_ep, gw, 1)
        elapsed = time.monotonic() - started
    finally:
        listener.close()
    assert records[0].response_code == "5.04"
    assert gw.metrics.upstream_errors == 1
    assert elapsed < 2.0


def test_runtime_does_not_import_requests():
    script = (
        "import sys, iotpipe, iotpipe.cli\n"
        "from iotpipe.pipeline import PipelineConfig, run_pipeline\n"
        "result = run_pipeline(PipelineConfig(observations_per_node=3))\n"
        "assert result.conserved and result.stored == 3, result.summary\n"
        "assert 'requests' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(iotpipe.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
