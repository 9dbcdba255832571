import http.client
import os
import socket
import ssl
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import iotpipe
from iotpipe import coap, gateway, http11, link154, node, sensorthings, sizebench, stack
from iotpipe.clock import VirtualClock
from iotpipe.pipeline import PipelineConfig, run_pipeline
from tests.conftest import BAD_URLS, ScriptedUpstream, hostile_frames

UPSTREAM = gateway.UpstreamConfig(base_url="http://192.0.2.1/v1.0")

PAYLOAD = b'{"result":2143}'


def canonical_post():
    return coap.build_observation_request(["Observations"], PAYLOAD)


@pytest.mark.parametrize("url", BAD_URLS)
def test_upstream_config_refuses_a_bad_url(url):
    with pytest.raises(ValueError):
        gateway.UpstreamConfig(base_url=url)


def test_translate_canonical_post():
    req = gateway.translate_request(canonical_post(), UPSTREAM)
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
    req = gateway.translate_request(msg, UPSTREAM)
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
        gateway.translate_request(msg, UPSTREAM)


def test_translate_missing_path():
    msg = coap.CoapMessage(coap.MsgType.CON, (0, 1), 1, token=b"\x01")
    with pytest.raises(gateway.BadRequest):
        gateway.translate_request(msg, UPSTREAM)


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
    resp = http11.HttpReply(status, {}, b"")
    out = gateway.translate_response(resp, request, UPSTREAM)
    assert out.code == code
    assert out.token == request.token


def test_unmapped_status_falls_back_to_bad_gateway():
    resp = http11.HttpReply(418, {}, b"")
    out = gateway.translate_response(resp, canonical_post(), UPSTREAM)
    assert out.code == (5, 2)


def test_response_body_and_media_type_preserved():
    body = b'{"@iot.id": 3}'
    resp = http11.HttpReply(200, {"content-type": "application/json"}, body)
    out = gateway.translate_response(resp, canonical_post(), UPSTREAM)
    assert out.payload == body
    assert out.content_format() == coap.CF_JSON


def test_con_request_gets_ack_response(build_pair):
    request = coap.build_observation_request(
        ["Observations"], PAYLOAD,
        msg_type=coap.MsgType.CON, token=b"\x05\x06", message_id=44,
    )
    resp = http11.HttpReply(201, {}, b"")
    out = gateway.translate_response(resp, request, UPSTREAM)
    assert out.msg_type == coap.MsgType.ACK
    assert out.message_id == 44


@pytest.mark.parametrize("location,segments", [
    ("/v1.0/Observations(7)", [b"Observations(7)"]),
    ("http://192.0.2.1/v1.0/Observations(7)", [b"Observations(7)"]),
    ("HTTP://192.0.2.1/v1.0/Things(1)/Locations", [b"Things(1)", b"Locations"]),
    ("/v1.0/Sensors(%C3%A9)", [b"Sensors(\xc3\xa9)"]),
    (None, []),
    ("/v2.0/Observations(7)", []),
    ("/v1.0", []),
    ("http://198.51.100.1/v1.0/Observations(7)", []),
    ("/v1.0/Observations?$top=1", []),
], ids=["path", "absolute-url", "two-segments", "percent-encoded", "missing",
        "other-base", "the-base", "other-host", "query"])
def test_created_reply_names_the_resource_in_location_path(location, segments):
    headers = {"content-type": "application/json"}
    if location is not None:
        headers["location"] = location
    resp = http11.HttpReply(201, headers, b'{"@iot.id":7,"result":2143}')
    out = gateway.translate_response(resp, canonical_post(), UPSTREAM)
    assert out.code == (2, 1)
    assert out.payload == b""
    assert out.options == [(coap.OPT_LOCATION_PATH, s) for s in segments]


def test_get_reply_keeps_its_body():
    get = coap.CoapMessage(coap.MsgType.NON, coap.METHOD_GET, 3, token=b"\x03",
                           options=[(coap.OPT_URI_PATH, b"Observations(7)")])
    body = b'{"@iot.id":7,"result":2143}'
    resp = http11.HttpReply(200, {"content-type": "application/json",
                                   "location": "/v1.0/Observations(7)"}, body)
    out = gateway.translate_response(resp, get, UPSTREAM)
    assert out.options == [(coap.OPT_CONTENT_FORMAT, bytes([coap.CF_JSON]))]
    assert out.payload == body


@pytest.mark.parametrize("profile", ["calibrated", "extended"])
def test_created_reply_to_a_seven_digit_id_is_one_frame(profile):
    request = coap.build_observation_request(
        ["Observations"], PAYLOAD,
        msg_type=coap.MsgType.CON, token=bytes(8), message_id=9)
    resp = http11.HttpReply(201, {"location": "/v1.0/Observations(9999999)"}, b"{}")
    reply = coap.encode(gateway.translate_response(resp, request, UPSTREAM))
    link = link154.SimulatedLink()
    gw_ep = stack.StackEndpoint(link.endpoints[1], stack.gateway_stack_config(profile=profile))
    assert len(gw_ep.send(reply).frame_sizes) == 1


# -- end-to-end through a live backend --------------------------------------
# A started BackendServer (the ``serve`` and ``backend`` fixtures) answers the
# HttpSessions of this process in their own thread. TestOverTcp, at the end
# of this file, reruns every test here that pairs the two with the server
# taken out of LOCAL_SERVERS, so that the same exchanges go over loopback TCP.

def over_tcp(server) -> bool:
    """Whether HttpSessions reach ``server`` over TCP, not in their thread."""
    return server.address not in http11.LOCAL_SERVERS


@pytest.fixture
def build_pair():
    """Builds (node endpoint, gateway) pairs; closes their sessions afterwards."""
    gateways = []

    def build(base_url, loss=0.0, seed=0, timeout=5.0):
        link = link154.SimulatedLink(link154.LinkConfig(loss_probability=loss, seed=seed))
        node_ep = stack.StackEndpoint(link.endpoints[0], stack.node_stack_config())
        gw_ep = stack.StackEndpoint(link.endpoints[1], stack.gateway_stack_config())
        gw = gateway.Gateway(gw_ep, gateway.UpstreamConfig(base_url=base_url, timeout=timeout))
        gateways.append(gw)
        return node_ep, gw

    yield build
    for gw in gateways:
        gw.session.close()


def test_ten_observations_stored_and_acknowledged(backend, build_pair):
    node_ep, gw = build_pair(backend.base_url)
    records = send_observations(node_ep, gw, 10)
    assert len(records) == 10
    assert all(r.outcome == "acked" and r.response_code == "2.01" for r in records)
    assert backend.store.count("Observations") == 10
    assert gw.metrics.requests_received == 10


def test_payload_bytes_preserved_end_to_end(backend, build_pair):
    node_ep, gw = build_pair(backend.base_url)
    records = send_observations(node_ep, gw, 3)
    stored = backend.store.query("Datastreams(1)/Observations")["value"]
    for record, obs in zip(records, stored):
        assert obs["result"] == record.result
        assert bytes.fromhex(record.payload_hex) == b'{"result":%d}' % obs["result"]


def test_pipeline_on_an_external_backend_reads_the_stored_count_over_http(backend):
    result = run_pipeline(PipelineConfig(observations_per_node=5,
                                         backend_url=backend.base_url))
    assert result.conserved and result.stored == 5
    assert backend.store.count("Observations") == 5


def test_backend_down_yields_gateway_errors(seeded_store, build_pair):
    node_ep, gw = build_pair("http://127.0.0.1:9")  # discard port, nothing listens
    records = send_observations(node_ep, gw, 3)
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


def test_gateways_in_four_threads_share_one_server(backend, build_pair):
    """Each thread runs its own node, gateway and session against one server,
    switching threads every 10 µs: every exchange is acked and stored once."""
    pairs = [build_pair(backend.base_url, seed=i) for i in range(4)]
    records = {}

    def run(i, node_ep, gw):
        records[i] = send_observations(node_ep, gw, 50)

    threads = [threading.Thread(target=run, args=(i, *pair)) for i, pair in enumerate(pairs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [r.response_code for i in range(4) for r in records[i]] == ["2.01"] * 200
    stored = backend.store.query("Observations", {"$top": "300"})
    assert [row["@iot.id"] for row in stored["value"]] == list(range(1, 201))


def test_retransmission_deduplicated(backend, build_pair):
    node_ep, gw = build_pair(backend.base_url)
    request = coap.build_observation_request(
        ["Observations"], PAYLOAD,
        msg_type=coap.MsgType.CON, token=b"\x09\x0a", message_id=5,
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
    assert responses[0].payload == responses[1].payload     # byte-identical resend
    reply = coap.decode(responses[0].payload)
    assert reply.code == (2, 1) and reply.payload == b""
    assert reply.options == [(coap.OPT_LOCATION_PATH, b"Observations(1)")]


@settings(max_examples=200, deadline=None)
@given(profile=st.sampled_from(("calibrated", "extended")), data=st.data())
def test_any_frames_before_a_request_never_raise_and_it_is_answered(profile, data):
    """Whatever frames reach the gateway ahead of a valid request, among them
    the node's own 802.15.4 header and IPHC/NHC prefix around random bytes,
    ``process_pending`` raises nothing and the request still gets its 2.01."""
    node_cfg = stack.node_stack_config(profile=profile)
    frames = data.draw(hostile_frames(node_cfg))
    clock = VirtualClock()
    store = sensorthings.Store()
    sensorthings.seed_default_entities(store)
    server = sensorthings.BackendServer(store, clock=clock).start()
    link = link154.SimulatedLink()
    gw = gateway.Gateway(
        stack.StackEndpoint(link.endpoints[1], stack.gateway_stack_config(profile=profile)),
        gateway.UpstreamConfig(base_url=server.base_url))
    sensor = node.Node(node.NodeConfig(), stack.StackEndpoint(link.endpoints[0], node_cfg), clock)
    try:
        for wire in frames:
            if len(wire) <= link154.MAX_FRAME:   # the link carries no longer frame
                link.endpoints[0].send(wire)
        record = sensor.send_observation(pump=gw.process_pending)
    finally:
        gw.session.close()
        server.stop()
    assert record.outcome == "acked" and record.response_code == "2.01"


def test_non_exchange_puts_two_frames_on_the_link(serve, seeded_store):
    clock = VirtualClock()
    link = link154.SimulatedLink()
    gw = gateway.Gateway(
        stack.StackEndpoint(link.endpoints[1], stack.gateway_stack_config()),
        gateway.UpstreamConfig(base_url=serve(seeded_store, clock).base_url))
    sensor = node.Node(node.NodeConfig(), stack.StackEndpoint(
        link.endpoints[0], stack.node_stack_config()), clock)
    record = sensor.send_observation(pump=gw.process_pending)
    assert record.outcome == "acked" and record.response_code == "2.01"
    assert record.total_frame_bytes == 67
    assert (link.delivered, link.dropped) == (2, 0)
    assert seeded_store.count("Observations") == 1


# -- the upstream session ----------------------------------------------------

def send_observations(node_ep, gw, count):
    """Send records of ``count`` NON observations from a fresh node, each
    answered through ``gw``."""
    sensor = node.Node(node.NodeConfig(), node_ep, VirtualClock())
    return [sensor.send_observation(pump=gw.process_pending) for _ in range(count)]


def test_exchanges_share_one_keep_alive_connection(backend, monkeypatch, build_pair):
    accepted = []   # the sockets the backend accepts
    connects = []   # the connections the session opens
    real_get_request = backend._httpd.get_request
    real_connect = http11.HttpSession._connect

    def counting_get_request():
        accepted.append(real_get_request())
        return accepted[-1]

    def counting_connect(session, origin, timeout):
        connects.append(origin)
        real_connect(session, origin, timeout)

    monkeypatch.setattr(backend._httpd, "get_request", counting_get_request)
    monkeypatch.setattr(http11.HttpSession, "_connect", counting_connect)
    node_ep, gw = build_pair(backend.base_url)
    records = send_observations(node_ep, gw, 50)
    assert all(r.response_code == "2.01" for r in records)
    assert backend.store.count("Observations") == 50
    assert len(connects) == 1
    assert len(accepted) == (1 if over_tcp(backend) else 0)


def test_a_server_on_a_clock_stamps_receipt_and_date_from_it(serve, seeded_store):
    server = serve(seeded_store, VirtualClock(86400.5))
    session = http11.HttpSession()
    try:
        reply = session.request("POST", server.base_url + "/Observations",
                                data=b'{"result":1}', timeout=5.0)
    finally:
        session.close()
    assert reply.status_code == 201
    assert reply.headers["date"] == "Fri, 02 Jan 1970 00:00:00 GMT"
    assert seeded_store.query("Observations(1)")["resultTime"] == "1970-01-02T00:00:00.500Z"


def test_session_reply_headers_are_case_insensitive(backend):
    session = http11.HttpSession()
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


def test_next_observation_after_server_drops_idle_connection_is_stored(backend, build_pair):
    backend._httpd.RequestHandlerClass.timeout = 0.1   # the handler drops idle sockets
    node_ep, gw = build_pair(backend.base_url)
    sensor = node.Node(node.NodeConfig(), node_ep, VirtualClock())
    sensor.send_observation(pump=gw.process_pending)
    time.sleep(0.4)
    record = sensor.send_observation(pump=gw.process_pending)
    assert record.outcome == "acked" and record.response_code == "2.01"
    assert backend.store.count("Observations") == 2
    assert gw.metrics.upstream_errors == 0


def test_a_stopped_server_stops_answering(backend, build_pair):
    node_ep, gw = build_pair(backend.base_url)
    sensor = node.Node(node.NodeConfig(), node_ep, VirtualClock())
    assert sensor.send_observation(pump=gw.process_pending).response_code == "2.01"
    backend.stop()      # the session's keep-alive connection is still open
    record = sensor.send_observation(pump=gw.process_pending)
    assert record.response_code == "5.02"
    assert gw.metrics.upstream_errors == 1
    assert backend.store.count("Observations") == 1
    deadline = time.monotonic() + 2
    while backend._httpd.connections and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not backend._httpd.connections   # every handler thread closed its socket


def test_a_failing_handler_answers_5_02_and_the_next_exchange_is_stored(
        backend, build_pair, monkeypatch, capfd):
    real_respond = sensorthings.respond
    calls = []

    def respond_failing_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("respond failed")
        return real_respond(*args)

    monkeypatch.setattr(sensorthings, "respond", respond_failing_once)
    node_ep, gw = build_pair(backend.base_url)
    first, second = send_observations(node_ep, gw, 2)
    assert (first.response_code, second.response_code) == ("5.02", "2.01")
    assert gw.metrics.upstream_errors == 1
    assert backend.store.count("Observations") == 1
    assert "RuntimeError: respond failed" in capfd.readouterr().err     # the traceback


def test_a_page_over_1_mib_reads_the_same_in_thread_as_over_tcp(serve, seeded_store):
    for i in range(100):
        seeded_store.ingest_observation(1, {"result": "x" * 11_000}, receipt_time=float(i))
    in_thread, tcp = serve(seeded_store), serve(seeded_store)
    del http11.LOCAL_SERVERS[tcp.address]
    replies = []
    for server, connection in ((in_thread, http11._InThread), (tcp, socket.socket)):
        session = http11.HttpSession()
        try:
            replies.append(session.request("GET", server.base_url + "/Observations", timeout=5))
            assert isinstance(session._sock, connection)
        finally:
            session.close()
    assert [reply.status_code for reply in replies] == [200, 200]
    assert len(replies[0].content) > 1 << 20
    assert replies[0].content == replies[1].content


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


@pytest.mark.parametrize("virtual_clock", [False, True])
def test_coap_put_is_4_05(serve, backend, build_pair, virtual_clock):
    server = serve(backend.store, VirtualClock()) if virtual_clock else backend
    node_ep, gw = build_pair(server.base_url)
    put = coap.CoapMessage(coap.MsgType.CON, coap.METHOD_PUT, 7, token=b"\x07",
                           options=[(coap.OPT_URI_PATH, b"Things(1)")], payload=b"{}")
    node_ep.send(coap.encode(put), now=0.0)
    gw.process_pending(0.0)
    (reply,) = node_ep.receive(0.0)
    assert coap.decode(reply.payload).code == (4, 5)
    assert gw.metrics.upstream_errors == 0


@pytest.mark.parametrize("options", [[(coap.OPT_URI_PATH, b"\xff")], []],
                         ids=["non-utf8-path", "no-path"])
def test_bad_uri_path_is_4_00_and_counted(serve, seeded_store, build_pair, options):
    node_ep, gw = build_pair(serve(seeded_store, VirtualClock()).base_url)
    get = coap.CoapMessage(coap.MsgType.NON, coap.METHOD_GET, 8, token=b"\x08",
                           options=options)
    node_ep.send(coap.encode(get), now=0.0)
    assert gw.process_pending(0.0) == 1
    (reply,) = node_ep.receive(0.0)
    assert coap.decode(reply.payload).code == (4, 0)
    assert gw.metrics.decode_errors == 1
    assert gw.metrics.requests_forwarded == 0


# A 240-value result: the GET reply that carries it is longer than one
# 6LoWPAN datagram may be.
OVERSIZE_RESULT = [1000 + i for i in range(240)]


def oversize_get(serve, store, build_pair, msg_type, sends):
    """Send one GET of a stored 240-value Observations(1) ``sends`` times,
    as a fresh request and then its retransmissions; returns the node
    endpoint and the gateway."""
    store.ingest_observation(1, {"result": OVERSIZE_RESULT}, receipt_time=0.0)
    node_ep, gw = build_pair(serve(store, VirtualClock()).base_url)
    get = coap.encode(coap.CoapMessage(msg_type, coap.METHOD_GET, 9, token=b"\x09",
                                       options=[(coap.OPT_URI_PATH, b"Observations(1)")]))
    for attempt in range(sends):
        node_ep.send(get, now=float(attempt))
        assert gw.process_pending(float(attempt)) == 1
    return node_ep, gw


def test_oversize_reply_to_a_non_request_is_a_counted_drop(serve, seeded_store, build_pair):
    node_ep, gw = oversize_get(serve, seeded_store, build_pair, coap.MsgType.NON, sends=1)
    assert node_ep.receive(1.0) == []
    assert seeded_store.count("Observations") == 1
    assert gw.metrics.oversize_replies == 1
    assert gw.metrics.responses_sent == 0


def test_oversize_reply_to_con_retransmissions_stores_once(serve, seeded_store, build_pair):
    node_ep, gw = oversize_get(serve, seeded_store, build_pair, coap.MsgType.CON, sends=5)
    assert node_ep.receive(5.0) == []
    assert seeded_store.count("Observations") == 1
    assert gw.metrics.requests_forwarded == 1
    assert gw.metrics.dedup_hits == 4
    assert gw.metrics.oversize_replies == 5
    assert gw.metrics.responses_sent == 0


# -- the client against a scripted upstream ----------------------------------

CREATED = b"HTTP/1.1 201 Created\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"


@pytest.mark.parametrize("reply,content", [
    (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
     b"4;ext=1\r\nabcd\r\n3\r\nefg\r\n0\r\nX-Trailer: 1\r\n\r\n", b"abcdefg"),
    (b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 102 Processing\r\nX-A: 1\r\n\r\n"
     b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc", b"abc"),
], ids=["chunked", "after-1xx"])
def test_session_reads_a_framed_reply_and_keeps_the_connection(scripted, reply, content):
    upstream = scripted([reply, CREATED])
    session = http11.HttpSession()
    try:
        first = session.request("GET", upstream.url + "/Things", timeout=2)
        second = session.request("POST", upstream.url + "/Things", data=b"{}", timeout=2)
    finally:
        session.close()
    assert (first.status_code, first.content) == (200, content)
    assert (second.status_code, second.content) == (201, b"{}")
    assert len(upstream.requests) == 2      # both on the one scripted connection


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{\"a\":1}",
    b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
    b"HTTP/1.0 200 OK\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
], ids=["no-length", "connection-close", "http-1.0"])
def test_session_reconnects_after_a_reply_that_ends_the_connection(scripted, reply):
    upstream = scripted([reply], [CREATED])
    session = http11.HttpSession()
    try:
        first = session.request("GET", upstream.url + "/Things", timeout=2)
        second = session.request("POST", upstream.url + "/Things", data=b"{}", timeout=2)
    finally:
        session.close()
    assert (first.status_code, first.content) == (200, b'{"a":1}')
    assert second.status_code == 201


@pytest.mark.parametrize("reply,error", [
    (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc", http.client.IncompleteRead),
    (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab", http.client.IncompleteRead),
    (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", http.client.IncompleteRead),
    (b"SMTP ready\r\n", http.client.BadStatusLine),
    (b"HTTP/1.1 200 OK\r\nX-Long: " + b"x" * http11.MAX_LINE, http.client.LineTooLong),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 1e3\r\n\r\n", http.client.HTTPException),
    (b"", http.client.RemoteDisconnected),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabc",
     http.client.HTTPException),
    (b"HTTP/1.1 204 No Content\r\nX-A: 1\r\n", ConnectionAbortedError),
], ids=["short-body", "short-chunk", "bad-chunk-size", "not-http", "long-header",
        "bad-length", "no-reply", "differing-lengths", "cut-head"])
def test_malformed_reply_raises_and_the_gateway_answers_5_02(scripted, build_pair,
                                                               reply, error):
    upstream = scripted([reply], [reply])
    session = http11.HttpSession()
    try:
        with pytest.raises(error):
            session.request("GET", upstream.url + "/Things", timeout=2)
        assert session._sock is None        # closed after the error
    finally:
        session.close()
    node_ep, gw = build_pair(upstream.url, timeout=2)
    [record] = send_observations(node_ep, gw, 1)
    assert record.response_code == "5.02"
    assert gw.metrics.upstream_errors == 1


REPLY_PIECES = [
    b"HTTP/1.1 200 OK\r\n", b"HTTP/1.0 201 Created\r\n", b"HTTP/1.1 100 Continue\r\n",
    b"Content-Length: 3\r\n", b"Content-Length: 99999999999999999999\r\n",
    b"Content-Length: -1\r\n", b"Transfer-Encoding: chunked\r\n", b"Connection: close\r\n",
    b"\r\n", b"3\r\nabc\r\n", b"0\r\n\r\n", b"fffffff\r\n", b"abc",
]
REPLIES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.one_of(st.sampled_from(REPLY_PIECES), st.binary(max_size=8)),
             max_size=12).map(b"".join),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(reply=REPLIES)
def test_any_reply_bytes_return_or_raise_only_transport_errors(reply):
    upstream = ScriptedUpstream([[reply]])
    session = http11.HttpSession()
    try:
        answer = session.request("POST", upstream.url + "/Observations", data=PAYLOAD,
                                 timeout=2)
        assert 100 <= answer.status_code <= 999
    except (OSError, http.client.HTTPException):
        assert session._sock is None
    finally:
        session.close()
        upstream.close()


def test_https_urls_go_through_tls():
    listener = socket.create_server(("127.0.0.1", 0))

    def answer_in_plain_http():
        conn, _ = listener.accept()
        with conn:
            conn.sendall(CREATED)

    thread = threading.Thread(target=answer_in_plain_http, daemon=True)
    thread.start()
    session = http11.HttpSession()
    try:
        with pytest.raises(ssl.SSLError):   # the handshake meets a plain HTTP reply
            session.request("GET", "https://127.0.0.1:%d/v1.0" % listener.getsockname()[1],
                            timeout=2)
    finally:
        session.close()
        thread.join(5)
        listener.close()
    assert not thread.is_alive()


def test_request_head_is_the_papers_http_header_block(scripted, build_pair):
    upstream = scripted([CREATED])
    node_ep, gw = build_pair(upstream.url)
    [record] = send_observations(node_ep, gw, 1)
    assert record.response_code == "2.01"
    [sent] = upstream.requests
    head, body = sent[:-len(PAYLOAD)], sent[-len(PAYLOAD):]
    expected = sizebench.http_header_block(
        len(PAYLOAD), "/v1.0/Observations", upstream.url.split("/")[2])
    assert body == PAYLOAD
    assert head == expected.replace(b"Connection: close\r\n", b"")


# -- determinism ---------------------------------------------------------------

def run_in_process(serve, journal, seed):
    """2 CON nodes at 30 % loss, each through its own gateway and session to
    one BackendServer on the nodes' clock, reached in this thread; returns
    the send records."""
    clock = VirtualClock()
    store = sensorthings.Store(journal_path=str(journal))
    sensorthings.seed_default_entities(store)
    upstream = gateway.UpstreamConfig(base_url=serve(store, clock).base_url)
    gateways, nodes = [], []
    for i in range(2):
        link = link154.SimulatedLink(link154.LinkConfig(loss_probability=0.3, seed=seed + i))
        gateways.append(gateway.Gateway(
            stack.StackEndpoint(link.endpoints[1], stack.gateway_stack_config()), upstream))
        config = node.NodeConfig(reliability=node.Reliability(confirmable=True))
        node_ep = stack.StackEndpoint(link.endpoints[0], stack.node_stack_config())
        nodes.append(node.Node(config, node_ep, clock, node_id=i))

    def pump(now):
        for one in gateways:
            one.process_pending(now)

    for _ in range(30):
        clock.sleep(10.0)
        for one in nodes:
            one.send_observation(pump=pump)
    for one in gateways:
        one.session.close()
    store.close()
    return [record for one in nodes for record in one.records]


def test_same_seed_in_process_runs_write_identical_journals(serve, tmp_path):
    records = run_in_process(serve, tmp_path / "a.jsonl", seed=7)
    run_in_process(serve, tmp_path / "b.jsonl", seed=7)
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert any(r.attempts > 1 for r in records)  # the loss made nodes retransmit
    assert sum(r.outcome == "acked" for r in records) > 0


def test_runtime_does_not_import_requests():
    """Nor does ``http11`` import another iotpipe module, nor ``gateway`` the backend."""
    script = (
        "import sys, iotpipe.http11\n"
        "assert [m for m in sys.modules if m.startswith('iotpipe.')] == ['iotpipe.http11']\n"
        "import iotpipe.gateway\n"
        "assert 'iotpipe.sensorthings' not in sys.modules\n"
        "import iotpipe.cli\n"
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


class TestOverTcp:
    """The tests above that pair an HttpSession with a BackendServer, rerun
    with each server taken out of ``http11.LOCAL_SERVERS``, so that
    every exchange goes over loopback TCP. (The entry is deleted outright:
    ``stop()`` tolerates its absence, where a monkeypatch would put it back
    after ``stop()`` had removed it.)"""

    @pytest.fixture
    def serve(self, serve):
        def start(store, clock=None):
            server = serve(store, clock)
            del http11.LOCAL_SERVERS[server.address]
            return server
        return start

    test_ten_observations_stored_and_acknowledged = staticmethod(
        test_ten_observations_stored_and_acknowledged)
    test_payload_bytes_preserved_end_to_end = staticmethod(test_payload_bytes_preserved_end_to_end)
    test_pipeline_on_an_external_backend_reads_the_stored_count_over_http = staticmethod(
        test_pipeline_on_an_external_backend_reads_the_stored_count_over_http)
    test_three_concurrent_nodes_no_token_mismatch = staticmethod(
        test_three_concurrent_nodes_no_token_mismatch)
    test_gateways_in_four_threads_share_one_server = staticmethod(
        test_gateways_in_four_threads_share_one_server)
    test_retransmission_deduplicated = staticmethod(test_retransmission_deduplicated)
    test_exchanges_share_one_keep_alive_connection = staticmethod(
        test_exchanges_share_one_keep_alive_connection)
    test_a_server_on_a_clock_stamps_receipt_and_date_from_it = staticmethod(
        test_a_server_on_a_clock_stamps_receipt_and_date_from_it)
    test_session_reply_headers_are_case_insensitive = staticmethod(
        test_session_reply_headers_are_case_insensitive)
    test_next_observation_after_session_close_is_stored = staticmethod(
        test_next_observation_after_session_close_is_stored)
    test_next_observation_after_server_drops_idle_connection_is_stored = staticmethod(
        test_next_observation_after_server_drops_idle_connection_is_stored)
    test_a_stopped_server_stops_answering = staticmethod(test_a_stopped_server_stops_answering)
    test_a_failing_handler_answers_5_02_and_the_next_exchange_is_stored = staticmethod(
        test_a_failing_handler_answers_5_02_and_the_next_exchange_is_stored)
    test_coap_put_is_4_05 = staticmethod(test_coap_put_is_4_05)
