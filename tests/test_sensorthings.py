import email.utils
import http.client
import json
import socket
import struct
import time
import warnings

import pytest
import requests

from iotpipe import sensorthings
from tests.conftest import THING_BODY


def test_thing_deep_insert_creates_linked_location(store):
    thing_id = store.create_entity("Things", THING_BODY)
    assert thing_id == 1
    thing = store.query("Things(1)")
    assert thing["name"] == "RIOT Alpha"
    assert thing["properties"]["owner"] == "iNET RG, HAW Hamburg"
    locations = store.query("Things(1)/Locations")
    assert locations["@iot.count"] == 1
    assert locations["value"][0]["location"]["coordinates"] == [10.022993, 53.557189]


def test_deep_insert_rolls_back_on_bad_location(store):
    body = json.loads(json.dumps(THING_BODY))
    body["Locations"][0]["location"]["coordinates"] = [200.0, 53.0]
    with pytest.raises(sensorthings.ValidationError):
        store.create_entity("Things", body)
    assert store.count("Things") == 0
    assert store.count("Locations") == 0


def test_missing_name_rejected(store):
    with pytest.raises(sensorthings.ValidationError):
        store.create_entity("Sensors", {"description": "anonymous"})


def test_datastream_requires_resolvable_links(store):
    store.create_entity("Things", {"name": "t"})
    store.create_entity("ObservedProperties", {"name": "p", "definition": "d"})
    with pytest.raises(sensorthings.BrokenReference):
        store.create_entity("Datastreams", {
            "name": "ds",
            "Thing": {"@iot.id": 1},
            "Sensor": {"@iot.id": 99},
            "ObservedProperty": {"@iot.id": 1},
        })
    assert store.count("Datastreams") == 0


def test_minimal_observed_property(store):
    new_id = store.create_entity("ObservedProperties", {
        "name": "Temperature", "definition": "def", "description": "desc",
    })
    assert store.query("ObservedProperties(%d)" % new_id)["name"] == "Temperature"


def test_ingest_assigns_server_times(seeded_store):
    obs_id = seeded_store.ingest_observation(1, {"result": 2143}, receipt_time=1000.0)
    obs = seeded_store.query("Observations(%d)" % obs_id)
    assert obs["result"] == 2143
    assert obs["phenomenonTime"] == "1970-01-01T00:16:40.000Z"
    assert obs["resultTime"] == obs["phenomenonTime"]


def test_ingest_preserves_client_phenomenon_time(seeded_store):
    obs_id = seeded_store.ingest_observation(
        1, {"result": 2143, "phenomenonTime": "2018-04-01T00:00:00Z"},
        receipt_time=1000.0,
    )
    assert seeded_store.query("Observations(%d)" % obs_id)["phenomenonTime"] \
        == "2018-04-01T00:00:00Z"


def test_ingest_unknown_datastream(seeded_store):
    with pytest.raises(sensorthings.UnknownDatastream):
        seeded_store.ingest_observation(99, {"result": 1}, receipt_time=0.0)


def test_ingest_malformed_body(seeded_store):
    with pytest.raises(sensorthings.MalformedBody):
        seeded_store.ingest_observation(1, {}, receipt_time=0.0)


def test_observations_query_counts_and_order(seeded_store):
    for i in range(10):
        seeded_store.ingest_observation(1, {"result": i}, receipt_time=float(i))
    out = seeded_store.query("Datastreams(1)/Observations")
    assert out["@iot.count"] == 10
    ids = [o["@iot.id"] for o in out["value"]]
    assert ids == sorted(ids)


def test_pagination(seeded_store):
    for i in range(25):
        seeded_store.ingest_observation(1, {"result": i}, receipt_time=0.0)
    page = seeded_store.query("Observations", {"$top": "10", "$skip": "20"})
    assert page["@iot.count"] == 25
    assert len(page["value"]) == 5


def test_not_found_and_bad_path(seeded_store):
    with pytest.raises(sensorthings.NotFound):
        seeded_store.query("Datastreams(99)")
    with pytest.raises(sensorthings.BadPath):
        seeded_store.query("Bogus")
    with pytest.raises(sensorthings.BadPath):
        seeded_store.query("Things(1)/Bogus")


def test_singular_navigation(seeded_store):
    assert seeded_store.query("Datastreams(1)/Thing")["name"] == "RIOT Alpha"
    assert seeded_store.query("Datastreams(1)/Sensor")["@iot.id"] == 1


# -- persistence ------------------------------------------------------------

def test_journal_replay_identity(tmp_path):
    path = tmp_path / "journal.jsonl"
    store = sensorthings.Store(journal_path=str(path))
    sensorthings.seed_default_entities(store)
    for i in range(100):
        store.ingest_observation(1, {"result": i}, receipt_time=float(i))
    before = store.query("Datastreams(1)/Observations", {"$top": "200"})
    store.close()

    recovered = sensorthings.Store.recover(str(path))
    after = recovered.query("Datastreams(1)/Observations", {"$top": "200"})
    assert after == before
    assert recovered.count("Observations") == 100
    recovered.close()


def test_recovery_drops_truncated_tail(tmp_path):
    path = tmp_path / "journal.jsonl"
    store = sensorthings.Store(journal_path=str(path))
    sensorthings.seed_default_entities(store)
    for i in range(100):
        store.ingest_observation(1, {"result": i}, receipt_time=float(i))
    store.close()

    raw = path.read_bytes()
    path.write_bytes(raw[:-10])  # chop the last line mid-record
    with pytest.warns(UserWarning):
        recovered = sensorthings.Store.recover(str(path))
    assert recovered.count("Observations") == 99
    recovered.close()


def _snapshot(store):
    return {kind: store.query(kind, {"$top": "1000"}) for kind in sensorthings.KINDS}


def test_append_after_recovery_at_every_crash_point(tmp_path):
    # For every byte offset k at which a crash can cut the journal: recover,
    # append one record, recover again. The result is the records that lay
    # wholly before k plus the new one, never CorruptJournal. The new record
    # is a Sensor, which needs no earlier record, so every k can take it.
    full = tmp_path / "full.jsonl"
    store = sensorthings.Store(journal_path=str(full))
    sensorthings.seed_default_entities(store)
    for i in range(2):
        store.ingest_observation(1, {"result": i}, receipt_time=float(i))
    store.close()
    raw = full.read_bytes()
    path, expected = tmp_path / "cut.jsonl", tmp_path / "expected.jsonl"
    for k in range(len(raw) + 1):
        whole = raw[:raw.rfind(b"\n", 0, k) + 1]
        path.write_bytes(raw[:k])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store = sensorthings.Store.recover(str(path))
        assert store.torn_bytes == k - len(whole)
        assert len(caught) == (k > len(whole))
        store.create_entity("Sensors", {"name": "after the crash"})
        store.close()

        expected.write_bytes(whole)
        reference = sensorthings.Store.recover(str(expected))
        reference.create_entity("Sensors", {"name": "after the crash"})
        reference.close()
        assert path.read_bytes() == expected.read_bytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = sensorthings.Store.recover(str(path))
        again.close()
        assert _snapshot(again) == _snapshot(reference)


def test_unparsable_final_record_is_cut_before_the_next_append(tmp_path):
    path = tmp_path / "journal.jsonl"
    store = sensorthings.Store(journal_path=str(path))
    sensorthings.seed_default_entities(store)
    store.close()
    whole = path.read_bytes()
    path.write_bytes(whole + b'{"op":"create"}\n')     # complete line, not a record
    with pytest.warns(UserWarning):
        store = sensorthings.Store.recover(str(path))
    assert store.torn_bytes == len(b'{"op":"create"}\n')
    store.ingest_observation(1, {"result": 1}, receipt_time=0.0)
    store.close()
    assert path.read_bytes().startswith(whole)
    again = sensorthings.Store.recover(str(path))
    assert again.count("Observations") == 1
    again.close()


def test_recovery_of_empty_journal(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_text("")
    recovered = sensorthings.Store.recover(str(path))
    assert all(recovered.count(k) == 0 for k in sensorthings.KINDS)
    recovered.close()


def test_mid_journal_corruption_raises(tmp_path):
    path = tmp_path / "journal.jsonl"
    store = sensorthings.Store(journal_path=str(path))
    sensorthings.seed_default_entities(store)
    store.close()
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(sensorthings.CorruptJournal):
        sensorthings.Store.recover(str(path))


def test_ids_continue_after_recovery(tmp_path):
    path = tmp_path / "journal.jsonl"
    store = sensorthings.Store(journal_path=str(path))
    sensorthings.seed_default_entities(store)
    store.ingest_observation(1, {"result": 1}, receipt_time=0.0)
    store.close()
    recovered = sensorthings.Store.recover(str(path))
    new_id = recovered.ingest_observation(1, {"result": 2}, receipt_time=1.0)
    assert new_id == 2
    recovered.close()


# -- HTTP surface -----------------------------------------------------------

def test_http_create_thing_and_read_back(backend):
    response = requests.post(backend.base_url + "/Things", json=THING_BODY)
    assert response.status_code == 201
    assert "Location" in response.headers
    new_id = response.json()["@iot.id"]
    got = requests.get("%s/Things(%d)" % (backend.base_url, new_id)).json()
    assert got["name"] == "RIOT Alpha"


def test_http_observation_alias_route(backend):
    response = requests.post(
        backend.base_url + "/Observations",
        data=b'{"result":2143}',
        headers={"Content-Type": "application/json"},
    )
    assert response.status_code == 201
    assert response.json()["result"] == 2143


def test_http_datastream_observation_route(backend):
    response = requests.post(
        backend.base_url + "/Datastreams(1)/Observations", json={"result": 7}
    )
    assert response.status_code == 201
    listing = requests.get(backend.base_url + "/Datastreams(1)/Observations").json()
    assert listing["@iot.count"] == 1


def test_http_error_statuses(backend):
    assert requests.get(backend.base_url + "/Datastreams(99)").status_code == 404
    assert requests.post(
        backend.base_url + "/Datastreams(99)/Observations", json={"result": 1}
    ).status_code == 404
    assert requests.post(
        backend.base_url + "/Observations", data=b"not json",
        headers={"Content-Type": "application/json"},
    ).status_code == 400
    assert requests.post(
        backend.base_url + "/Sensors", json={"nope": 1}
    ).status_code == 400


def _request(backend, method, target, length=None):
    """(status, body) of one request whose Content-Length header is sent verbatim."""
    conn = http.client.HTTPConnection("127.0.0.1", backend.port, timeout=5)
    try:
        conn.putrequest(method, backend.root + target)
        if length is not None:
            conn.putheader("Content-Length", length)
        conn.endheaders()
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_http_non_numeric_content_length_is_400(backend):
    assert _request(backend, "POST", "/Observations", length="abc")[0] == 400


def test_http_negative_content_length_is_400(backend):
    assert _request(backend, "POST", "/Observations", length="-5")[0] == 400


def _on_one_connection(backend, requests):
    """(status, headers, body) of each (method, target, body) sent on one connection."""
    conn = http.client.HTTPConnection("127.0.0.1", backend.port, timeout=5)
    replies = []
    try:
        for method, target, body in requests:
            conn.request(method, target, body=body)
            response = conn.getresponse()
            replies.append((response.status, response.headers, response.read()))
    finally:
        conn.close()
    return replies


def test_rejected_post_path_keeps_the_connection_in_step(backend):
    replies = _on_one_connection(backend, [
        ("POST", "/wrong/Observations", b'{"result":1}'),
        ("GET", backend.root + "/Observations?$top=0", None),
    ])
    assert [status for status, _, _ in replies] == [400, 200]


def test_get_with_a_body_keeps_the_connection_in_step(backend):
    replies = _on_one_connection(backend, [
        ("GET", backend.root + "/Things(1)", b'{"ignored":1}'),
        ("GET", backend.root + "/Things(1)", None),
    ])
    assert [status for status, _, _ in replies] == [200, 200]


@pytest.mark.parametrize("method", ["PUT", "DELETE"])
def test_other_methods_are_405_with_a_json_error(backend, method):
    replies = _on_one_connection(backend, [
        (method, backend.root + "/Things(1)", b"{}"),
        ("GET", backend.root + "/Things(1)", None),
    ])
    (status, headers, body), (follow_up, _, _) = replies
    assert (status, follow_up) == (405, 200)
    assert headers["Content-Type"] == "application/json"
    assert json.loads(body) == {"error": "method %s not allowed" % method}


def test_head_is_answered_without_a_body(backend):
    replies = _on_one_connection(backend, [
        ("HEAD", backend.root + "/Things(1)", None),
        ("GET", backend.root + "/Things(1)", None),
    ])
    assert [(status, body == b"") for status, _, body in replies] == [(405, True), (200, False)]


def test_http_observation_body_must_be_an_object(backend):
    response = requests.post(backend.base_url + "/Observations", json=[1])
    assert response.status_code == 400
    assert backend.store.count("Observations") == 0


def test_http_deeply_nested_body_is_400(backend):
    response = requests.post(backend.base_url + "/Observations", data=b"[" * 100_000)
    assert response.status_code == 400


@pytest.mark.parametrize("path,body,error", [
    ("/Observations", b'{"Datastream":{"@iot.id":[1]},"result":1}',
     "Datastream link id must be a number"),
    ("/Datastreams", b'{"name":"d","Thing":{"@iot.id":{}},"Sensor":{"@iot.id":1},'
                     b'"ObservedProperty":{"@iot.id":1}}', "Thing link id must be a number"),
    ("/Datastreams", b'{"name":"d","unitOfMeasurement":"C","Thing":{"@iot.id":1},'
                     b'"Sensor":{"@iot.id":1},"ObservedProperty":{"@iot.id":1}}',
     "unitOfMeasurement must be an object"),
])
def test_malformed_nested_values_are_400(seeded_store, path, body, error):
    reply = sensorthings.respond(seeded_store, "POST", "/v1.0" + path, body, 0.0)
    assert reply == (400, {"error": error}, None)


def test_http_query_values_are_percent_decoded(backend, seeded_store):
    for i in range(3):
        seeded_store.ingest_observation(1, {"result": i}, receipt_time=0.0)
    status, body = _request(backend, "GET", "/Observations?%24top=%31")
    assert status == 200
    assert len(json.loads(body)["value"]) == 1


@pytest.mark.parametrize("key", ["$top", "$skip"])
def test_negative_page_bounds_are_400(backend, seeded_store, key):
    seeded_store.ingest_observation(1, {"result": 1}, receipt_time=0.0)
    with pytest.raises(sensorthings.BadPath):
        seeded_store.query("Observations", {key: "-1"})
    assert _request(backend, "GET", "/Observations?%s=-1" % key)[0] == 400


def test_http_root_listing(backend):
    names = {c["name"] for c in requests.get(backend.base_url).json()["value"]}
    assert "Things" in names and "Observations" in names


def test_stop_returns_promptly(seeded_store):
    server = sensorthings.BackendServer(seeded_store).start()
    assert requests.get(server.base_url).status_code == 200
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 0.2


# -- entity ids too long for int() ------------------------------------------

LONG_ID = "9" * 5000   # more digits than int() converts


def test_overlong_entity_ids_are_404(seeded_store):
    things = sensorthings.respond(seeded_store, "GET", "/v1.0/Things(%s)" % LONG_ID, b"", 0.0)
    post = sensorthings.respond(seeded_store, "POST",
                                "/v1.0/Datastreams(%s)/Observations" % LONG_ID,
                                b'{"result":1}', 0.0)
    assert (things[0], post[0]) == (404, 404)
    assert seeded_store.count("Observations") == 0


def test_overlong_entity_id_keeps_the_connection_serving(backend):
    replies = _on_one_connection(backend, [
        ("POST", "%s/Datastreams(%s)/Observations" % (backend.root, LONG_ID), b'{"result":1}'),
        ("GET", "%s/Things(%s)" % (backend.root, LONG_ID), None),
        ("GET", backend.root + "/Things(1)", None),
    ])
    assert [status for status, _, _ in replies] == [404, 404, 200]


# -- the HTTP subset, over raw sockets --------------------------------------

def _raw(backend, *sends):
    """Every byte the backend sends on one connection, up to its close, after
    each of ``sends`` is sent in one piece."""
    with socket.create_connection(("127.0.0.1", backend.port), timeout=2) as sock:
        for data in sends:
            sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _replies(raw):
    """(status, header fields, body) of each reply in ``raw``."""
    out = []
    while raw:
        head, _, raw = raw.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        fields = dict(line.split(": ", 1) for line in lines)
        length = int(fields["Content-Length"])
        out.append((int(status_line.split()[1]), fields, raw[:length]))
        raw = raw[length:]
    return out


def test_http_1_0_closes_unless_asked_to_keep_alive(backend):
    replies = _replies(_raw(backend, b"GET /v1.0/Things(1) HTTP/1.0\r\n"
                                     b"Connection: keep-alive\r\n\r\n"
                                     b"GET /v1.0/Sensors(1) HTTP/1.0\r\n\r\n"))
    assert [status for status, _, _ in replies] == [200, 200]
    (_, kept, _), (_, closed, _) = replies
    assert "Connection" not in kept and closed["Connection"] == "close"
    sent = email.utils.parsedate_to_datetime(closed["Date"]).timestamp()
    assert abs(sent - time.time()) < 60


def test_connection_close_is_answered_then_closed(backend):
    [(status, fields, body)] = _replies(_raw(
        backend, b"GET /v1.0/Things(1) HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"))
    assert (status, fields["Connection"]) == (200, "close")
    assert json.loads(body)["name"] == "RIOT Alpha"


def test_pipelined_requests_are_answered_in_order(backend):
    post = (b"POST /v1.0/Observations HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 12\r\n\r\n{\"result\":7}")
    get = b"GET /v1.0/Observations(1) HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    replies = _replies(_raw(backend, post + get))
    assert [status for status, _, _ in replies] == [201, 200]
    assert replies[0][1]["Location"] == "/v1.0/Observations(1)"
    assert json.loads(replies[1][2])["result"] == 7


def test_transfer_encoding_is_501_and_closes(backend):
    raw = _raw(backend, b"POST /v1.0/Observations HTTP/1.1\r\nHost: x\r\n"
                        b"Transfer-Encoding: chunked\r\n\r\n")
    [(status, fields, _)] = _replies(raw)
    assert (status, fields["Connection"]) == (501, "close")
    assert backend.store.count("Observations") == 0


# Each request ends where the server stops reading it: bytes left unread when
# the server closes would make it send a reset, which can discard the reply.
LIMIT = sensorthings.MAX_LINE + 1
HEAD = b"GET /v1.0 HTTP/1.1\r\n"


@pytest.mark.parametrize("request_bytes,status", [
    (b"G" * LIMIT, 400),
    (HEAD + b"X-Long: " + b"x" * (LIMIT - 8), 431),
    (HEAD + b"X-Many: 1\r\n" * (sensorthings.MAX_HEADERS + 1), 431),
    (b"\x00\x01 garbage\r\n", 400),
    (b"GET /v1.0\r\n", 400),
    (HEAD + b"no colon here\r\n", 400),
    (b"GET /v1.0 HTTP/2.0\r\n\r\n", 505),
    (b"POST /v1.0/Observations HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n", 413),
    (b"POST /v1.0/Observations HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 12\r\n\r\n",
     400),
    (b"POST /v1.0/Observations HTTP/1.1\r\nContent-Length : 12\r\n\r\n", 400),
], ids=["long-request-line", "long-header-line", "101-headers", "garbage", "no-version",
        "header-without-colon", "http-2", "body-over-1-MiB", "differing-content-lengths",
        "space-before-colon"])
def test_malformed_requests_are_refused_and_closed(backend, request_bytes, status):
    [(got, fields, body)] = _replies(_raw(backend, request_bytes))
    assert (got, fields["Connection"]) == (status, "close")
    assert "error" in json.loads(body)
    assert backend.store.count("Observations") == 0


def test_exactly_100_headers_are_read(backend):
    raw = _raw(backend, b"GET /v1.0/Things(1) HTTP/1.1\r\n"
                        + b"X-Many: 1\r\n" * (sensorthings.MAX_HEADERS - 1)
                        + b"Connection: close\r\n\r\n")
    assert [status for status, _, _ in _replies(raw)] == [200]


def test_expect_100_continue_gets_an_interim_reply(backend):
    with socket.create_connection(("127.0.0.1", backend.port), timeout=2) as sock:
        sock.sendall(b"POST /v1.0/Observations HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                     b"Expect: 100-continue\r\nContent-Length: 12\r\n\r\n")
        interim = b"HTTP/1.1 100 Continue\r\n\r\n"
        got = b""
        while len(got) < len(interim):
            got += sock.recv(len(interim) - len(got))
        assert got == interim
        sock.sendall(b'{"result":7}')
        rest = sock.makefile("rb").read()
    assert [status for status, _, _ in _replies(rest)] == [201]
    assert backend.store.count("Observations") == 1


def test_idle_timeout_and_peer_reset_end_connections_quietly(seeded_store, capfd):
    server = sensorthings.BackendServer(seeded_store)
    server._httpd.RequestHandlerClass.timeout = 0.1
    server.start()
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=2) as idle:
            assert idle.recv(1) == b""      # the server dropped the idle connection
        reset = socket.create_connection(("127.0.0.1", server.port), timeout=2)
        reset.sendall(b"POST /v1.0/Observations HTTP/1.1\r\nContent-Length: 12\r\n\r\n")
        reset.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        reset.close()                       # an RST in the middle of the body
        time.sleep(0.2)
        assert _request(server, "GET", "/Things(1)")[0] == 200
    finally:
        server.stop()
    assert "Traceback" not in capfd.readouterr().err
