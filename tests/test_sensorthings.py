import email.utils
import http.client
import io
import json
import pathlib
import re
import socket
import struct
import sys
import tempfile
import threading
import time
import warnings

import pytest
import requests
from hypothesis import example, given, settings, strategies as st

from iotpipe import http11, sensorthings
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


# -- page reads from the index and the text cache ---------------------------

# (kind, Location count), (kind, Thing, link as 1.0), (kind, Datastream, route)
# or a GET that fills the text cache
STORE_OPS = st.lists(st.one_of(
    st.tuples(st.just("Things"), st.integers(0, 2)),
    st.tuples(st.just("Datastreams"), st.integers(1, 3), st.booleans()),
    st.tuples(st.just("Observations"), st.integers(1, 3), st.sampled_from(["alias", "1.0", "nav"])),
    st.tuples(st.just("GET"), st.sampled_from(["Observations", "Datastreams(1)/Observations",
                                               "Things(1)/Datastreams", "Datastreams(2)"])),
), max_size=25)
READ_PATHS = st.one_of(
    st.sampled_from(sensorthings.KINDS),
    st.builds("{}({})".format, st.sampled_from(sensorthings.KINDS), st.integers(1, 4)),
    st.builds(lambda nav, i: "%s(%d)/%s" % (nav[0], i, nav[1]),
              st.sampled_from(sorted(sensorthings.NAVIGATIONS)), st.integers(1, 4)),
)
PAGE_BOUND = st.one_of(st.none(), st.integers(0, 12))


def _apply_op(store, op, now):
    """Send one STORE_OPS entry through ``respond``; its 4xx replies are fine."""
    kind, ref, *rest = op
    if kind == "GET":
        return sensorthings.respond(store, "GET", "/v1.0/" + ref, b"", now)
    if kind == "Things":
        location = {"name": "l", "location": {"type": "Point", "coordinates": [1, 2]}}
        body, path = {"name": "t", "Locations": [location] * ref}, "/Things"
    elif kind == "Datastreams":
        body, path = {"name": "d", "Thing": {"@iot.id": float(ref) if rest[0] else ref},
                      "Sensor": {"@iot.id": 1}, "ObservedProperty": {"@iot.id": 1}}, "/Datastreams"
    elif rest[0] == "nav":
        body, path = {"result": now}, "/Datastreams(%d)/Observations" % ref
    else:
        link = float(ref) if rest[0] == "1.0" else ref
        body, path = {"result": now, "Datastream": {"@iot.id": link}}, "/Observations"
    return sensorthings.respond(store, "POST", "/v1.0" + path, json.dumps(body).encode(), now)


def _linked_ids(store, kind, nav):
    """owner id -> ids of the ``kind`` entities whose ``nav`` link names it,
    found by reading every entity's link on its own."""
    owners = {}
    for row in store.query(kind, {"$top": "1000"})["value"]:
        owner = store.query("%s(%d)/%s" % (kind, row["@iot.id"], nav))["@iot.id"]
        owners.setdefault(owner, []).append(row["@iot.id"])
    return owners


@settings(max_examples=60, deadline=None)
@given(STORE_OPS, st.lists(st.tuples(READ_PATHS, PAGE_BOUND, PAGE_BOUND), max_size=12),
       st.booleans())
@example(ops=[("Datastreams", 1, True), ("Observations", 2, "1.0"), ("Observations", 1, "nav")],
         reads=[("Things(1)/Datastreams", 0, None), ("Datastreams(2)/Observations", None, 5),
                ("Observations", 1, 1), ("Things(1)/Datastreams", None, None)],
         recover=True)
def test_get_bodies_are_json_dumps_of_query(ops, reads, recover):
    """The body ``respond`` joins from cached texts for a GET is byte for byte
    ``json.dumps`` of ``Store.query``, on live and recovered stores, and a
    back-navigation lists exactly the entities whose link names its owner."""
    with tempfile.TemporaryDirectory() as tmp:
        journal = tmp + "/journal.jsonl"
        store = sensorthings.Store(journal_path=journal)
        sensorthings.seed_default_entities(store)
        for i, op in enumerate(ops):
            _apply_op(store, op, 1000.0 + i)
        store.close()
        live = store
        if recover:
            store = sensorthings.Store.recover(journal)
            store.close()
        for path, top, skip in reads + reads:        # the second pass reads warm texts
            params = {k: str(v) for k, v in (("$top", top), ("$skip", skip)) if v is not None}
            target = "/v1.0/%s?%s" % (path, "&".join("%s=%s" % item for item in params.items()))
            reply = sensorthings.respond(store, "GET", target, b"", 0.0)
            try:
                expected = 200, json.dumps(store.query(path, params)), None
            except sensorthings.StError as exc:
                expected = exc.status, json.dumps({"error": str(exc)}), None
            assert reply == expected
            assert sensorthings.respond(live, "GET", target, b"", 0.0) == reply
        for owner, kind, back in [("Things", "Datastreams", "Thing"),
                                  ("Datastreams", "Observations", "Datastream")]:
            linked = _linked_ids(store, kind, back)
            for owner_id in range(1, store.count(owner) + 1):
                page = store.query("%s(%d)/%s" % (owner, owner_id, kind), {"$top": "1000"})
                assert [row["@iot.id"] for row in page["value"]] == linked.get(owner_id, [])
                assert page["@iot.count"] == len(page["value"])


def test_a_page_renders_each_entity_once(seeded_store, monkeypatch):
    for i in range(20_000):
        seeded_store.ingest_observation(1, {"result": i}, receipt_time=float(i))
    rendered = []
    render = sensorthings.Store._render

    def counting(self, kind, ident):
        rendered.append(ident)
        return render(self, kind, ident)

    monkeypatch.setattr(sensorthings.Store, "_render", counting)
    target = "/v1.0/Datastreams(1)/Observations?$top=100&$skip=19900"
    first = sensorthings.respond(seeded_store, "GET", target, b"", 0.0)
    assert rendered == list(range(19_901, 20_001))
    assert sensorthings.respond(seeded_store, "GET", target, b"", 0.0) == first
    assert len(rendered) == 100
    assert json.loads(first[1])["@iot.count"] == 20_000


def test_concurrent_page_reads_during_ingest(seeded_store):
    """Readers on several threads share the text cache while a writer
    ingests; every page they get is the store's first rows, in order."""
    errors = []

    def reader():
        try:
            for _ in range(150):
                status, text, _ = sensorthings.respond(
                    seeded_store, "GET", "/v1.0/Datastreams(1)/Observations?$top=50",
                    b"", 0.0)
                page = json.loads(text)
                ids = [row["@iot.id"] for row in page["value"]]
                assert status == 200 and ids == list(range(1, min(50, page["@iot.count"]) + 1))
        except Exception as exc:    # handed to the main thread, which fails the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for i in range(2000):
            seeded_store.ingest_observation(1, {"result": i}, receipt_time=float(i))
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert seeded_store.read("Observations", {"$top": "2000"}) == \
        json.dumps(seeded_store.query("Observations", {"$top": "2000"}))


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


# JSON lines that replay cannot apply: values that are not objects, an
# observation whose datastream id cannot be a dict key, and a value nested
# deeper than the decoder recurses
UNAPPLIABLE = [b'[1]', b'"x"',
               b'{"op":"observation","datastream_id":[1],"body":{"result":1},"time":"t"}',
               pytest.param(b"[" * 100_000, id="nested-too-deep")]


def _seeded_journal(path):
    store = sensorthings.Store(journal_path=str(path))
    sensorthings.seed_default_entities(store)
    store.close()
    return path.read_bytes()


@pytest.mark.parametrize("record", UNAPPLIABLE)
def test_an_unappliable_record_mid_journal_is_corrupt(tmp_path, record):
    path = tmp_path / "journal.jsonl"
    lines = _seeded_journal(path).splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:2] + [record + b"\n"] + lines[2:]))
    with pytest.raises(sensorthings.CorruptJournal, match="journal line 3 "):
        sensorthings.Store.recover(str(path))


@pytest.mark.parametrize("record", UNAPPLIABLE)
def test_an_unappliable_final_record_is_dropped_and_cut(tmp_path, record):
    path = tmp_path / "journal.jsonl"
    whole = _seeded_journal(path)
    path.write_bytes(whole + record + b"\n")
    with pytest.warns(UserWarning) as caught:
        store = sensorthings.Store.recover(str(path))
    store.close()
    assert "final journal line 5:" in str(caught[0].message)
    assert store.torn_bytes == len(record) + 1
    assert path.read_bytes() == whole
    assert store.count("Datastreams") == 1 and store.count("Observations") == 0


def _recover_per_line(path):
    """``Store.recover`` as a loop over the journal's lines, one ``json.loads``
    each, applied through the same ``_apply``: the reference of the replay."""
    with open(path, "rb") as handle:
        raw = handle.read()
    size, keep = len(raw), raw.rfind(b"\n") + 1
    try:
        text = raw[:keep].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise sensorthings.CorruptJournal("journal is not UTF-8: %s" % exc) from None
    lines = text.split("\n")
    lines.pop()
    store = sensorthings.Store()
    for i, line in enumerate(lines):
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise sensorthings.CorruptJournal("journal record is not a JSON object")
            store._apply(record)
        except (ValueError, KeyError, sensorthings.StError, RecursionError) as exc:
            if i < len(lines) - 1:
                raise sensorthings.CorruptJournal("journal line %d unreadable: %s" % (i + 1, exc))
            warnings.warn("dropping unreadable final journal line %d: %s" % (i + 1, exc))
            keep -= len(line.encode("utf-8")) + 1
    store.torn_bytes = size - keep
    if store.torn_bytes:
        warnings.warn("cut %d bytes of torn journal tail" % store.torn_bytes)
        with open(path, "r+b") as handle:
            handle.truncate(keep)
    return store


def _replay_outcome(recover, path, journal: bytes):
    """What ``recover`` makes of ``journal``: the store's entities and links
    (as repr, so NaN compares equal), ``torn_bytes``, the file's bytes after
    recovery and the warnings; or the exception's class and text."""
    path.write_bytes(journal)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            store = recover(str(path))
        except sensorthings.StError as exc:
            return type(exc), str(exc)
    store.close()
    return (repr(store._entities), repr(store._links), store.torn_bytes, path.read_bytes(),
            [str(w.message) for w in caught])


_TIME = "2017-07-14T02:40:00.000Z"
_RECORDS = st.one_of(
    st.builds(lambda ds, result: {"op": "observation", "datastream_id": ds,
                                  "body": {"result": result}, "time": _TIME},
              st.sampled_from([1, 1.0, 2]),
              st.one_of(st.integers(), st.floats(), st.text(max_size=4))),
    st.sampled_from([
        {"op": "create", "kind": "Sensors", "body": {"name": "sé"}},
        {"op": "create", "kind": "Datastreams", "body": {
            "name": "d", "Thing": {"@iot.id": 1}, "Sensor": {"@iot.id": 1},
            "ObservedProperty": {"@iot.id": 1}}},
    ]),
)
_PAD = st.text(" \t\r", max_size=2)
# lines json.loads accepts: records, as ASCII or not, maybe with whitespace around
_GOOD = st.builds(lambda record, ascii, pad: pad[0] + json.dumps(record, ensure_ascii=ascii)
                  + pad[1], _RECORDS, st.booleans(), st.tuples(_PAD, _PAD))
_HOSTILE = st.one_of(
    st.sampled_from([
        "", "[1]", '"x"', "3", "null", "NaN", '{"op":"create"}', '{"op":"drop"}', '{"op":',
        '{"op":"observation","datastream_id":[1],"body":{"result":1},"time":"t"}',
        "[1,\n2]", '{"op":"create",\n"kind":"Sensors","body":{"name":"s"}}', "[" * 100_000,
        '\ufeff{"op":"create","kind":"Sensors","body":{"name":"s"}}',   # a BOM
        b"\xff\xfe",                                                  # not UTF-8
    ]),
    _GOOD.map(lambda line: line + line),            # two values on one line
    _GOOD.map(lambda line: line[:len(line) // 2]),  # cut short
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_GOOD, _GOOD, _GOOD, _HOSTILE), max_size=10),
       st.one_of(st.just(b""), st.binary(max_size=6), _GOOD.map(lambda line: line.encode("utf-8")[:-1])))
@example(lines=['  {"op":"create","kind":"Sensors","body":{"name":"s"}}\r', "[1,\n2]"], tail=b"")
@example(lines=['{"op":"observation","datastream_id":1,"body":{"result":NaN},"time":"t"}',
                '"x"'], tail=b'{"op"')
@example(lines=["[1]", '{"op":"create","kind":"Sensors","body":{"name":"s"}}'], tail=b"")
@example(lines=['{"op":', "[" * 100_000], tail=b"")     # the decoder runs into a deep line
def test_recover_matches_the_per_line_reference(lines, tail):
    """Replay with one decoder call per record on the whole text keeps,
    refuses and cuts exactly the lines that a ``json.loads`` per line does."""
    with tempfile.TemporaryDirectory() as tmp:
        seed = _seeded_journal(pathlib.Path(tmp) / "seed.jsonl")
        journal = seed + b"".join(
            (line if isinstance(line, bytes) else line.encode("utf-8")) + b"\n" for line in lines
        ) + tail
        path = pathlib.Path(tmp) / "journal.jsonl"
        expected = _replay_outcome(_recover_per_line, path, journal)
        assert _replay_outcome(sensorthings.Store.recover, path, journal) == expected


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
        conn.putrequest(method, sensorthings.ROOT + target)
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
        ("GET", sensorthings.ROOT + "/Observations?$top=0", None),
    ])
    assert [status for status, _, _ in replies] == [400, 200]


def test_get_with_a_body_keeps_the_connection_in_step(backend):
    replies = _on_one_connection(backend, [
        ("GET", sensorthings.ROOT + "/Things(1)", b'{"ignored":1}'),
        ("GET", sensorthings.ROOT + "/Things(1)", None),
    ])
    assert [status for status, _, _ in replies] == [200, 200]


@pytest.mark.parametrize("method", ["PUT", "DELETE"])
def test_other_methods_are_405_with_a_json_error(backend, method):
    replies = _on_one_connection(backend, [
        (method, sensorthings.ROOT + "/Things(1)", b"{}"),
        ("GET", sensorthings.ROOT + "/Things(1)", None),
    ])
    (status, headers, body), (follow_up, _, _) = replies
    assert (status, follow_up) == (405, 200)
    assert headers["Content-Type"] == "application/json"
    assert json.loads(body) == {"error": "method %s not allowed" % method}


def test_head_is_answered_without_a_body(backend):
    replies = _on_one_connection(backend, [
        ("HEAD", sensorthings.ROOT + "/Things(1)", None),
        ("GET", sensorthings.ROOT + "/Things(1)", None),
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
    assert reply == (400, json.dumps({"error": error}), None)


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


def test_stop_ends_the_serve_thread_and_closes_the_port(seeded_store):
    server = sensorthings.BackendServer(seeded_store).start()
    assert _request(server, "GET", "/Things(1)")[0] == 200
    server.stop()
    assert not server._thread.is_alive()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", server.port), timeout=2)


@pytest.mark.parametrize("path, body, link", [
    ("/Observations", {"result": 1, "Datastream": {"@iot.id": True}}, "Datastream"),
    ("/Datastreams", {"name": "d", "Thing": {"@iot.id": True}, "Sensor": {"@iot.id": 1},
                      "ObservedProperty": {"@iot.id": 1}}, "Thing"),
])
def test_boolean_link_ids_are_400(seeded_store, path, body, link):
    status, text, _ = sensorthings.respond(seeded_store, "POST", "/v1.0" + path,
                                           json.dumps(body).encode(), 0.0)
    assert (status, json.loads(text)) == (400, {"error": link + " link id must be a number"})
    assert seeded_store.count("Observations") == 0 and seeded_store.count("Datastreams") == 1


BOOLEAN_POINT = {"type": "Point", "coordinates": [True, False]}


@pytest.mark.parametrize("path, body", [
    ("/Locations", {"name": "l", "location": BOOLEAN_POINT}),
    ("/Things", {"name": "t", "Locations": [{"name": "l", "location": BOOLEAN_POINT}]}),
], ids=["location", "deep-insert"])
def test_boolean_coordinates_are_400(seeded_store, path, body):
    status, text, _ = sensorthings.respond(seeded_store, "POST", "/v1.0" + path,
                                           json.dumps(body).encode(), 0.0)
    assert (status, json.loads(text)) == (400, {"error": "coordinates must be [lon, lat] in range"})
    assert seeded_store.count("Locations") == 1 and seeded_store.count("Things") == 1


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
        ("POST", "%s/Datastreams(%s)/Observations" % (sensorthings.ROOT, LONG_ID), b'{"result":1}'),
        ("GET", "%s/Things(%s)" % (sensorthings.ROOT, LONG_ID), None),
        ("GET", sensorthings.ROOT + "/Things(1)", None),
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
LIMIT = http11.MAX_LINE + 1
HEAD = b"GET /v1.0 HTTP/1.1\r\n"


@pytest.mark.parametrize("request_bytes,status", [
    (b"G" * LIMIT, 400),
    (HEAD + b"X-Long: " + b"x" * (LIMIT - 8), 431),
    (HEAD + b"X-Many: 1\r\n" * (http11.MAX_HEADERS + 1), 431),
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
                        + b"X-Many: 1\r\n" * (http11.MAX_HEADERS - 1)
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


# Requests as a client might send them on one connection, each ending where
# the server stops reading it. A posted observation carries its times, so
# that its reply does not depend on when it was received.
TIMED = b'{"result":7,"phenomenonTime":"t","resultTime":"t"}'
RAW_REQUESTS = {
    "keep-alive-then-close": b"GET /v1.0/Things(1) HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
                             b"GET /v1.0/Sensors(1) HTTP/1.0\r\n\r\n",
    "pipelined": b"POST /v1.0/Observations HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
                 b"%sGET /v1.0/Observations(1) HTTP/1.1\r\nHost: x\r\n"
                 b"Connection: close\r\n\r\n" % (len(TIMED), TIMED),
    "expect-100-continue": b"POST /v1.0/Observations HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                           b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n%s"
                           % (len(TIMED), TIMED),
    "head": b"HEAD /v1.0/Things(1) HTTP/1.1\r\nConnection: close\r\n\r\n",
    "not-found": b"GET /v1.0/Things(9) HTTP/1.1\r\nConnection: close\r\n\r\n",
    "transfer-encoding": b"POST /v1.0/Observations HTTP/1.1\r\nHost: x\r\n"
                         b"Transfer-Encoding: chunked\r\n\r\n",
    "long-request-line": b"G" * LIMIT,
    "long-header-line": HEAD + b"X-Long: " + b"x" * (LIMIT - 8),
    "101-headers": HEAD + b"X-Many: 1\r\n" * (http11.MAX_HEADERS + 1),
    "no-version": b"GET /v1.0\r\n",
    "http-2": b"GET /v1.0 HTTP/2.0\r\n\r\n",
    "body-over-1-MiB": b"POST /v1.0/Observations HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n",
}
_DATE = re.compile(rb"Date: [^\r]*\r\n")


@pytest.mark.parametrize("request_bytes", RAW_REQUESTS.values(), ids=RAW_REQUESTS.keys())
def test_in_thread_answers_are_the_bytes_sent_over_tcp(backend, request_bytes):
    """``BackendServer.answer``, fed one connection's bytes in this thread,
    writes what the threaded handler sends over TCP, up to the Date."""
    over_tcp = _raw(backend, request_bytes)
    twin = sensorthings.BackendServer(sensorthings.Store())
    sensorthings.seed_default_entities(twin.store)
    rfile, wfile = io.BytesIO(request_bytes), io.BytesIO()
    while twin.answer(rfile, wfile):
        pass
    twin.stop()
    assert _DATE.sub(b"", wfile.getvalue()) == _DATE.sub(b"", over_tcp)


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
