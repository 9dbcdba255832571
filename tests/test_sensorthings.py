import http.client
import json
import time

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


def test_rejected_post_path_keeps_the_connection_in_step(backend):
    conn = http.client.HTTPConnection("127.0.0.1", backend.port, timeout=5)
    try:
        conn.request("POST", "/wrong/Observations", body=b'{"result":1}',
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()
        assert response.status == 400
        conn.request("GET", backend.root + "/Observations?$top=0")
        response = conn.getresponse()
        response.read()
        assert response.status == 200
    finally:
        conn.close()


def test_http_observation_body_must_be_an_object(backend):
    response = requests.post(backend.base_url + "/Observations", json=[1])
    assert response.status_code == 400
    assert backend.store.count("Observations") == 0


def test_http_deeply_nested_body_is_400(backend):
    response = requests.post(backend.base_url + "/Observations", data=b"[" * 100_000)
    assert response.status_code == 400


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
