"""Minimal SensorThings-style REST backend.

Entity model (Thing, Location, Sensor, ObservedProperty, Datastream,
Observation), deep insert of Things with Locations, observation ingestion,
navigation reads, and an append-only JSON-lines journal for recovery.
"""

import json
import re
import threading
import warnings
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StError(Exception):
    status = 500


class ValidationError(StError):
    status = 400


class BrokenReference(StError):
    status = 400


class MalformedBody(StError):
    status = 400


class UnknownDatastream(StError):
    status = 404


class NotFound(StError):
    status = 404


class BadPath(StError):
    status = 400


class CorruptJournal(StError):
    pass


KINDS = (
    "Things",
    "Locations",
    "Sensors",
    "ObservedProperties",
    "Datastreams",
    "Observations",
)

# entity navigation: (kind, property) -> (target kind, link field, plural)
NAVIGATIONS = {
    ("Things", "Locations"): ("Locations", "location_ids", True),
    ("Things", "Datastreams"): ("Datastreams", None, True),
    ("Datastreams", "Observations"): ("Observations", None, True),
    ("Datastreams", "Thing"): ("Things", "thing_id", False),
    ("Datastreams", "Sensor"): ("Sensors", "sensor_id", False),
    ("Datastreams", "ObservedProperty"): ("ObservedProperties", "observed_property_id", False),
    ("Observations", "Datastream"): ("Datastreams", "datastream_id", False),
}

DEFAULT_TOP = 100

_PATH_RE = re.compile(r"^([A-Za-z]+)(?:\((\d+)\))?(?:/([A-Za-z]+))?$")


def format_time(epoch: float) -> str:
    dt = datetime.fromtimestamp(epoch, timezone.utc)
    return dt.isoformat(timespec="milliseconds").replace("+00:00", "Z")


def _require_str(body, key):
    value = body.get(key)
    if not isinstance(value, str) or not value:
        raise ValidationError("missing or empty %r" % key)
    return value


def _link_id(body, key):
    """Resolve an inline entity link of the form {"Thing": {"@iot.id": 3}}."""
    ref = body.get(key)
    if not isinstance(ref, dict) or "@iot.id" not in ref:
        raise ValidationError("missing %s link" % key)
    return ref["@iot.id"]


class Store:
    """In-memory entity store with an optional append-only journal.

    Mutations serialize through one lock; reads see consistent snapshots.
    """

    def __init__(self, journal_path=None, default_datastream_id=1):
        self._entities = {kind: {} for kind in KINDS}
        self._next_id = {kind: 1 for kind in KINDS}
        self._lock = threading.RLock()
        self._journal_file = None
        self.journal_path = journal_path
        self.default_datastream_id = default_datastream_id
        if journal_path is not None:
            self._journal_file = open(journal_path, "a", encoding="utf-8")

    def close(self):
        if self._journal_file:
            self._journal_file.close()
            self._journal_file = None

    def _journal(self, record: dict):
        if self._journal_file:
            self._journal_file.write(json.dumps(record, separators=(",", ":")) + "\n")
            self._journal_file.flush()

    def _assign_id(self, kind: str) -> int:
        new_id = self._next_id[kind]
        self._next_id[kind] = new_id + 1
        return new_id

    # -- creation ----------------------------------------------------------

    def observation_target(self, body) -> int:
        """Datastream id for a bare /Observations POST: explicit link or default."""
        if isinstance(body, dict) and "Datastream" in body:
            return _link_id(body, "Datastream")
        return self.default_datastream_id

    def create_entity(self, kind: str, body, _journal=True):
        """Create one entity (deep insert supported for Things); returns id."""
        if kind not in KINDS or kind == "Observations":
            raise BadPath("cannot create entities in %r" % kind)
        if not isinstance(body, dict):
            raise MalformedBody("entity body must be a JSON object")
        with self._lock:
            new_id = self._creators[kind](self, body)
            if _journal:
                self._journal({"op": "create", "kind": kind, "body": body})
            return new_id

    def _create_location(self, body) -> int:
        name = _require_str(body, "name")
        location = body.get("location")
        if not isinstance(location, dict) or location.get("type") != "Point":
            raise ValidationError("location must be a GeoJSON Point")
        coords = location.get("coordinates")
        if (
            not isinstance(coords, (list, tuple))
            or len(coords) != 2
            or not all(isinstance(c, (int, float)) for c in coords)
            or not -180 <= coords[0] <= 180
            or not -90 <= coords[1] <= 90
        ):
            raise ValidationError("coordinates must be [lon, lat] in range")
        new_id = self._assign_id("Locations")
        self._entities["Locations"][new_id] = {
            "id": new_id,
            "name": name,
            "description": body.get("description", ""),
            "encoding_type": body.get("encodingType", "application/vnd.geo+json"),
            "location": {"type": "Point", "coordinates": list(coords)},
        }
        return new_id

    def _create_thing(self, body) -> int:
        name = _require_str(body, "name")
        locations = body.get("Locations", [])
        if not isinstance(locations, list):
            raise ValidationError("Locations must be a list")
        # Validate children before assigning any id so a bad child rolls the
        # whole deep insert back.
        for loc in locations:
            if not isinstance(loc, dict):
                raise ValidationError("each Location must be an object")
            _require_str(loc, "name")
            probe = dict(loc)
            self._validate_location(probe)
        location_ids = [self._create_location(loc) for loc in locations]
        new_id = self._assign_id("Things")
        self._entities["Things"][new_id] = {
            "id": new_id,
            "name": name,
            "description": body.get("description", ""),
            "properties": body.get("properties", {}),
            "location_ids": location_ids,
        }
        return new_id

    def _validate_location(self, body):
        location = body.get("location")
        if not isinstance(location, dict) or location.get("type") != "Point":
            raise ValidationError("location must be a GeoJSON Point")
        coords = location.get("coordinates")
        if (
            not isinstance(coords, (list, tuple))
            or len(coords) != 2
            or not all(isinstance(c, (int, float)) for c in coords)
            or not -180 <= coords[0] <= 180
            or not -90 <= coords[1] <= 90
        ):
            raise ValidationError("coordinates must be [lon, lat] in range")

    def _create_sensor(self, body) -> int:
        name = _require_str(body, "name")
        new_id = self._assign_id("Sensors")
        self._entities["Sensors"][new_id] = {
            "id": new_id,
            "name": name,
            "description": body.get("description", ""),
            "encoding_type": body.get("encodingType", "application/pdf"),
            "metadata": body.get("metadata", ""),
        }
        return new_id

    def _create_observed_property(self, body) -> int:
        name = _require_str(body, "name")
        new_id = self._assign_id("ObservedProperties")
        self._entities["ObservedProperties"][new_id] = {
            "id": new_id,
            "name": name,
            "definition": body.get("definition", ""),
            "description": body.get("description", ""),
        }
        return new_id

    def _create_datastream(self, body) -> int:
        name = _require_str(body, "name")
        thing_id = _link_id(body, "Thing")
        sensor_id = _link_id(body, "Sensor")
        op_id = _link_id(body, "ObservedProperty")
        if thing_id not in self._entities["Things"]:
            raise BrokenReference("unknown Thing %r" % thing_id)
        if sensor_id not in self._entities["Sensors"]:
            raise BrokenReference("unknown Sensor %r" % sensor_id)
        if op_id not in self._entities["ObservedProperties"]:
            raise BrokenReference("unknown ObservedProperty %r" % op_id)
        uom = body.get("unitOfMeasurement", {})
        new_id = self._assign_id("Datastreams")
        self._entities["Datastreams"][new_id] = {
            "id": new_id,
            "name": name,
            "description": body.get("description", ""),
            "unit_of_measurement": {
                "name": uom.get("name", ""),
                "symbol": uom.get("symbol", ""),
                "definition": uom.get("definition", ""),
            },
            "thing_id": thing_id,
            "sensor_id": sensor_id,
            "observed_property_id": op_id,
        }
        return new_id

    _creators = {
        "Things": _create_thing,
        "Locations": _create_location,
        "Sensors": _create_sensor,
        "ObservedProperties": _create_observed_property,
        "Datastreams": _create_datastream,
    }

    # -- observations ------------------------------------------------------

    def ingest_observation(self, datastream_id, body, receipt_time: float,
                           _journal=True) -> int:
        """Store one observation; server assigns times when omitted."""
        receipt_iso = format_time(receipt_time)
        with self._lock:
            new_id = self._ingest(datastream_id, body, receipt_iso)
            if _journal:
                self._journal({
                    "op": "observation",
                    "datastream_id": datastream_id,
                    "body": body,
                    "time": receipt_iso,
                })
            return new_id

    def _ingest(self, datastream_id, body, receipt_iso: str) -> int:
        if datastream_id not in self._entities["Datastreams"]:
            raise UnknownDatastream("no datastream %r" % datastream_id)
        if not isinstance(body, dict) or "result" not in body:
            raise MalformedBody("observation body must contain a result")
        phenomenon = body.get("phenomenonTime", receipt_iso)
        result_time = body.get("resultTime", receipt_iso)
        new_id = self._assign_id("Observations")
        self._entities["Observations"][new_id] = {
            "id": new_id,
            "datastream_id": datastream_id,
            "result": body["result"],
            "phenomenon_time": phenomenon,
            "result_time": result_time,
        }
        return new_id

    # -- queries -----------------------------------------------------------

    def _render(self, kind: str, entity: dict) -> dict:
        out = {"@iot.id": entity["id"], "@iot.selfLink": "/%s(%d)" % (kind, entity["id"])}
        hidden = {"id", "location_ids", "thing_id", "sensor_id",
                  "observed_property_id", "datastream_id"}
        rename = {
            "encoding_type": "encodingType",
            "unit_of_measurement": "unitOfMeasurement",
            "phenomenon_time": "phenomenonTime",
            "result_time": "resultTime",
        }
        for key, value in entity.items():
            if key in hidden:
                continue
            out[rename.get(key, key)] = value
        for (src, nav), _target in NAVIGATIONS.items():
            if src == kind:
                out["%s@iot.navigationLink" % nav] = "/%s(%d)/%s" % (kind, entity["id"], nav)
        return out

    def count(self, kind: str) -> int:
        return len(self._entities[kind])

    def query(self, path: str, params: dict = None):
        """Resolve a navigation path: Collection, Collection(id), or
        Collection(id)/Navigation, with $top/$skip pagination."""
        params = params or {}
        match = _PATH_RE.match(path.strip("/"))
        if not match:
            raise BadPath("cannot parse path %r" % path)
        kind, ident, nav = match.group(1), match.group(2), match.group(3)
        if kind not in KINDS:
            raise BadPath("unknown collection %r" % kind)
        with self._lock:
            if ident is None:
                if nav is not None:
                    raise BadPath("navigation needs an entity id")
                return self._collection(kind, self._entities[kind].values(), params)
            entity = self._entities[kind].get(int(ident))
            if entity is None:
                raise NotFound("%s(%s) does not exist" % (kind, ident))
            if nav is None:
                return self._render(kind, entity)
            try:
                target, link, plural = NAVIGATIONS[(kind, nav)]
            except KeyError:
                raise BadPath("no navigation %s under %s" % (nav, kind))
            if not plural:
                linked = self._entities[target].get(entity[link])
                if linked is None:
                    raise NotFound("dangling %s link" % nav)
                return self._render(target, linked)
            if link is not None:
                rows = [self._entities[target][i] for i in entity[link]]
            else:
                back = {"Datastreams": "thing_id", "Observations": "datastream_id"}[target]
                rows = [e for e in self._entities[target].values() if e[back] == entity["id"]]
            return self._collection(target, rows, params)

    def _collection(self, kind: str, rows, params: dict) -> dict:
        rows = sorted(rows, key=lambda e: e["id"])
        try:
            top = int(params.get("$top", DEFAULT_TOP))
            skip = int(params.get("$skip", 0))
        except (TypeError, ValueError):
            raise BadPath("$top/$skip must be integers")
        page = rows[skip:skip + top]
        return {
            "@iot.count": len(rows),
            "value": [self._render(kind, e) for e in page],
        }

    # -- persistence -------------------------------------------------------

    @classmethod
    def recover(cls, journal_path, default_datastream_id=1):
        """Rebuild a store by replaying the journal, then reopen it for append.

        A truncated or unparsable final line is dropped with a warning;
        corruption before the final line raises CorruptJournal.
        """
        try:
            with open(journal_path, "r", encoding="utf-8") as handle:
                lines = handle.read().split("\n")
        except FileNotFoundError:
            lines = []
        if lines and lines[-1] == "":
            lines.pop()
        store = cls(journal_path=None, default_datastream_id=default_datastream_id)
        for i, line in enumerate(lines):
            try:
                record = json.loads(line)
                store._apply(record)
            except (ValueError, KeyError, StError) as exc:
                if i == len(lines) - 1:
                    warnings.warn(
                        "dropping truncated journal tail line %d: %s" % (i + 1, exc)
                    )
                    break
                raise CorruptJournal("journal line %d unreadable: %s" % (i + 1, exc))
        store.journal_path = journal_path
        store._journal_file = open(journal_path, "a", encoding="utf-8")
        return store

    def _apply(self, record: dict):
        op = record["op"]
        if op == "create":
            self.create_entity(record["kind"], record["body"], _journal=False)
        elif op == "observation":
            ds_id = record["datastream_id"]
            body = record["body"]
            receipt_iso = record["time"]
            with self._lock:
                self._ingest(ds_id, body, receipt_iso)
        else:
            raise CorruptJournal("unknown journal op %r" % op)


# -- HTTP layer -------------------------------------------------------------


def _make_handler(store: Store, root: str):
    root = "/" + root.strip("/")

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def log_message(self, fmt, *args):
            pass

        def _reply(self, status, obj, location=None):
            body = json.dumps(obj).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if location:
                self.send_header("Location", location)
            self.end_headers()
            self.wfile.write(body)

        def _strip_root(self):
            path, _, query = self.path.partition("?")
            if path != root and not path.startswith(root + "/"):
                raise BadPath("paths are rooted at %s" % root)
            params = {}
            for pair in query.split("&"):
                if "=" in pair:
                    key, value = pair.split("=", 1)
                    params[key] = value
            return path[len(root):].strip("/"), params

        def do_GET(self):
            try:
                path, params = self._strip_root()
                if not path:
                    self._reply(200, {"value": [
                        {"name": kind, "url": root + "/" + kind} for kind in KINDS
                    ]})
                    return
                self._reply(200, store.query(path, params))
            except StError as exc:
                self._reply(exc.status, {"error": str(exc)})

        def do_POST(self):
            try:
                path, _params = self._strip_root()
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                try:
                    body = json.loads(raw)
                except ValueError:
                    raise MalformedBody("request body is not valid JSON")
                match = _PATH_RE.match(path)
                if not match:
                    raise BadPath("cannot parse path %r" % path)
                kind, ident, nav = match.group(1), match.group(2), match.group(3)
                if ident is not None and nav == "Observations" and kind == "Datastreams":
                    new_id = store.ingest_observation(
                        int(ident), body, receipt_time=_now()
                    )
                    self._reply(201, store.query("Observations(%d)" % new_id),
                                location="%s/Observations(%d)" % (root, new_id))
                    return
                if ident is not None or nav is not None:
                    raise BadPath("can only POST to a collection")
                if kind == "Observations":
                    # Short alias route used by the constrained node's POST.
                    ds_id = store.observation_target(body)
                    clean = {k: v for k, v in body.items() if k != "Datastream"}
                    new_id = store.ingest_observation(ds_id, clean, receipt_time=_now())
                    self._reply(201, store.query("Observations(%d)" % new_id),
                                location="%s/Observations(%d)" % (root, new_id))
                    return
                new_id = store.create_entity(kind, body)
                self._reply(201, store.query("%s(%d)" % (kind, new_id)),
                            location="%s/%s(%d)" % (root, kind, new_id))
            except StError as exc:
                self._reply(exc.status, {"error": str(exc)})

    return Handler


def _now() -> float:
    import time

    return time.time()


class BackendServer:
    """Threaded HTTP server wrapping one Store."""

    POLL_INTERVAL = 0.05  # s between serve_forever's shutdown checks; bounds stop()

    def __init__(self, store: Store, host: str = "127.0.0.1", port: int = 0,
                 root: str = "/v1.0"):
        self.store = store
        self._httpd = ThreadingHTTPServer((host, port), _make_handler(store, root))
        self._httpd.daemon_threads = True
        self._thread = None
        self.root = "/" + root.strip("/")

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def base_url(self) -> str:
        return "http://%s:%d%s" % (
            self._httpd.server_address[0], self.port, self.root
        )

    def start(self):
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        args=(self.POLL_INTERVAL,), daemon=True)
        self._thread.start()
        return self

    def stop(self):
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread:
            self._thread.join(timeout=5)


def seed_default_entities(store: Store) -> int:
    """Thing, Sensor, ObservedProperty and Datastream the pipeline posts to.

    Returns the datastream id.
    """
    thing_id = store.create_entity("Things", {
        "name": "RIOT Alpha",
        "description": "IoT sensor node",
        "properties": {
            "owner": "iNET RG, HAW Hamburg",
            "device": "Phytec phyNODE",
            "operating system": "RIOT-OS",
        },
        "Locations": [{
            "name": "BT7-R580A",
            "description": "Office",
            "encodingType": "application/vnd.geo+json",
            "location": {"type": "Point", "coordinates": [10.022993, 53.557189]},
        }],
    })
    sensor_id = store.create_entity("Sensors", {
        "name": "Onboard temperature sensor",
        "description": "Digital temperature sensor on the node board",
        "encodingType": "application/pdf",
        "metadata": "datasheet",
    })
    prop_id = store.create_entity("ObservedProperties", {
        "name": "Temperature",
        "definition": "http://qudt.org/vocab/quantitykind/Temperature",
        "description": "Ambient temperature",
    })
    return store.create_entity("Datastreams", {
        "name": "Office temperature",
        "description": "Periodic temperature readings",
        "unitOfMeasurement": {
            "name": "centidegree Celsius",
            "symbol": "c°C",
            "definition": "hundredths of a degree Celsius",
        },
        "Thing": {"@iot.id": thing_id},
        "Sensor": {"@iot.id": sensor_id},
        "ObservedProperty": {"@iot.id": prop_id},
    })
