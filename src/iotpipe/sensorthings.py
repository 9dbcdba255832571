"""Minimal SensorThings-style REST backend.

Entity model (Thing, Location, Sensor, ObservedProperty, Datastream,
Observation), deep insert of Things with Locations, observation ingestion,
navigation reads, and an append-only JSON-lines journal for recovery.
Requests are answered by one function, ``respond``; the HTTP server only
reads and writes HTTP around it.
"""

import http.client
import json
import re
import socketserver
import threading
import time
import warnings
from datetime import datetime, timezone
from email.utils import formatdate
from http import HTTPStatus
from urllib.parse import parse_qsl


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

# entity navigation: (kind, property) -> (target kind, back-link). A property
# named after its target collection is plural. The store holds the linked ids
# of a navigation without a back-link; one with a back-link is found by
# scanning the target's back-link for the entity's id.
NAVIGATIONS = {
    ("Things", "Locations"): ("Locations", None),
    ("Things", "Datastreams"): ("Datastreams", "Thing"),
    ("Datastreams", "Observations"): ("Observations", "Datastream"),
    ("Datastreams", "Thing"): ("Things", None),
    ("Datastreams", "Sensor"): ("Sensors", None),
    ("Datastreams", "ObservedProperty"): ("ObservedProperties", None),
    ("Observations", "Datastream"): ("Datastreams", None),
}
_NAV_NAMES = {kind: [nav for src, nav in NAVIGATIONS if src == kind] for kind in KINDS}

ROOT = "/v1.0"
DEFAULT_TOP = 100
DEFAULT_DATASTREAM_ID = 1  # target of a bare /Observations POST

_PATH_RE = re.compile(r"^([A-Za-z]+)(?:\((\d+)\))?(?:/([A-Za-z]+))?$")


def format_time(epoch: float) -> str:
    dt = datetime.fromtimestamp(epoch, timezone.utc)
    return dt.isoformat(timespec="milliseconds").replace("+00:00", "Z")


def _entity_id(ident: str, missing):
    """The id a path names. An id with more digits than int() converts names
    no stored entity, and raises ``missing``."""
    try:
        return int(ident)
    except ValueError:
        raise missing("no entity has a %d-digit id" % len(ident))


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
    if not isinstance(ref["@iot.id"], (int, float)):
        raise ValidationError("%s link id must be a number" % key)
    return ref["@iot.id"]


class Store:
    """In-memory entity store with an optional append-only journal.

    Mutations serialize through one lock; reads see consistent snapshots.
    """

    def __init__(self, journal_path=None):
        self._entities = {kind: {} for kind in KINDS}  # kind -> id -> served fields
        # (kind, navigation) -> id -> linked id (or id list), for stored links
        self._links = {key: {} for key, (_target, back) in NAVIGATIONS.items() if back is None}
        self._lock = threading.RLock()
        self._journal_file = None
        self.journal_path = journal_path
        self.torn_bytes = 0   # bytes ``recover`` cut from a torn journal tail
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

    def _add(self, kind: str, fields: dict, **links) -> int:
        """Store one entity under the next id (ids ascend and are never reused)."""
        new_id = len(self._entities[kind]) + 1
        self._entities[kind][new_id] = fields
        for nav, linked in links.items():
            self._links[(kind, nav)][new_id] = linked
        return new_id

    # -- creation ----------------------------------------------------------

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
        coords = self._validate_location(body)
        return self._add("Locations", {
            "name": name,
            "description": body.get("description", ""),
            "encodingType": body.get("encodingType", "application/vnd.geo+json"),
            "location": {"type": "Point", "coordinates": list(coords)},
        })

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
            self._validate_location(loc)
        return self._add("Things", {
            "name": name,
            "description": body.get("description", ""),
            "properties": body.get("properties", {}),
        }, Locations=[self._create_location(loc) for loc in locations])

    def _validate_location(self, body) -> list:
        """The [lon, lat] of a GeoJSON Point location, checked for range."""
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
        return coords

    def _create_sensor(self, body) -> int:
        return self._add("Sensors", {
            "name": _require_str(body, "name"),
            "description": body.get("description", ""),
            "encodingType": body.get("encodingType", "application/pdf"),
            "metadata": body.get("metadata", ""),
        })

    def _create_observed_property(self, body) -> int:
        return self._add("ObservedProperties", {
            "name": _require_str(body, "name"),
            "definition": body.get("definition", ""),
            "description": body.get("description", ""),
        })

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
        if not isinstance(uom, dict):
            raise ValidationError("unitOfMeasurement must be an object")
        return self._add("Datastreams", {
            "name": name,
            "description": body.get("description", ""),
            "unitOfMeasurement": {
                "name": uom.get("name", ""),
                "symbol": uom.get("symbol", ""),
                "definition": uom.get("definition", ""),
            },
        }, Thing=thing_id, Sensor=sensor_id, ObservedProperty=op_id)

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
        return self._add("Observations", {
            "result": body["result"],
            "phenomenonTime": body.get("phenomenonTime", receipt_iso),
            "resultTime": body.get("resultTime", receipt_iso),
        }, Datastream=datastream_id)

    # -- queries -----------------------------------------------------------

    def _render(self, kind: str, ident: int) -> dict:
        self_link = "/%s(%d)" % (kind, ident)
        out = {"@iot.id": ident, "@iot.selfLink": self_link}
        out.update(self._entities[kind][ident])
        for nav in _NAV_NAMES[kind]:
            out[nav + "@iot.navigationLink"] = "%s/%s" % (self_link, nav)
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
        kind, ident, nav = match.groups()
        if kind not in KINDS:
            raise BadPath("unknown collection %r" % kind)
        with self._lock:
            if ident is None:
                if nav is not None:
                    raise BadPath("navigation needs an entity id")
                return self._collection(kind, list(self._entities[kind]), params)
            entity_id = _entity_id(ident, NotFound)
            if entity_id not in self._entities[kind]:
                raise NotFound("%s(%s) does not exist" % (kind, ident))
            if nav is None:
                return self._render(kind, entity_id)
            try:
                target, back = NAVIGATIONS[(kind, nav)]
            except KeyError:
                raise BadPath("no navigation %s under %s" % (nav, kind))
            if back is not None:
                ids = [i for i, owner in self._links[(target, back)].items() if owner == entity_id]
                return self._collection(target, ids, params)
            linked = self._links[(kind, nav)][entity_id]
            if nav == target:  # plural
                return self._collection(target, linked, params)
            return self._render(target, int(linked))  # a link posted as 1.0 names entity 1

    def _collection(self, kind: str, ids: list, params: dict) -> dict:
        # ids ascend: they are assigned in creation order, which dicts and lists keep
        try:
            top = int(params.get("$top", DEFAULT_TOP))
            skip = int(params.get("$skip", 0))
        except (TypeError, ValueError):
            raise BadPath("$top/$skip must be integers")
        if top < 0 or skip < 0:
            raise BadPath("$top/$skip must not be negative")
        return {
            "@iot.count": len(ids),
            "value": [self._render(kind, i) for i in ids[skip:skip + top]],
        }

    # -- persistence -------------------------------------------------------

    @classmethod
    def recover(cls, journal_path):
        """Rebuild a store by replaying the journal, then reopen it for append.

        A record is complete once its newline is written. A torn tail (bytes
        after the last newline) and an unparsable final record are dropped
        with a warning, and the file is cut back to the end of the last record
        replayed, so the next record starts on a line of its own;
        ``torn_bytes`` counts what was cut. Corruption before the final record
        raises CorruptJournal.
        """
        try:
            with open(journal_path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            raw = b""
        size, keep = len(raw), raw.rfind(b"\n") + 1   # keep: end of the last complete record
        try:
            text = raw[:keep].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptJournal("journal is not UTF-8: %s" % exc) from None
        del raw                         # the replay holds one copy of the journal
        lines = text.split("\n")
        del text
        lines.pop()                     # the empty string after the last newline
        store = cls(journal_path=None)
        for i, line in enumerate(lines):
            try:
                record = json.loads(line)
                store._apply(record)
            except (ValueError, KeyError, StError) as exc:
                if i < len(lines) - 1:
                    raise CorruptJournal("journal line %d unreadable: %s" % (i + 1, exc))
                warnings.warn("dropping unreadable final journal line %d: %s" % (i + 1, exc))
                keep -= len(line.encode("utf-8")) + 1
        store.journal_path = journal_path
        store._journal_file = open(journal_path, "a", encoding="utf-8")
        store.torn_bytes = size - keep
        if store.torn_bytes:
            warnings.warn("cut %d bytes of torn journal tail" % store.torn_bytes)
            store._journal_file.truncate(keep)
        return store

    def _apply(self, record: dict):
        op = record["op"]
        if op == "create":
            self.create_entity(record["kind"], record["body"], _journal=False)
        elif op == "observation":  # no lock: the store being recovered is not shared yet
            self._ingest(record["datastream_id"], record["body"], record["time"])
        else:
            raise CorruptJournal("unknown journal op %r" % op)


# -- requests ---------------------------------------------------------------


def respond(store: Store, method: str, target: str, body: bytes, now: float,
            root: str = ROOT):
    """Answer one request: (status, JSON object, Location or None).

    ``target`` is the request path with its query; ``now`` stamps the receipt
    time of an ingested observation. The HTTP handler and the gateway's
    in-process session both answer through here.
    """
    try:
        if method not in ("GET", "POST"):
            return 405, {"error": "method %s not allowed" % method}, None
        if method == "POST":
            try:
                body = json.loads(body)
            except (ValueError, RecursionError):  # RecursionError: nested too deep
                raise MalformedBody("request body is not valid JSON")
        path, _, query = target.partition("?")
        if path != root and not path.startswith(root + "/"):
            raise BadPath("paths are rooted at %s" % root)
        path = path[len(root):].strip("/")
        if method == "GET":
            if not path:
                return 200, {"value": [
                    {"name": kind, "url": root + "/" + kind} for kind in KINDS
                ]}, None
            return 200, store.query(path, dict(parse_qsl(query, keep_blank_values=True))), None
        match = _PATH_RE.match(path)
        if not match:
            raise BadPath("cannot parse path %r" % path)
        kind, ident, nav = match.groups()
        if ident is not None and nav == "Observations" and kind == "Datastreams":
            kind = "Observations"
            ds_id = _entity_id(ident, UnknownDatastream)
            new_id = store.ingest_observation(ds_id, body, receipt_time=now)
        elif ident is not None or nav is not None:
            raise BadPath("can only POST to a collection")
        elif kind == "Observations":
            # Short alias route used by the constrained node's POST.
            if not isinstance(body, dict):
                raise MalformedBody("observation body must be a JSON object")
            ds_id = _link_id(body, "Datastream") if "Datastream" in body else DEFAULT_DATASTREAM_ID
            body = {k: v for k, v in body.items() if k != "Datastream"}
            new_id = store.ingest_observation(ds_id, body, receipt_time=now)
        else:
            new_id = store.create_entity(kind, body)
        return (201, store.query("%s(%d)" % (kind, new_id)),
                "%s/%s(%d)" % (root, kind, new_id))
    except StError as exc:
        return exc.status, {"error": str(exc)}, None


# -- HTTP -------------------------------------------------------------------
# The backend speaks the HTTP/1.1 subset its clients use: a request line,
# header fields of which only four are read, and a Content-Length body. Each
# reply goes out in one write.

MAX_LINE = 65536        # bytes in any one line of a message head (both ends)
MAX_HEADERS = 100       # header fields in one message head (both ends)
MAX_BODY = 1 << 20      # bytes in one request body
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


class _TooManyFields(http.client.LineTooLong):
    def __init__(self):
        http.client.HTTPException.__init__(self, "more than %d header fields" % MAX_HEADERS)


def read_fields(rfile) -> dict:
    """Header (or trailer) fields up to the blank line that ends them, keyed
    by lower-case name; a repeated field's values are joined with ", ".

    Both ends of the upstream hop read every message head through here. A
    line over MAX_LINE bytes or more than MAX_HEADERS fields raise
    ``http.client.LineTooLong``; a line without a colon, whitespace before
    the colon (RFC 9112 section 5.1) or Content-Length values that differ
    raise ``http.client.HTTPException``; the end of the stream before the
    blank line raises ConnectionAbortedError.
    """
    fields = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise http.client.LineTooLong("header line")
        if line in (b"\r\n", b"\n"):
            return fields
        if not line:
            raise ConnectionAbortedError("peer closed the connection mid-head")
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name != name.strip():
            raise http.client.HTTPException("malformed header line %r" % line[:80])
        name, value = name.lower(), value.strip()
        old = fields.get(name)
        if old is None:
            fields[name] = value
        elif name == "content-length":
            if value != old:
                raise http.client.HTTPException("differing Content-Length values")
        else:
            fields[name] = old + ", " + value
    raise _TooManyFields()


def content_length(fields: dict):
    """The Content-Length of a message head as an int, or None without one;
    a value other than ASCII digits raises ``http.client.HTTPException``."""
    value = fields.get("content-length")
    if value is None:
        return None
    if value.isascii() and value.isdigit():
        try:
            return int(value)
        except ValueError:      # more digits than int() converts
            pass
    raise http.client.HTTPException("bad Content-Length %r" % value[:80])


def keeps_alive(version: bytes, fields: dict) -> bool:
    """Whether the connection stays open after a message of HTTP ``version``."""
    tokens = [token.strip() for token in fields.get("connection", "").lower().split(",")]
    if version == b"HTTP/1.1":
        return "close" not in tokens
    return "keep-alive" in tokens


class _Refused(Exception):
    """A request the handler answers itself with ``status``, then closes."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Handler(socketserver.StreamRequestHandler):
    """Answers the requests of one keep-alive connection through ``respond``."""

    timeout = None              # idle seconds before the connection is dropped
    disable_nagle_algorithm = True
    store = root = None         # set per server

    def handle(self):
        try:
            while self._serve_one():
                pass
        except (TimeoutError, ConnectionError):     # idle timeout, or the peer went away
            pass

    def _serve_one(self) -> bool:
        """Answer one request; False once the connection is to be closed."""
        line = self.rfile.readline(MAX_LINE + 1)
        if not line:
            return False
        now = time.time()
        try:
            method, target, keep_alive, body = self._read_request(line)
        except _Refused as exc:
            self._reply(now, exc.status, {"error": str(exc)}, None, keep_alive=False)
            return False
        status, obj, location = respond(self.store, method, target, body, now, self.root)
        self._reply(now, status, obj, location, keep_alive, with_body=method != "HEAD")
        return keep_alive

    def _read_request(self, line: bytes):
        """(method, target, keep-alive, body) of the request ``line`` begins."""
        if len(line) > MAX_LINE:
            raise _Refused(400, "request line over %d bytes" % MAX_LINE)
        parts = line.split()
        if len(parts) != 3 or not parts[2].startswith(b"HTTP/"):
            raise _Refused(400, "malformed request line")
        method, target, version = parts
        try:
            fields = read_fields(self.rfile)
            length = content_length(fields) or 0
        except http.client.LineTooLong as exc:
            raise _Refused(431, str(exc))
        except http.client.HTTPException as exc:
            raise _Refused(400, str(exc))
        if version not in (b"HTTP/1.1", b"HTTP/1.0"):
            raise _Refused(505, "HTTP version not supported")
        if "transfer-encoding" in fields:
            raise _Refused(501, "Transfer-Encoding is not supported")
        if length > MAX_BODY:
            raise _Refused(413, "request body over %d bytes" % MAX_BODY)
        if fields.get("expect", "").lower() == "100-continue":
            self.wfile.write(_CONTINUE)
        # Read the body of every method, so none is left in a keep-alive stream.
        body = self.rfile.read(length) if length else b""
        if len(body) < length:
            raise ConnectionAbortedError("peer closed the connection mid-body")
        return (method.decode("latin-1"), target.decode("latin-1"),
                keeps_alive(version, fields), body)

    def _reply(self, now, status, obj, location, keep_alive, with_body=True):
        body = json.dumps(obj).encode("utf-8")
        head = ("HTTP/1.1 %d %s\r\nContent-Type: application/json\r\n"
                "Content-Length: %d\r\nDate: %s\r\n") % (
            status, _REASONS.get(status, ""), len(body), self.server.http_date(now))
        if not keep_alive:
            head += "Connection: close\r\n"
        if location:
            head += "Location: %s\r\n" % location
        self.wfile.write((head + "\r\n").encode("latin-1") + (body if with_body else b""))


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    _date = (None, "")      # (epoch second, its IMF-fixdate)

    def http_date(self, now: float) -> str:
        """The Date field value for ``now`` (RFC 9110 section 6.6.1), formatted
        at most once per second."""
        second = int(now)
        if self._date[0] != second:
            self._date = (second, formatdate(second, usegmt=True))
        return self._date[1]


class BackendServer:
    """Threaded HTTP server wrapping one Store."""

    POLL_INTERVAL = 0.05  # s between serve_forever's shutdown checks; bounds stop()

    def __init__(self, store: Store, host: str = "127.0.0.1", port: int = 0,
                 root: str = ROOT):
        self.store = store
        self.root = "/" + root.strip("/")
        handler = type("Handler", (_Handler,), {"store": store, "root": self.root})
        self._httpd = _Server((host, port), handler)
        self._thread = None

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
