"""Minimal SensorThings-style REST backend.

Entity model (Thing, Location, Sensor, ObservedProperty, Datastream,
Observation), deep insert of Things with Locations, observation ingestion,
navigation reads, and an append-only JSON-lines journal for recovery.
Requests are answered by one function, ``respond``. ``BackendServer``
serves it through ``http11.Server``, which only reads and writes HTTP
around it, in a thread per connection or, for a client in the same
process, in the client's thread.
"""

import json
import re
import threading
import warnings
from datetime import datetime, timezone
from urllib.parse import parse_qsl

from . import http11


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

# entity navigation: (kind, property) -> target kind. A property named after
# its target collection is plural. The store holds the linked ids of every
# navigation; Things/Datastreams and Datastreams/Observations list the ids of
# the entities whose Thing or Datastream link names the owner, appended as
# those entities are created.
NAVIGATIONS = {
    ("Things", "Locations"): "Locations",
    ("Things", "Datastreams"): "Datastreams",
    ("Datastreams", "Observations"): "Observations",
    ("Datastreams", "Thing"): "Things",
    ("Datastreams", "Sensor"): "Sensors",
    ("Datastreams", "ObservedProperty"): "ObservedProperties",
    ("Observations", "Datastream"): "Datastreams",
}
_NAV_NAMES = {kind: [nav for src, nav in NAVIGATIONS if src == kind] for kind in KINDS}

ROOT = "/v1.0"
DEFAULT_TOP = 100
DEFAULT_DATASTREAM_ID = 1  # target of a bare /Observations POST

_PATH_RE = re.compile(r"^([A-Za-z]+)(?:\((\d+)\))?(?:/([A-Za-z]+))?$")

LAST_TIME = 253402300799.0     # 9999-12-31T23:59:59Z: format_time formats no later time


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
    if not isinstance(ref["@iot.id"], (int, float)) or isinstance(ref["@iot.id"], bool):
        raise ValidationError("%s link id must be a number" % key)
    return ref["@iot.id"]


class Store:
    """In-memory entity store with an optional append-only journal.

    Mutations serialize through one lock; reads see consistent snapshots.
    An entity never changes once created, so its JSON text is cached the
    first time it is rendered, and a page is joined from cached texts.
    """

    def __init__(self, journal_path=None):
        self._entities = {kind: {} for kind in KINDS}  # kind -> id -> served fields
        self._texts = {kind: {} for kind in KINDS}     # kind -> id -> rendered JSON text
        # (kind, navigation) -> id -> linked id, or the ascending list of linked ids
        self._links = {key: {} for key in NAVIGATIONS}
        # what ``_ingest`` writes, bound once: it runs per POST and per replayed row
        self._observations = self._entities["Observations"]
        self._observation_datastream = self._links[("Observations", "Datastream")]
        self._datastream_observations = self._links[("Datastreams", "Observations")]
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
        }, Locations=[self._create_location(loc) for loc in locations], Datastreams=[])

    def _validate_location(self, body) -> list:
        """The [lon, lat] of a GeoJSON Point location, checked for range."""
        location = body.get("location")
        if not isinstance(location, dict) or location.get("type") != "Point":
            raise ValidationError("location must be a GeoJSON Point")
        coords = location.get("coordinates")
        if (
            not isinstance(coords, (list, tuple))
            or len(coords) != 2
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in coords)
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
        new_id = self._add("Datastreams", {
            "name": name,
            "description": body.get("description", ""),
            "unitOfMeasurement": {
                "name": uom.get("name", ""),
                "symbol": uom.get("symbol", ""),
                "definition": uom.get("definition", ""),
            },
        }, Thing=thing_id, Sensor=sensor_id, ObservedProperty=op_id, Observations=[])
        self._links[("Things", "Datastreams")][thing_id].append(new_id)
        return new_id

    _creators = {
        "Things": _create_thing,
        "Locations": _create_location,
        "Sensors": _create_sensor,
        "ObservedProperties": _create_observed_property,
        "Datastreams": _create_datastream,
    }

    # -- observations ------------------------------------------------------

    def ingest_observation(self, datastream_id, body, receipt_time: float) -> int:
        """Store one observation; server assigns times when omitted."""
        receipt_iso = format_time(receipt_time)
        with self._lock:
            new_id = self._ingest(datastream_id, body, receipt_iso)
            self._journal({
                "op": "observation",
                "datastream_id": datastream_id,
                "body": body,
                "time": receipt_iso,
            })
            return new_id

    def _ingest(self, datastream_id, body, receipt_iso: str) -> int:
        try:    # a link posted as 1.0 finds the list of entity 1
            listed = self._datastream_observations.get(datastream_id)
        except TypeError:       # an unhashable id, read from a journal record
            listed = None
        if listed is None:
            raise UnknownDatastream("no datastream %r" % (datastream_id,))
        if not isinstance(body, dict) or "result" not in body:
            raise MalformedBody("observation body must contain a result")
        rows = self._observations
        new_id = len(rows) + 1
        rows[new_id] = {
            "result": body["result"],
            "phenomenonTime": body.get("phenomenonTime", receipt_iso),
            "resultTime": body.get("resultTime", receipt_iso),
        }
        self._observation_datastream[new_id] = datastream_id
        listed.append(new_id)
        return new_id

    # -- queries -----------------------------------------------------------

    def _render(self, kind: str, ident: int) -> dict:
        self_link = "/%s(%d)" % (kind, ident)
        out = {"@iot.id": ident, "@iot.selfLink": self_link}
        out.update(self._entities[kind][ident])
        for nav in _NAV_NAMES[kind]:
            out[nav + "@iot.navigationLink"] = "%s/%s" % (self_link, nav)
        return out

    def _text(self, kind: str, ident: int) -> str:
        # Unlocked: two readers may both render an entity, and both store
        # the same text.
        texts = self._texts[kind]
        text = texts.get(ident)
        if text is None:
            text = texts[ident] = json.dumps(self._render(kind, ident))
        return text

    def count(self, kind: str) -> int:
        return len(self._entities[kind])

    def query(self, path: str, params: dict = None):
        """The entity or page a path names, as a dict (see ``_resolve``)."""
        kind, count, ids = self._resolve(path, params or {})
        if count is None:
            return self._render(kind, ids[0])
        return {"@iot.count": count, "value": [self._render(kind, i) for i in ids]}

    def read(self, path: str, params: dict = None) -> str:
        """``json.dumps(self.query(path, params))``, joined from cached texts."""
        kind, count, ids = self._resolve(path, params or {})
        if count is None:
            return self._text(kind, ids[0])
        return '{"@iot.count": %d, "value": [%s]}' % (
            count, ", ".join([self._text(kind, i) for i in ids]))

    def _resolve(self, path: str, params: dict):
        """(kind, count, ids) of a navigation path: Collection, Collection(id),
        or Collection(id)/Navigation, with $top/$skip pagination. ``count`` is
        the @iot.count of a collection and ``ids`` its page; for a single
        entity ``count`` is None and ``ids`` holds its id."""
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
                # ids are dense: assigned from 1 up and never reused
                return kind, *_page(range(1, len(self._entities[kind]) + 1), params)
            entity_id = _entity_id(ident, NotFound)
            if entity_id not in self._entities[kind]:
                raise NotFound("%s(%s) does not exist" % (kind, ident))
            if nav is None:
                return kind, None, (entity_id,)
            try:
                target = NAVIGATIONS[(kind, nav)]
            except KeyError:
                raise BadPath("no navigation %s under %s" % (nav, kind))
            linked = self._links[(kind, nav)][entity_id]
            if nav == target:  # plural
                return target, *_page(linked, params)
            return target, None, (int(linked),)  # a link posted as 1.0 names entity 1

    # -- persistence -------------------------------------------------------

    @classmethod
    def recover(cls, journal_path):
        """Rebuild a store by replaying the journal, then reopen it for append.

        A record is complete once its newline is written. A torn tail (bytes
        after the last newline) and an unparsable final record are dropped
        with a warning, and the file is cut back to the end of the last record
        replayed, so the next record starts on a line of its own;
        ``torn_bytes`` counts what was cut. Corruption before the final record
        raises CorruptJournal; a record nested too deep to decode counts as
        unparsable.
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
        # One decoder call per record on the whole text. A value is taken only
        # when it ends at its line's newline; any other line is parsed again
        # on its own, so a line is accepted exactly when json.loads accepts it.
        decode = json.JSONDecoder().raw_decode
        store = cls(journal_path=None)
        apply = store._apply
        pos = lineno = 0
        while pos < len(text):
            eol = text.index("\n", pos)
            lineno += 1
            try:
                try:
                    record, end = decode(text, pos)
                except (ValueError, RecursionError):    # may have run past the line
                    end = -1
                if end != eol:
                    record = json.loads(text[pos:eol])
                apply(record)
            except (ValueError, KeyError, StError, RecursionError) as exc:
                if eol + 1 < len(text):
                    raise CorruptJournal("journal line %d unreadable: %s" % (lineno, exc))
                warnings.warn("dropping unreadable final journal line %d: %s" % (lineno, exc))
                keep -= len(text[pos:eol].encode("utf-8")) + 1
            pos = eol + 1
        store.journal_path = journal_path
        store._journal_file = open(journal_path, "a", encoding="utf-8")
        store.torn_bytes = size - keep
        if store.torn_bytes:
            warnings.warn("cut %d bytes of torn journal tail" % store.torn_bytes)
            store._journal_file.truncate(keep)
        return store

    def _apply(self, record: dict):
        if not isinstance(record, dict):
            raise CorruptJournal("journal record is not a JSON object")
        op = record["op"]
        if op == "create":
            self.create_entity(record["kind"], record["body"], _journal=False)
        elif op == "observation":  # no lock: the store being recovered is not shared yet
            self._ingest(record["datastream_id"], record["body"], record["time"])
        else:
            raise CorruptJournal("unknown journal op %r" % op)


def _page(ids, params: dict):
    """(@iot.count, page) of the ascending ``ids`` under $top/$skip."""
    try:
        top = int(params.get("$top", DEFAULT_TOP))
        skip = int(params.get("$skip", 0))
    except (TypeError, ValueError):
        raise BadPath("$top/$skip must be integers")
    if top < 0 or skip < 0:
        raise BadPath("$top/$skip must not be negative")
    return len(ids), ids[skip:skip + top]


# -- requests ---------------------------------------------------------------


_ROOT_LISTING = json.dumps({"value": [{"name": kind, "url": ROOT + "/" + kind} for kind in KINDS]})


def respond(store: Store, method: str, target: str, body: bytes, now: float):
    """Answer one request: (status, JSON text of the reply body, Location or None).

    ``target`` is the request path with its query; ``now`` stamps the receipt
    time of an ingested observation. The HTTP server answers through here,
    on either transport, and encodes no JSON itself. A GET body is
    ``json.dumps`` of what ``Store.query`` returns for the path, but joined
    from cached entity texts, so a page costs O(page) whatever the store's
    size. The 201 reply to a POST renders the new entity, which fills its
    cache entry.
    """
    try:
        if method not in ("GET", "POST"):
            return 405, http11.error_json("method %s not allowed" % method), None
        if method == "POST":
            try:
                body = json.loads(body)
            except (ValueError, RecursionError):  # RecursionError: nested too deep
                raise MalformedBody("request body is not valid JSON")
        path, _, query = target.partition("?")
        if path != ROOT and not path.startswith(ROOT + "/"):
            raise BadPath("paths are rooted at %s" % ROOT)
        path = path[len(ROOT):].strip("/")
        if method == "GET":
            if not path:
                return 200, _ROOT_LISTING, None
            return 200, store.read(path, dict(parse_qsl(query, keep_blank_values=True))), None
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
        return (201, store.read("%s(%d)" % (kind, new_id)),
                "%s/%s(%d)" % (ROOT, kind, new_id))
    except StError as exc:
        return exc.status, http11.error_json(str(exc)), None


class BackendServer(http11.Server):
    """``http11.Server`` answering through ``respond`` on one Store."""

    def __init__(self, store: Store, host: str = "127.0.0.1", port: int = 0, clock=None):
        # ``respond`` is looked up per request, so that a patched one answers
        super().__init__(lambda *request: respond(store, *request), host, port, clock)
        self.store = store

    @property
    def base_url(self) -> str:
        return "http://%s:%d%s" % (self.address[0], self.port, ROOT)


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
