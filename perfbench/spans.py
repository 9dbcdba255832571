"""Span tracing from outside the program, and the per-layer figures.

``Tracer.install`` replaces public functions and methods of the layer modules
with timing wrappers and ``uninstall`` puts the originals back; nothing under
``src/`` changes. A span is (name, start, end, parent, thread). Spans of the
generator thread nest by call; spans on the backend's server thread have no
caller there, so they attach to the exchange span (``gateway.upstream`` or
``client.read``) open at the time, which is unambiguous because at most one
exchange is in flight. Spans stay in memory, in per-thread arrays, until
``write``.
"""

import gzip
import itertools
import json
import statistics
import threading
import time
from array import array
from collections import defaultdict

from iotpipe import coap, gateway as gw, link154, lowpan, node as nodemod, sensorthings, stack

# (owner, attribute, span name). Every call through these names is a span.
TARGETS = (
    (coap, "encode", "coap.encode"),
    (coap, "decode", "coap.decode"),
    (lowpan, "compress", "lowpan.compress"),
    (lowpan, "parse_datagram", "lowpan.parse_datagram"),
    (lowpan, "fragment", "lowpan.fragment"),
    (lowpan.Reassembler, "push", "lowpan.reassembly_push"),
    (link154, "crc16_kermit", "link154.crc"),
    (link154.LinkFrame, "serialize", "link154.serialize"),
    (link154.LinkFrame, "parse", "link154.parse"),
    (link154.LinkEndpoint, "send", "link154.send"),
    (stack.StackEndpoint, "send", "stack.send"),
    (stack.StackEndpoint, "receive", "stack.receive"),
    (nodemod.Node, "send_observation", "node.send_observation"),
    (gw.Gateway, "process_pending", "gateway.process_pending"),
    (gw, "translate_request", "gateway.translate"),
    (gw, "translate_response", "gateway.translate"),
    (sensorthings.Store, "ingest_observation", "sensorthings.ingest"),
    (sensorthings.Store, "query", "sensorthings.query"),
)


class _Table:
    """Spans one thread recorded, a compact array per column."""

    def __init__(self, main: bool):
        self.main = main
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.inner = array("d")    # time covered by child spans
        self.parent = array("q")   # -1: none
        self.own = array("q")
        self.root = array("q")     # the node or client span the work serves
        self.open = []             # (id, root) of the spans open on this thread

    def __len__(self):
        return len(self.own)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.tables = []
        self.keys = {}             # node span id -> (node, message id, token)
        self.kept = defaultdict(list)  # values the hooks below keep
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._exchange = (-1, -1)  # (id, root) of the open exchange span
        self._child_time = {}      # open span id -> time its finished children took
        self._saved = []
        self.active = False

    # -- recording ------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _table(self):
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = _Table(threading.get_ident() == self._main)
            self.tables.append(table)
        return table

    def call(self, name_id, fn, args, kwargs, exchange=False, hook=None):
        table = self._table()
        own = next(self._ids)
        if table.open:
            parent, root = table.open[-1]
        elif table.main:
            parent, root = -1, own
        else:
            parent, root = self._exchange
        table.open.append((own, root))
        if exchange:
            self._exchange = (own, root)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, own, args, result)
            return result
        finally:
            end = time.perf_counter()
            table.open.pop()
            if exchange:
                self._exchange = (-1, -1)
            # Children of one span never overlap (one exchange in flight, and
            # backend spans end before their reply is sent), so the time they
            # cover is the sum of their durations.
            inner = self._child_time.pop(own, 0.0)
            if parent >= 0:
                self._child_time[parent] = self._child_time.get(parent, 0.0) + end - start
            table.name.append(name_id)
            table.start.append(start)
            table.end.append(end)
            table.inner.append(inner)
            table.parent.append(parent)
            table.own.append(own)
            table.root.append(root)

    def _wrapper(self, name, fn):
        name_id = self._name_id(name)
        hook = _HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name_id, fn, args, kwargs, hook=hook)
        return traced

    def exchange(self, name, fn, *args, **kwargs):
        """Run ``fn`` as an exchange span that backend spans attach to."""
        if not self.active:
            return fn(*args, **kwargs)
        return self.call(self._name_id(name), fn, args, kwargs, exchange=True)

    def install(self):
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrapper(name, original.__func__))
            else:
                wrapped = self._wrapper(name, original)
            setattr(owner, attr, wrapped)
        self.active = True

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.active = False

    # -- analysis -------------------------------------------------------------

    def span_count(self) -> int:
        return sum(len(t) for t in self.tables)

    def times(self):
        """name -> (durations, self times), in seconds.

        A span's self time is its duration minus the time its children cover,
        whichever thread they ran on.
        """
        out = defaultdict(lambda: (array("d"), array("d")))
        for table in self.tables:
            for name_id, start, end, inner in zip(table.name, table.start, table.end,
                                                  table.inner):
                durations, selfs = out[self.names[name_id]]
                durations.append(end - start)
                selfs.append(end - start - inner)
        return out

    def write(self, path):
        """Write every span as one JSON line, gzip-compressed.

        Lines come per thread in the order spans ended. ``key`` is the
        observation key (node, message id, token) of the node span the work
        served; backend spans inherit it through their exchange.
        """
        keys = {root: json.dumps(list(key)) for root, key in self.keys.items()}
        line = ('{"id":%d,"name":"%s","start":%.7f,"end":%.7f,"parent":%s,'
                '"thread":"%s","key":%s}\n')
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for table in self.tables:
                thread = "main" if table.main else "server"
                for name_id, start, end, parent, own, root in zip(
                        table.name, table.start, table.end, table.parent, table.own,
                        table.root):
                    handle.write(line % (own, self.names[name_id], start, end,
                                         parent if parent >= 0 else "null", thread,
                                         keys.get(root, "null")))


def _node_hook(tracer, own, args, record):
    tracer.keys[own] = (args[0].node_id, record.message_id, record.token_hex)
    tracer.kept["node.attempts"].append(record.attempts)


# What the per-layer figures need from return values, beyond timing.
_HOOKS = {
    "node.send_observation": _node_hook,
    "lowpan.fragment": lambda tracer, own, args, fset: tracer.kept["lowpan.fragments"].append(
        len(fset.fragments)),
    "link154.send": lambda tracer, own, args, outcome: tracer.kept["link154.frame_bytes"].append(
        outcome.size),
    "gateway.process_pending": lambda tracer, own, args, handled: tracer.kept[
        "gateway.handled"].append(handled),
}


class TracedSession:
    """Session handed to ``Gateway(session=...)``: times each HTTP hop as a span."""

    def __init__(self, tracer, inner):
        self.tracer = tracer
        self.inner = inner

    def request(self, *args, **kwargs):
        return self.tracer.exchange("gateway.upstream", self.inner.request, *args, **kwargs)

    def close(self):
        self.inner.close()


def layer_metrics(tracer, delta, extra) -> dict:
    """Per-layer figures of the traced slices.

    ``delta`` holds the change of the program counters over those slices
    (``Fixture.counters``); ``extra`` holds (name, value, unit) figures
    measured outside the spans.
    """
    d = tracer.times()
    n_obs = len(d["node.send_observation"][0]) or 1
    kept = tracer.kept
    out = {}

    def add(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def calls(span):
        return len(d[span][0]) if span in d else 0

    def timed(prefix, span, self_time=False, per_obs=True):
        values = d[span][1 if self_time else 0] if span in d else ()
        add(prefix + "_us", median_us(values), "us")
        if per_obs:
            add((prefix[:-5] if self_time else prefix) + "_per_obs", calls(span) / n_obs,
                "calls/obs")

    def share(part, whole):
        return part / whole if whole else 0.0

    timed("coap.encode", "coap.encode")
    timed("coap.decode", "coap.decode")
    timed("lowpan.compress", "lowpan.compress")
    timed("lowpan.parse_datagram", "lowpan.parse_datagram")
    timed("lowpan.fragment", "lowpan.fragment")
    timed("lowpan.reassembly_push", "lowpan.reassembly_push")
    frags = kept["lowpan.fragments"]
    add("lowpan.frags_per_datagram", share(sum(frags), len(frags)), "frames")
    add("lowpan.reassembly_expired", delta["expired"], "count")
    timed("link154.serialize", "link154.serialize")
    timed("link154.parse", "link154.parse")
    crc_s = sum(d["link154.crc"][0]) if "link154.crc" in d else 0.0
    add("link154.crc_share", share(crc_s, sum(d["node.send_observation"][0])), "share")
    add("link154.crc_calls_per_obs", calls("link154.crc") / n_obs, "calls/obs")
    add("link154.frames_per_obs", len(kept["link154.frame_bytes"]) / n_obs, "frames/obs")
    add("link154.bytes_per_obs", sum(kept["link154.frame_bytes"]) / n_obs, "B/obs")
    add("link154.drop_share", share(delta["dropped"], delta["dropped"] + delta["delivered"]),
        "share")
    timed("stack.send_self", "stack.send", self_time=True)
    timed("stack.receive_self", "stack.receive", self_time=True)
    timed("node.self", "node.send_observation", self_time=True, per_obs=False)
    attempts = kept["node.attempts"]
    add("node.attempts_per_obs", share(sum(attempts), len(attempts)), "attempts")
    add("node.polls_per_obs", delta["polls"] / n_obs, "calls/obs")
    timed("gateway.upstream", "gateway.upstream")
    timed("gateway.translate", "gateway.translate")
    timed("gateway.self", "gateway.process_pending", self_time=True, per_obs=False)
    handled = kept["gateway.handled"]
    add("gateway.pumps_per_obs", calls("gateway.process_pending") / n_obs, "calls/obs")
    add("gateway.idle_pump_share", share(handled.count(0), len(handled)), "share")
    add("gateway.dedup_hits_per_obs", delta["dedup_hits"] / n_obs, "count/obs")
    add("gateway.forwarded_per_received", share(delta["forwarded"], delta["received"]), "share")
    timed("sensorthings.ingest", "sensorthings.ingest")
    timed("sensorthings.query", "sensorthings.query")
    add("sensorthings.http_overhead_us",
        median_us(d["gateway.upstream"][1] if "gateway.upstream" in d else ()), "us")
    add("sensorthings.journal_bytes_per_obs", delta["journal"] / n_obs, "B/obs")
    for name, value, unit in extra:
        add(name, value, unit)
    return out


def median_us(values) -> float:
    return statistics.median(values) * 1e6 if values else 0.0
