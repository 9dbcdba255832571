"""Workload definitions, seeded inputs, the closed-loop generator and its checks.

Everything here goes through the public constructors of the pipeline, the way
``iotpipe.pipeline.run_pipeline`` wires them: one ``sensorthings.Store`` and
``BackendServer``, and per node a ``link154.SimulatedLink``, two
``stack.StackEndpoint``s, a ``gateway.Gateway`` and a ``node.Node``. One
generator thread interleaves the nodes (and, on ``read-mix``, the reader), so
at most one exchange is in flight at any time.

A run is a series of epochs. Each builds a fresh fixture (its set-up is
timed), drives it for a fixed number of rounds or until the run's time is up,
checks its ledger and tears it down; set-up and teardown are not loop time.
The state every round sees, the size of the store above all, therefore does
not depend on how fast the rounds go. Each fixture's store starts by
replaying a copy of one journal, written once per run, that holds the seed
entities and the preloaded observations.
"""

import gc
import http.client
import json
import os
import random
import resource
import shutil
import statistics
import time
import traceback
import urllib.parse
from collections import Counter
from dataclasses import dataclass

from iotpipe import gateway as gw
from iotpipe import link154, lowpan, node as nodemod, sensorthings, stack
from iotpipe.clock import VirtualClock

# Largest observation payload the node stack accepts today: one byte more and
# ``lowpan.fragment`` raises DatagramTooLarge on the request. Fixed here, not
# probed, so that the bulk-fcs inputs stay the same when the stack changes.
BULK_MAX_PAYLOAD = 1377
PERIOD = 10.0                 # virtual seconds between rounds; costs no wall time
# Exchanges one report may take: when the node gives up on a CON exchange
# after its retransmissions, the sensor sends its next reading. At 30 % loss
# an exchange is given up one time in about 29, so a report fails to be
# acked in 8 exchanges about once in 10^12.
REPORT_EXCHANGES = 8
PRELOAD_EPOCH = 1.5e9         # receipt time of the first preloaded row
READ_PAGE = 100
# A traced run traces one slice of TRACE_SLICE seconds in every TRACE_EVERY:
# about 3 s of a 25-s run, enough for stable medians while the spans of the
# busiest workload (lossy-con, about 170k per traced second) stay in memory.
TRACE_SLICE = 0.5
TRACE_EVERY = 8


@dataclass(frozen=True)
class Workload:
    name: str
    # Rounds driven on one fixture before a fresh one: 9 to 17 epochs in a
    # 25-s run, each a sample of the set-up time.
    epoch_rounds: int
    nodes: int = 1
    confirmable: bool = False
    loss: float = 0.0
    profile: str = "calibrated"
    compact_acks: bool = False
    bulk: bool = False        # JSON-array payloads of seeded sizes
    preload: int = 0          # observations stored before the loop starts
    reads: bool = False       # one client read after every write


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("paper-non", epoch_rounds=1500),
    Workload("lossy-con", nodes=2, confirmable=True, loss=0.3, compact_acks=True,
             epoch_rounds=700),
    # Compact ACKs: a full 2.01 reply to a request above about 960 B raises
    # DatagramTooLarge in the gateway (README.md, known defects), and no
    # timed operation may fail. ``full_reply_defect`` keeps that defect in view.
    Workload("bulk-fcs", profile="extended", bulk=True, compact_acks=True, epoch_rounds=400),
    # 2k preloaded rows, not 10k: reads of a 10k-row store slowed by up to
    # 1.4x in the host's slow phases, against 1.3x at 2k (README.md,
    # Stability). 500 writes grow the store to 2.5k rows in every epoch.
    Workload("read-mix", preload=2_000, reads=True, epoch_rounds=500),
)}


def bulk_result(tag: int, size: int, rng: random.Random):
    """A result whose compact payload ``{"result":...}`` is ``size`` bytes.

    The 4-digit ``tag`` leads the value, so neighbouring observations differ.
    """
    room = size - len('{"result":}')
    if room <= 5:
        return tag * 10 ** (room - 4)
    values = [tag]
    inner = room - len("[1234]")
    while inner >= 5:
        values.append(rng.randint(1000, 9999))
        inner -= 5
    if inner == 1:
        values[0] = tag * 10
    elif inner:
        digits = inner - 1
        values.append(rng.randint(10 ** (digits - 1), 10 ** digits - 1))
    return values


class Inputs:
    """Everything a run draws from its seed, made before any set-up is timed."""

    def __init__(self, spec: Workload, seed: int):
        self.key = "%s/%d" % (spec.name, seed)
        rng = random.Random(self.key + "/inputs")
        # Results cycle through a shuffled permutation of the 4-digit numbers,
        # so two consecutive observations never carry the same result and a
        # plain reading is 15 B on the wire as in the paper.
        self.tags = list(range(1000, 10000))
        rng.shuffle(self.tags)
        # Bulk payload sizes cycle through a shuffled permutation of every
        # size, so each run holds the same mix of sizes.
        self.sizes = list(range(15, BULK_MAX_PAYLOAD + 1)) if spec.bulk else []
        rng.shuffle(self.sizes)
        self.preload = [rng.randint(1000, 9999) for _ in range(spec.preload)]

    def stream(self, name: str) -> random.Random:
        """A generator of its own for each consumer, so draws do not interleave."""
        return random.Random("%s/%s" % (self.key, name))


class Readings:
    """Observation results handed to the nodes, in order, across all epochs."""

    def __init__(self, inputs: Inputs):
        self._tags = inputs.tags
        self._sizes = inputs.sizes
        self._rng = inputs.stream("readings")
        self._count = 0
        self.last = None

    def next(self):
        tag = self._tags[self._count % len(self._tags)]
        if self._sizes:
            size = self._sizes[self._count % len(self._sizes)]
            self.last = bulk_result(tag, size, self._rng)
        else:
            self.last = tag
        self._count += 1
        return self.last


class Reader:
    """SensorThings client on one stdlib keep-alive connection."""

    def __init__(self, base_url: str):
        parts = urllib.parse.urlsplit(base_url)
        self.root = parts.path.rstrip("/")
        self.conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)

    def get(self, path: str):
        """Returns (status, body bytes)."""
        self.conn.request("GET", self.root + "/" + path)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def close(self):
        self.conn.close()


def write_base_journal(path: str, preload):
    """The journal every fixture's store replays: seed entities, then ``preload``."""
    store = sensorthings.Store(journal_path=path)
    sensorthings.seed_default_entities(store)
    for i, result in enumerate(preload):
        store.ingest_observation(1, {"result": result}, receipt_time=PRELOAD_EPOCH + i)
    store.close()


class _Fixed:
    """A reading source that always gives the same result."""

    def __init__(self, result):
        self.result = result

    def next(self):
        return self.result


def full_reply_defect(base_url: str) -> int:
    """1 while the gateway raises DatagramTooLarge on a full 2.01 reply to the
    largest request the node stack accepts (a known defect), 0 once it does not.

    One ``extended``-profile exchange on a path of its own, with full replies,
    against the backend at ``base_url``; the row it stores is not checked.
    """
    link = link154.SimulatedLink(link154.LinkConfig())
    node_ep = stack.StackEndpoint(link.endpoints[0], stack.node_stack_config(profile="extended"))
    gw_ep = stack.StackEndpoint(link.endpoints[1],
                                stack.gateway_stack_config(profile="extended"))
    gateway = gw.Gateway(gw_ep, gw.UpstreamConfig(base_url=base_url))
    result = bulk_result(1000, BULK_MAX_PAYLOAD, random.Random(0))
    probe = nodemod.Node(nodemod.NodeConfig(temperature=_Fixed(result)), node_ep,
                         VirtualClock())
    try:
        probe.send_observation(pump=gateway.process_pending)
    except lowpan.DatagramTooLarge:
        return 1
    finally:
        gateway.session.close()
    return 0


class Fixture:
    """One complete pipeline: store, server, links, gateways, nodes, reader.

    ``journal_path`` holds a copy of the base journal; the store replays it.
    """

    def __init__(self, spec: Workload, inputs: Inputs, epoch: int, readings: Readings,
                 journal_path: str, session_factory=None):
        self.spec = spec
        self.journal_path = journal_path
        self.store = sensorthings.Store.recover(journal_path)
        self.preloaded = inputs.preload
        self.server = sensorthings.BackendServer(self.store).start()
        self.clock = VirtualClock()
        self.readings = readings
        self.links, self.endpoints, self.gateways, self.nodes = [], [], [], []
        for i in range(spec.nodes):
            link = link154.SimulatedLink(link154.LinkConfig(
                loss_probability=spec.loss,
                seed=inputs.stream("link/%d/%d" % (epoch, i)).getrandbits(32),
            ))
            node_ep = stack.StackEndpoint(
                link.endpoints[0], stack.node_stack_config(profile=spec.profile))
            gw_ep = stack.StackEndpoint(
                link.endpoints[1], stack.gateway_stack_config(profile=spec.profile))
            self.gateways.append(gw.Gateway(
                gw_ep,
                gw.UpstreamConfig(base_url=self.server.base_url),
                mapping=gw.ProxyMapping(strip_success_bodies=spec.compact_acks),
                session=session_factory() if session_factory else None,
            ))
            self.nodes.append(nodemod.Node(nodemod.NodeConfig(
                period=PERIOD,
                reliability=nodemod.Reliability(confirmable=spec.confirmable),
                temperature=self.readings,
            ), node_ep, self.clock, node_id=i))
            self.links.append(link)
            self.endpoints += [node_ep, gw_ep]
        self.reader = Reader(self.server.base_url)
        self.polls = 0
        self.sends = []           # the ledger of this fixture, in send order

    def pump(self, now):
        self.polls += 1
        for one in self.gateways:
            one.process_pending(now)

    def counters(self) -> dict:
        """Program counters; a traced run takes their change over its traced slices."""
        metrics = [g.metrics for g in self.gateways]
        return {
            "dedup_hits": sum(m.dedup_hits for m in metrics),
            "received": sum(m.requests_received for m in metrics),
            "forwarded": sum(m.requests_forwarded for m in metrics),
            "delivered": sum(link.delivered for link in self.links),
            "dropped": sum(link.dropped for link in self.links),
            "expired": sum(ep.reassembly_expired for ep in self.endpoints),
            "polls": self.polls,
            "journal": os.path.getsize(self.journal_path),
        }

    def stop(self) -> float:
        """Tear down; returns the seconds ``BackendServer.stop()`` took."""
        self.reader.close()
        for one in self.gateways:
            one.session.close()
        t0 = time.perf_counter()
        self.server.stop()
        stop_s = time.perf_counter() - t0
        self.store.close()
        os.unlink(self.journal_path)
        return stop_s


@dataclass
class Send:
    result: object
    acked: bool


class Run:
    """Closed-loop generator over a series of fixtures, and the figures and
    checks of all of them.

    With a ``tracer`` the traced slices are spread evenly through the run,
    so that traced and untraced observations sample the same phases of the
    host; ``phase`` tags each latency 1 when traced.
    """

    def __init__(self, spec: Workload, inputs: Inputs, journal_dir, session_factory=None,
                 tracer=None):
        self.spec = spec
        self.inputs = inputs
        self.journal_dir = journal_dir
        self.session_factory = session_factory
        self.tracer = tracer
        self.readings = Readings(inputs)
        self.setup_s = []
        self.stop_s = []
        self.setup_rss_mb = 0.0
        self.reports = 0          # operations: a reading sent until one exchange is acked
        self.report_failures = 0
        self.sent = 0             # exchanges
        self.acked = 0
        self.stored = 0
        self.obs_ms = []          # (phase, ms) of acked reports
        self.read_ms = []         # (phase, ms) of successful reads
        self.reads = 0
        self.read_failures = 0
        self.errors = {}          # exception type -> count
        self.first_traceback = ""
        self.problems = []        # failed correctness checks
        self.loop_s = 0.0
        self.full_reply_defect = None
        self.traced_counters = Counter()  # change of Fixture.counters over traced slices
        self._before = None
        self._slices = 0
        self._read_rng = inputs.stream("reads")

    # -- generator ------------------------------------------------------------

    def loop(self, seconds: float):
        """Run epochs until the loop has run ``seconds`` in all."""
        base = os.path.join(self.journal_dir, "base-%d.jsonl" % os.getpid())
        write_base_journal(base, self.inputs.preload)
        try:
            while self.loop_s < seconds:
                fx = self._setup(base)
                try:
                    self._drive(fx, seconds - self.loop_s)
                finally:
                    try:
                        self.check_ledger(fx)
                        if self.full_reply_defect is None:
                            self.full_reply_defect = full_reply_defect(fx.server.base_url)
                    finally:
                        self.stop_s.append(fx.stop())
                        del fx
        finally:
            os.unlink(base)

    def _setup(self, base: str) -> Fixture:
        epoch = len(self.setup_s)
        journal = os.path.join(self.journal_dir, "journal-%d-%d.jsonl" % (os.getpid(), epoch))
        shutil.copyfile(base, journal)
        # Every set-up starts from the same heap: the last fixture's store is
        # freed, and no collection it left due falls inside the timing.
        gc.collect()
        t0 = time.perf_counter()
        fx = Fixture(self.spec, self.inputs, epoch, self.readings, journal,
                     self.session_factory)
        self.setup_s.append(time.perf_counter() - t0)
        if epoch == 0:
            self.setup_rss_mb = peak_rss_mb()
        if self.tracer:
            tracer, inner_get = self.tracer, fx.reader.get
            fx.reader.get = lambda path: tracer.exchange("client.read", inner_get, path)
        return fx

    def _drive(self, fx: Fixture, seconds: float):
        start = time.perf_counter()
        slice_end = start
        try:
            for _round in range(self.spec.epoch_rounds):
                now = time.perf_counter()
                if now - start >= seconds:
                    break
                if self.tracer and now >= slice_end:
                    if self.tracer.active != (self._slices % TRACE_EVERY == 0):
                        self._toggle(fx)
                    self._slices += 1
                    slice_end = now + TRACE_SLICE
                fx.clock.sleep(PERIOD)
                for node in fx.nodes:
                    self._observe(fx, node)
                    if fx.spec.reads:
                        self._mixed_read(fx)
        finally:
            if self.tracer and self.tracer.active:
                self._toggle(fx)
            self.loop_s += time.perf_counter() - start

    def _toggle(self, fx: Fixture):
        if self.tracer.active:
            self.tracer.uninstall()
            for name, value in fx.counters().items():
                self.traced_counters[name] += value - self._before[name]
        else:
            self._before = fx.counters()
            self.tracer.install()

    @property
    def phase(self) -> int:
        return int(bool(self.tracer and self.tracer.active))

    def _count_error(self, exc):
        name = type(exc).__name__
        self.errors[name] = self.errors.get(name, 0) + 1
        if not self.first_traceback:
            self.first_traceback = traceback.format_exc()

    def _observe(self, fx: Fixture, node):
        """One report: the node sends readings until an exchange is acked.

        An exchange the node gave up on (outcome ``failed``: no reply after
        its retransmissions) is followed by the next reading, as a sensor
        would send it; its time counts towards the report's latency. An
        exception, an error reply or running out of exchanges fails the report.
        """
        self.reports += 1
        t0 = time.perf_counter()
        for _exchange in range(REPORT_EXCHANGES):
            self.sent += 1
            try:
                record = node.send_observation(pump=fx.pump)
            except Exception as exc:  # a layer failed: count it, keep the loop going
                self._count_error(exc)
                fx.sends.append(Send(fx.readings.last, False))
                break
            acked = record.outcome == "acked"
            fx.sends.append(Send(record.result, acked))
            if acked:
                self.acked += 1
                self.obs_ms.append((self.phase, (time.perf_counter() - t0) * 1e3))
                return
            if record.outcome != "failed":
                self.errors["outcome " + record.outcome] = (
                    self.errors.get("outcome " + record.outcome, 0) + 1)
                break
        self.report_failures += 1

    def _timed_read(self, fx: Fixture, path: str):
        """Returns the decoded body of a 2xx read, or None after counting a failure."""
        self.reads += 1
        t0 = time.perf_counter()
        try:
            status, body = fx.reader.get(path)
        except (OSError, http.client.HTTPException) as exc:
            self._count_error(exc)
            fx.reader.conn.close()
            status = None
        elapsed = time.perf_counter() - t0
        if status is None or not 200 <= status < 300:
            self.read_failures += 1
            return None
        self.read_ms.append((self.phase, elapsed * 1e3))
        return json.loads(body)

    def _mixed_read(self, fx: Fixture):
        count = fx.store.count("Observations")
        kind = self._read_rng.randrange(3)
        if kind == 0:
            skip = max(0, count - READ_PAGE)
            page = self._timed_read(
                fx, "Datastreams(1)/Observations?$top=%d&$skip=%d" % (READ_PAGE, skip))
            if page is None:
                return
            if page["@iot.count"] != count:
                self.problems.append("@iot.count %d != store count %d"
                                     % (page["@iot.count"], count))
            elif page["value"] and page["value"][-1]["result"] != _expected(fx, count):
                self.problems.append("newest page ends with a wrong result")
        elif kind == 1:
            ident = self._read_rng.randint(1, count)
            entity = self._timed_read(fx, "Observations(%d)" % ident)
            if entity is not None and entity["result"] != _expected(fx, ident):
                self.problems.append("Observations(%d) holds a wrong result" % ident)
        else:
            page = self._timed_read(fx, "Things(1)/Locations")
            if page is not None and page["@iot.count"] != 1:
                self.problems.append("Things(1)/Locations count %d != 1" % page["@iot.count"])

    # -- checks ---------------------------------------------------------------

    def check_ledger(self, fx: Fixture):
        """Match the rows a fixture stored to its sends.

        The replayed preload must come first, unchanged. Rows are stored in
        send order and neighbouring sends never share a result, so each later
        row is matched to the next send with its result; a row matching the
        send before it is a duplicate.
        """
        sends = fx.sends
        rows = fx.store.query("Datastreams(1)/Observations",
                              {"$top": fx.store.count("Observations")})["value"]
        preload = len(fx.preloaded)
        if [row["result"] for row in rows[:preload]] != fx.preloaded:
            self.problems.append("the replayed preload differs from the preload written")
        matched = set()
        last = None
        j = 0
        for row in rows[preload:]:
            if last is not None and sends[last].result == row["result"]:
                self.problems.append("result of send %d stored twice" % last)
                continue
            while j < len(sends) and sends[j].result != row["result"]:
                j += 1
            if j == len(sends):
                self.problems.append("row %d matches no send" % row["@iot.id"])
                break
            matched.add(j)
            last = j
            j += 1
        stored = len(matched)
        acked = sum(1 for s in sends if s.acked)
        unstored_acks = sum(1 for i, s in enumerate(sends) if s.acked and i not in matched)
        if unstored_acks:
            self.problems.append("%d acked sends were not stored" % unstored_acks)
        if not acked <= stored <= len(sends):
            self.problems.append("ledger: acked %d, stored %d, sent %d"
                                 % (acked, stored, len(sends)))
        if fx.spec.loss == 0 and stored != len(sends):
            self.problems.append("lossless: stored %d != sent %d" % (stored, len(sends)))
        if fx.spec.loss == 0 and acked != len(sends):
            self.problems.append("lossless: acked %d != sent %d" % (acked, len(sends)))
        self.stored += stored

    # -- figures --------------------------------------------------------------

    def failed(self) -> int:
        return self.report_failures + self.read_failures

    def attempted(self) -> int:
        return self.reports + self.reads


def _expected(fx: Fixture, ident: int):
    """Result stored under observation id ``ident`` of a lossless fixture."""
    preload = fx.preloaded
    if ident <= len(preload):
        return preload[ident - 1]
    return fx.sends[ident - len(preload) - 1].result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def median_ms(samples, phase: int) -> float:
    values = [ms for p, ms in samples if p == phase]
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
