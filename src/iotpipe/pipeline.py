"""End-to-end pipeline orchestration.

Wires N simulated nodes through per-node links to one gateway process and
an embedded (or external) backend, runs under a virtual clock, and writes
run artifacts: send records, gateway metrics, journal, and a summary.
"""

import http.client
import json
import math
import os
from dataclasses import dataclass, field

from . import gateway as gw
from . import link154, node as nodemod, sensorthings, stack
from .clock import VirtualClock


@dataclass
class PipelineConfig:
    nodes: int = 1
    observations_per_node: int = 10
    period: float = 10.0
    loss_probability: float = 0.0
    seed: int = 0
    confirmable: bool = False
    max_retransmit: int = 4
    compress: bool = True
    backend_url: str = None        # attach instead of embedding when set
    artifacts_dir: str = None
    journal_path: str = None

    def __post_init__(self):
        for name in ("nodes", "observations_per_node", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError("%s must be an int, not %r" % (name, value))
        for name in ("period", "loss_probability"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError("%s must be a number, not %r" % (name, value))
            try:
                setattr(self, name, float(value))
            except OverflowError:
                raise ValueError("%s is out of range" % name) from None
        if self.nodes < 1 or self.observations_per_node < 1:
            raise ValueError("nodes and observations_per_node must be >= 1")
        if not 0 < self.period < math.inf:
            raise ValueError("period must be > 0 and finite, not %r" % self.period)
        if not 0 <= self.loss_probability <= 1:
            raise ValueError("loss_probability must be within [0, 1], not %r"
                             % self.loss_probability)
        if not isinstance(self.compress, bool):
            raise ValueError("compress must be true or false, not %r" % (self.compress,))
        if self.backend_url is not None:
            if not isinstance(self.backend_url, str):
                raise ValueError("backend_url must be a string, not %r" % (self.backend_url,))
            try:
                (scheme, host, _), _, _ = gw.split_url(self.backend_url)
            except (ValueError, http.client.InvalidURL) as exc:
                raise ValueError("backend_url %r: %s" % (self.backend_url, exc)) from None
            if scheme not in ("http", "https") or not host or not host.isascii():
                raise ValueError("backend_url must be an http or https URL with an ASCII host, "
                                 "not %r" % self.backend_url)
        nodemod.Reliability(self.confirmable, self.max_retransmit)  # checks max_retransmit
        # Receipts are stamped by the run's clock; a CON send may wait out every timeout.
        attempts = self.max_retransmit + 1 if self.confirmable else 0
        try:    # an int past every float overflows
            span = self.observations_per_node * (
                self.period + self.nodes * nodemod.ACK_TIMEOUT * (2.0 ** attempts - 1))
        except OverflowError:
            span = math.inf
        if span > sensorthings.LAST_TIME:
            raise ValueError("period, nodes, count and max_retransmit could take the run's "
                             "clock past the year 9999")


@dataclass
class PipelineResult:
    sent: int
    stored: int
    acked: int
    failed: int
    records_per_node: list
    gateway_metrics: dict
    summary: dict = field(default_factory=dict)

    @property
    def conserved(self) -> bool:
        return self.sent == self.stored == self.acked


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    clock = VirtualClock()

    if config.artifacts_dir:
        os.makedirs(os.path.join(config.artifacts_dir, "logs"), exist_ok=True)

    server = None
    if config.backend_url is None:
        journal = config.journal_path
        if journal is None and config.artifacts_dir:
            journal = os.path.join(config.artifacts_dir, "journal.jsonl")
        store = sensorthings.Store(journal_path=journal)
        sensorthings.seed_default_entities(store)
        server = sensorthings.BackendServer(store, clock=clock).start()
        base_url = server.base_url
    else:
        base_url = config.backend_url

    metrics_log = None
    gateways = []
    nodes = []
    try:
        stored_before = _observation_count(base_url)
        if config.artifacts_dir:
            metrics_log = open(
                os.path.join(config.artifacts_dir, "logs", "gateway-metrics.jsonl"),
                "w", encoding="utf-8",
            )
        for i in range(config.nodes):
            link = link154.SimulatedLink(link154.LinkConfig(
                loss_probability=config.loss_probability,
                seed=config.seed + i,
            ))
            node_ep = stack.StackEndpoint(
                link.endpoints[0], stack.node_stack_config(compress=config.compress)
            )
            gw_ep = stack.StackEndpoint(
                link.endpoints[1], stack.gateway_stack_config(compress=config.compress)
            )
            gateways.append(gw.Gateway(
                gw_ep,
                gw.UpstreamConfig(base_url=base_url),
                metrics_log=metrics_log,
            ))
            cfg = nodemod.NodeConfig(
                reliability=nodemod.Reliability(
                    confirmable=config.confirmable,
                    max_retransmit=config.max_retransmit,
                ),
                temperature=nodemod.FixedTemperature(2143),
            )
            nodes.append(nodemod.Node(cfg, node_ep, clock, node_id=i))

        def pump(now):
            for one in gateways:
                one.process_pending(now)

        for _ in range(config.observations_per_node):
            clock.sleep(config.period)
            for one in nodes:
                one.send_observation(pump=pump)
        stored = _observation_count(base_url) - stored_before
    finally:
        for one in gateways:
            one.session.close()
        if metrics_log:
            metrics_log.close()
        if server:
            server.stop()
            server.store.close()

    records = [one.records for one in nodes]
    all_records = [r for per_node in records for r in per_node]
    sent = len(all_records)
    acked = sum(1 for r in all_records if r.outcome == "acked" and r.response_code == "2.01")
    failed = sum(1 for r in all_records if r.outcome == "failed")

    summary = {
        "sent": sent,
        "stored": stored,
        "acked": acked,
        "failed": failed,
        "nodes": config.nodes,
        "seed": config.seed,
        "loss_probability": config.loss_probability,
        "mode": "CON" if config.confirmable else "NON",
        "conserved": sent == stored == acked,
    }
    result = PipelineResult(
        sent=sent,
        stored=stored,
        acked=acked,
        failed=failed,
        records_per_node=records,
        gateway_metrics=_merge_metrics(gateways),
        summary=summary,
    )
    if config.artifacts_dir:
        _write_artifacts(config, result)
    return result


def _observation_count(base_url: str) -> int:
    """The observations the backend at ``base_url`` holds. OSError when it cannot
    be reached, ``http.client.HTTPException`` when its reply is not HTTP or not
    a 200 JSON object with an integer @iot.count."""
    session = gw.HttpSession()  # closes itself if the request fails
    resp = session.request("GET", base_url + "/Observations?$top=0", timeout=5.0)
    session.close()
    try:
        count = json.loads(resp.content)["@iot.count"] if resp.status_code == 200 else None
    except (ValueError, TypeError, KeyError, RecursionError):   # not a JSON object
        count = None
    if not isinstance(count, int) or isinstance(count, bool):
        raise http.client.HTTPException("%s is not a SensorThings API: GET Observations got "
                                        "%d, no integer @iot.count" % (base_url, resp.status_code))
    return count


# Drop counters of each gateway's link-side endpoint, reported beside its metrics.
ENDPOINT_COUNTERS = ("link_errors", "lowpan_errors", "reassembly_expired")


def _merge_metrics(gateways) -> dict:
    """Gateway counters and their endpoints' drop counters, summed over all gateways."""
    merged = dict.fromkeys([*vars(gw.GatewayMetrics()), *ENDPOINT_COUNTERS], 0)
    for one in gateways:
        for key, value in vars(one.metrics).items():
            merged[key] += value
        for key in ENDPOINT_COUNTERS:
            merged[key] += getattr(one.endpoint, key)
    return merged


def _write_artifacts(config: PipelineConfig, result: PipelineResult):
    logs = os.path.join(config.artifacts_dir, "logs")
    for i, records in enumerate(result.records_per_node):
        path = os.path.join(logs, "sendrecords-node%d.jsonl" % i)
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(record.to_json() + "\n")
    with open(os.path.join(config.artifacts_dir, "summary.json"), "w",
              encoding="utf-8") as handle:
        json.dump({**result.summary, "gateway_metrics": result.gateway_metrics},
                  handle, indent=2)
        handle.write("\n")
