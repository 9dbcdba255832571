"""Command line entry point.

Subcommands: pipeline (end-to-end run), bench (size comparison), serve
(backend standalone), replay (journal -> served store), report (re-render a
summary from run artifacts).

Exit codes: 0 success, 1 assertion/conservation failure, 2 bad
configuration, 3 environment failure (bind, I/O, a backend that is not one).
"""

import argparse
import http.client
import json
import os
import sys
import time

from . import sensorthings, sizebench
from .pipeline import PipelineConfig, run_pipeline

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_ENVIRONMENT = 3


def _load_config(path, overrides):
    config = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                config = json.load(handle)
        except FileNotFoundError:
            raise ConfigError("config file %r not found" % path)
        except ValueError as exc:
            raise ConfigError("config file %r is not valid JSON: %s" % (path, exc))
        if not isinstance(config, dict):
            raise ConfigError("config file %r does not hold a JSON object" % path)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError("override %r is not key=value" % item)
        key, value = item.split("=", 1)
        try:
            config[key] = json.loads(value)
        except ValueError:
            config[key] = value
    return config


class ConfigError(Exception):
    pass


# config-file and -o keys -> PipelineConfig fields; each defaults to ``args.<key>``
CONFIG_KEYS = {"mode": "confirmable", "nodes": "nodes", "count": "observations_per_node",
               "period": "period", "loss": "loss_probability", "seed": "seed",
               "max_retransmit": "max_retransmit", "compress": "compress",
               "backend_url": "backend_url"}


def cmd_pipeline(args) -> int:
    values = {key: getattr(args, key) for key in CONFIG_KEYS}
    try:
        file_cfg = _load_config(args.config, args.override)
        unknown = sorted(set(file_cfg) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError("unknown config key(s): %s" % ", ".join(unknown))
        values.update(file_cfg)
        mode = str(values["mode"]).upper()
        if mode not in ("NON", "CON"):
            raise ConfigError("mode must be NON or CON")
        values["mode"] = mode == "CON"
        try:
            cfg = PipelineConfig(artifacts_dir=args.artifacts,
                                 **{CONFIG_KEYS[key]: value for key, value in values.items()})
        except ValueError as exc:
            raise ConfigError("bad config value: %s" % exc)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG

    print("pipeline: nodes=%d count=%d period=%ss loss=%s seed=%d mode=%s" % (
        cfg.nodes, cfg.observations_per_node, cfg.period, cfg.loss_probability,
        cfg.seed, "CON" if cfg.confirmable else "NON",
    ))
    try:
        result = run_pipeline(cfg)
    except (OSError, http.client.HTTPException) as exc:
        print("environment error: %s" % exc, file=sys.stderr)
        return EXIT_ENVIRONMENT
    print("summary: sent=%d stored=%d acked=%d failed=%d" % (
        result.sent, result.stored, result.acked, result.failed,
    ))
    if cfg.loss_probability == 0 and not result.conserved:
        print("conservation violated on a lossless run", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_bench(args) -> int:
    coap_path = sizebench.CALIBRATED_COAP_PATH
    if args.path:
        coap_path = tuple(s for s in args.path.strip("/").split("/") if s)
    report = sizebench.run_default_bench(coap_path=coap_path)
    rendered = sizebench.emit_report(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    print(rendered, end="")
    return EXIT_OK if report.all_passed else EXIT_ASSERTION


def cmd_serve(args) -> int:
    try:
        if args.journal and os.path.exists(args.journal):
            store = sensorthings.Store.recover(args.journal)
        else:
            store = sensorthings.Store(journal_path=args.journal)
            if args.seed_entities:
                sensorthings.seed_default_entities(store)
    except OSError as exc:
        print("environment error: %s" % exc, file=sys.stderr)
        return EXIT_ENVIRONMENT
    return _serve(store, args.port, "serving SensorThings API")


def cmd_replay(args) -> int:
    if not os.path.exists(args.journal):
        print("journal %r not found" % args.journal, file=sys.stderr)
        return EXIT_CONFIG
    try:
        store = sensorthings.Store.recover(args.journal)
    except sensorthings.CorruptJournal as exc:
        print("journal unreadable: %s" % exc, file=sys.stderr)
        return EXIT_ENVIRONMENT
    counts = {kind: store.count(kind) for kind in sensorthings.KINDS}
    print("recovered: " + " ".join("%s=%d" % kv for kv in counts.items()))
    if args.no_serve:
        store.close()
        return EXIT_OK
    return _serve(store, args.port, "serving recovered store")


def _serve(store, port: int, banner: str) -> int:
    """Serve ``store`` over HTTP until interrupted, then close it."""
    try:
        server = sensorthings.BackendServer(store, port=port)
    except OSError as exc:
        store.close()
        print("environment error: %s" % exc, file=sys.stderr)
        return EXIT_ENVIRONMENT
    server.start()
    print("%s at %s" % (banner, server.base_url))
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()
        store.close()
    return EXIT_OK


def cmd_report(args) -> int:
    logs = os.path.join(args.artifacts, "logs")
    summary_path = os.path.join(args.artifacts, "summary.json")
    if not os.path.isdir(logs) or not os.listdir(logs):
        print("no run artifacts found under %r" % args.artifacts, file=sys.stderr)
        return EXIT_CONFIG
    sent = acked = failed = 0
    per_node = {}
    for name in sorted(os.listdir(logs)):
        if not name.startswith("sendrecords-"):
            continue
        with open(os.path.join(logs, name), "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        per_node[name] = len(records)
        sent += len(records)
        acked += sum(1 for r in records if r["outcome"] == "acked")
        failed += sum(1 for r in records if r["outcome"] == "failed")
    print("records: sent=%d acked=%d failed=%d" % (sent, acked, failed))
    for name, count in per_node.items():
        print("  %s: %d" % (name, count))
    if os.path.exists(summary_path):
        with open(summary_path, "r", encoding="utf-8") as handle:
            stored = json.load(handle).get("stored")
        print("stored (from summary): %s" % stored)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iotpipe",
        description="Simulated CoAP/6LoWPAN sensor pipeline with a "
                    "SensorThings backend and a stack size benchmark.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("pipeline", help="run the end-to-end pipeline")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("-o", "--override", action="append",
                   help="key=value config override (repeatable)")
    p.add_argument("--nodes", type=int, default=1)
    p.add_argument("--count", type=int, default=10,
                   help="observations per node")
    p.add_argument("--period", type=float, default=10.0)
    p.add_argument("--loss", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["NON", "CON"], default="NON")
    p.add_argument("--max-retransmit", type=int, default=4)
    p.add_argument("--no-compress", dest="compress", action="store_false",
                   help="send uncompressed IPv6/UDP over the link")
    p.add_argument("--backend-url", help="attach to an external backend")
    p.add_argument("--artifacts", help="directory for logs and summary")
    p.set_defaults(func=cmd_pipeline)

    b = sub.add_parser("bench", help="per-layer size comparison")
    b.add_argument("--format", choices=["table", "json", "csv"], default="table")
    b.add_argument("--out", help="also write the report to a file")
    b.add_argument("--path", help="override the CoAP request path "
                                  "(non-calibrated paths are informational)")
    b.set_defaults(func=cmd_bench)

    s = sub.add_parser("serve", help="run the backend standalone")
    s.add_argument("--port", type=int, default=8080)
    s.add_argument("--journal", help="journal file (created or recovered)")
    s.add_argument("--seed-entities", action="store_true",
                   help="create the default Thing/Sensor/Datastream")
    s.set_defaults(func=cmd_serve)

    r = sub.add_parser("replay", help="recover a journal and serve it")
    r.add_argument("journal")
    r.add_argument("--port", type=int, default=8080)
    r.add_argument("--no-serve", action="store_true",
                   help="only print recovered entity counts")
    r.set_defaults(func=cmd_replay)

    t = sub.add_parser("report", help="re-render a summary from artifacts")
    t.add_argument("artifacts")
    t.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
