"""Closed-loop benchmark of the iotpipe telemetry pipeline.

    python3 perfbench/run.py --workload paper-non --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run instead. Lines before it are a readable report and
the run record. The exit code is 0 when every correctness check passed, 1
when one failed and 2 when the sources are missing or the arguments are bad.
See perfbench/README.md for the workloads, the metrics and known defects.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# The metrics of the last line, the ones the benchmark gates; README.md says
# why the report's other figures are not among them.
END_TO_END = ("setup_s", "obs_per_s", "obs_p50_ms", "obs_p90_ms", "op_mean_ms",
              "acked_share", "stored_ratio", "setup_rss_mb")
SIZE_TARGETS = {"COAP_6LOWPAN_154": 67, "COAP_UDP_IPV6_154": 106, "HTTP_TCP_IPV4_ETH": 236}
SIZE_NAMES = {"COAP_6LOWPAN_154": "6lowpan", "COAP_UDP_IPV6_154": "ipv6",
              "HTTP_TCP_IPV4_ETH": "http"}


def ref_loop_us(calls: int = 200) -> float:
    """Median µs of a fixed pure-Python loop: a gauge of how fast the host is now."""
    samples = []
    for _ in range(calls):
        t0 = time.perf_counter()
        acc = 0
        for i in range(2000):
            acc += i * i
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e6


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, requests_version: str) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    log = OUT / "runs.jsonl"
    previous = len(log.read_text().splitlines()) if log.exists() else 0
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "run_index": previous + 1,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(), "requests": requests_version,
        "commit": git_commit(), "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def sizebench_totals(sizebench, problems) -> dict:
    report = sizebench.run_default_bench()
    if not report.all_passed:
        problems.append("sizebench.run_default_bench() failed its target checks")
    totals = {b.variant: b.total for b in report.breakdowns}
    for variant, want in SIZE_TARGETS.items():
        if totals.get(variant) != want:
            problems.append("sizebench %s total %r != %d" % (variant, totals.get(variant), want))
    return {SIZE_NAMES[v]: totals.get(v) for v in SIZE_TARGETS}


def end_to_end(wl, run) -> dict:
    """name -> (value, unit, note) of every end-to-end figure the report prints."""
    obs = [ms for _p, ms in run.obs_ms]
    reads = [ms for _p, ms in run.read_ms]
    ops = obs + reads
    failed_share = run.failed() / max(1, run.attempted())
    if not obs:
        run.problems.append("no report was acked")
    if run.spec.reads and not reads:
        run.problems.append("no read succeeded")
    out = {
        "setup_s": (statistics.median(run.setup_s), "s",
                    "median of %d set-ups" % len(run.setup_s)),
        "obs_per_s": (run.acked / run.loop_s, "1/s",
                      "%d reports acked in %.2f s" % (run.acked, run.loop_s)),
        "obs_p50_ms": (wl.percentile(obs, 50), "ms", "n=%d" % len(obs)),
        "obs_p90_ms": (wl.percentile(obs, 90), "ms", "n=%d" % len(obs)),
        "op_mean_ms": (statistics.fmean(ops) if ops else 0.0, "ms",
                       "n=%d acked reports and 2xx reads" % len(ops)),
        "acked_share": (run.acked / run.sent if run.sent else 0.0, "share",
                        "%d of %d exchanges acked" % (run.acked, run.sent)),
        "stored_ratio": (run.stored / run.sent if run.sent else 0.0, "share",
                         "%d stored of %d sent" % (run.stored, run.sent)),
        "setup_rss_mb": (run.setup_rss_mb, "MB", "peak RSS when the first set-up ended"),
        "obs_mean_ms": (statistics.fmean(obs) if obs else 0.0, "ms", "n=%d" % len(obs)),
        "obs_p99_ms": (wl.percentile(obs, 99), "ms", "n=%d" % len(obs)),
        "op_p90_ms": (wl.percentile(ops, 90), "ms", "n=%d" % len(ops)),
    }
    if run.spec.reads:
        out.update({
            "read_mean_ms": (statistics.fmean(reads) if reads else 0.0, "ms",
                             "n=%d" % len(reads)),
            "read_p50_ms": (wl.percentile(reads, 50), "ms", "n=%d" % len(reads)),
            "read_p90_ms": (wl.percentile(reads, 90), "ms", "n=%d" % len(reads)),
            "read_p99_ms": (wl.percentile(reads, 99), "ms", "n=%d" % len(reads)),
        })
    out.update({
        "failed_share": (failed_share, "share",
                         "%d of %d operations" % (run.failed(), run.attempted())),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB", "peak RSS of the whole run"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "iotpipe" / "__init__.py").is_file():
        print("perfbench: no iotpipe sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import iotpipe
    if Path(iotpipe.__file__).resolve().parent != (src / "iotpipe").resolve():
        print("perfbench: iotpipe imported from %s, not %s" % (iotpipe.__file__, src),
              file=sys.stderr)
        return 2
    import requests
    from iotpipe import sizebench
    import spans
    import workloads as wl

    spec = wl.WORKLOADS.get(args.workload)
    if spec is None:
        print("perfbench: unknown workload %r (have %s)"
              % (args.workload, ", ".join(wl.WORKLOADS)), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    record = run_record(args, requests.__version__)
    inputs = wl.Inputs(spec, args.seed)
    ref_before = ref_loop_us()
    tracer = spans.Tracer() if args.trace else None
    session_factory = (lambda: spans.TracedSession(tracer, requests.Session())) if tracer else None
    run = wl.Run(spec, inputs, str(OUT), session_factory, tracer)
    run.loop(args.seconds)
    sizes = sizebench_totals(sizebench, run.problems)
    ref_after = ref_loop_us()

    report = end_to_end(wl, run)
    stop_s = statistics.median(run.stop_s)
    print("# run %s" % json.dumps(record))
    for name, (value, unit, note) in report.items():
        print("%-26s %14.6f %-6s %s" % (name, value, unit, note))
    print("%-26s %14.6f %-6s %s" % ("sensorthings.stop_s", stop_s, "s",
                                    "median of %d stops" % len(run.stop_s)))
    print("%-26s %14.1f %-6s before the run, %.1f after" % ("host.ref_loop_us", ref_before,
                                                             "us", ref_after))
    print("sizebench totals: 6lowpan %s, ipv6 %s, http %s B"
          % (sizes["6lowpan"], sizes["ipv6"], sizes["http"]))
    print("known defect, full 2.01 reply to a %d-B request raises DatagramTooLarge: %s"
          % (wl.BULK_MAX_PAYLOAD, {1: "yes", 0: "no"}.get(run.full_reply_defect, "not probed")))
    if run.errors:
        print("exceptions out of layer calls: %s" % json.dumps(run.errors))
        print(run.first_traceback.rstrip())
    for problem in run.problems[:20]:
        print("CHECK FAILED: %s" % problem)

    if tracer:
        traced, untraced = wl.median_ms(run.obs_ms, 1), wl.median_ms(run.obs_ms, 0)
        metrics = spans.layer_metrics(tracer, run.traced_counters, [
            ("sensorthings.stop_s", stop_s, "s"),
            ("gateway.oversize_reply_raises", run.full_reply_defect, "count"),
            *(("sizebench.total_bytes." + name, total, "B") for name, total in sizes.items()),
            ("trace.obs_p50_ms", traced, "ms"),
            ("trace.untraced_obs_p50_ms", untraced, "ms"),
            ("trace.overhead_ms", traced - untraced, "ms"),
            ("host.ref_loop_us", (ref_before + ref_after) / 2, "us"),
        ])
        trace_path = OUT / ("trace-%s-seed%d.jsonl.gz" % (spec.name, args.seed))
        tracer.write(trace_path)
        print("# spans: %d written to %s" % (tracer.span_count(), trace_path.relative_to(ROOT)))
        for name, metric in metrics.items():
            print("%-36s %14.6f %s" % (name, metric["value"], metric["unit"]))
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _note) in report.items() if name in END_TO_END}

    record.update(correct=not run.problems, attempted=run.attempted(), failed=run.failed(),
                  ref_loop_us=[ref_before, ref_after],
                  metrics={k: v["value"] for k, v in metrics.items()},
                  report={name: value for name, (value, _unit, _note) in report.items()})
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted(),
                      "failed": run.failed(), "metrics": metrics}))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
