"""Run the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/stability.py --workloads paper-non bulk-fcs --seeds 1-10

Runs are sequential. For every metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median; against the bound in BENCHMARK.json where there is one.
Raw results go to perfbench/out/stability-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    results = {}
    for workload in args.workloads:
        runs = results[workload] = []
        for seed in args.seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            result.update(seed=seed, exit=proc.returncode, wall_s=time.monotonic() - t0)
            runs.append(result)
            print("%s seed %d: exit %d, %.1f s, correct %s" % (
                workload, seed, proc.returncode, result["wall_s"], result.get("correct")),
                flush=True)
        report(workload, runs, bounds)
    out = ROOT / "perfbench" / "out" / ("stability-%d.json" % time.time())
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print("raw results: %s" % out.relative_to(ROOT))
    return 0


def report(workload, runs, bounds):
    names = sorted({n for r in runs for n in r.get("metrics", {})})
    print("\n%s (%d runs)" % (workload, len(runs)))
    print("  %-36s %12s %12s %12s %8s %8s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs if name in r.get("metrics", {})]
        if len(values) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print("  %-36s %12.5g %12.5g %12.5g %8.4f %8s %s" % (
            name, q2, q1, q3, spread, "" if bound is None else bound, flag))


if __name__ == "__main__":
    sys.exit(main())
