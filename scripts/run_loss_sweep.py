#!/usr/bin/env python3
"""Sweep link loss probabilities and compare NON vs CON delivery.

Each cell runs one seeded single-node pipeline and reports how many of the
sent observations reached the backend store.
"""

import argparse

from iotpipe.pipeline import PipelineConfig, run_pipeline


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=50,
                        help="observations per run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--losses", type=float, nargs="+",
                        default=[0.0, 0.1, 0.2, 0.3, 0.4])
    args = parser.parse_args()

    print("%-8s %12s %12s" % ("loss", "NON stored", "CON stored"))
    for loss in args.losses:
        row = []
        for confirmable in (False, True):
            result = run_pipeline(PipelineConfig(
                nodes=1,
                observations_per_node=args.count,
                loss_probability=loss,
                seed=args.seed,
                confirmable=confirmable,
            ))
            row.append("%d/%d" % (result.stored, result.sent))
        print("%-8.2f %12s %12s" % (loss, row[0], row[1]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
