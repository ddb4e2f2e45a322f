#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds sfbench from this checkout (into $CARGO_TARGET_DIR or .bench_build),
runs the workload with fixed work derived from --seconds, checks its
outputs, prints the run context and every metric with its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 1 reports the per-layer metrics instead (plus obs.overhead_frac
against an untraced run of the same seed). Exits non-zero, printing no
result, when the checkout cannot build or run the benchmark, and exits 1
after the result line when an output check failed.
"""

import argparse
import sys

sys.dont_write_bytecode = True

import harness  # noqa: E402  (after the bytecode switch)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--minimal", action="store_true",
                    help="smallest counts (self-test)")
    ap.add_argument("--flip-byte", action="store_true",
                    help="corrupt one checked output byte (self-test)")
    args = ap.parse_args()
    try:
        result = harness.run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.minimal,
                                      args.flip_byte)
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    harness.print_report(result)
    print(harness.result_line(result), flush=True)
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
