#!/usr/bin/env python3
"""Per-metric comparison of two result sets of the repository benchmark.

Run two checkouts alternately (one run of each in turn, the order
flipping every seed) and store every result line:

    python3 perfbench/compare.py run --a DIR_A --b DIR_B \
        --workloads synth_paper,explore_grid --seeds 1-10 --out runs.jsonl

DIR_A and DIR_B may be the same checkout (a steadiness check); without
--b only set A runs. Then
compare the two sets:

    python3 perfbench/compare.py report runs.jsonl

For every workload and end-to-end metric it prints each set's median and
quartiles (statistics.quantiles, n=4), the spread (quartile distance over
the median), the delta of B against A in the metric's own direction, and
whether the sets agree within the metric's bound from BENCHMARK.json:
both spreads within the bound (setup_s exempt) and B no worse than A by
more than the bound. A report with only set A prints its spreads.
"""

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True

import harness  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_one(checkout, workload, seed, seconds):
    cmd = [sys.executable, str(Path(checkout) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return res.returncode, result


def cmd_run(args):
    sets = [("A", args.a)] + ([("B", args.b)] if args.b else [])
    with open(args.out, "a") as out:
        for workload in args.workloads.split(","):
            for i, seed in enumerate(parse_seeds(args.seeds)):
                for label, checkout in (sets if i % 2 == 0 else sets[::-1]):
                    code, result = run_one(checkout, workload, seed,
                                           args.seconds)
                    out.write(json.dumps({"set": label, "workload": workload,
                                          "seed": seed, "exit": code,
                                          "result": result}) + "\n")
                    out.flush()
                    state = "ok" if code == 0 and result else f"exit {code}"
                    print(f"{workload} seed {seed} set {label}: {state}",
                          file=sys.stderr)
    return 0


def spread(values):
    q1, q2, q3 = harness.quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(a, b, better):
    """How much worse B is than A, as a share of A (negative = better)."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def cmd_report(args):
    spec = harness.benchmark_spec()
    values = defaultdict(lambda: defaultdict(list))
    bad = 0
    for line in Path(args.results).read_text().splitlines():
        row = json.loads(line)
        result = row["result"]
        if row["exit"] != 0 or not result or not result["correct"]:
            bad += 1
            continue
        for name, m in result["metrics"].items():
            values[(row["workload"], name)][row["set"]].append(m["value"])
    workloads = sorted({w for w, _ in values},
                       key=lambda w: harness.WORKLOADS.index(w))
    all_agree = True
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':14} {'set':3} {'n':>3} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'spread':>7}  {'bound':>5}  verdict")
        for m in spec["end_to_end"]:
            sets = values[(workload, m["name"])]
            meds = {}
            for label in sorted(sets):
                v = sets[label]
                q1, q2, q3 = harness.quartiles(v)
                meds[label] = q2
                print(f"  {m['name']:14} {label:3} {len(v):3d} {q2:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} {spread(v):7.2%}")
            spreads_ok = m["name"] == "setup_s" or all(
                spread(v) <= m["bound"] for v in sets.values())
            verdict = "spread " + ("within" if spreads_ok else "OVER") + \
                " bound"
            if "A" in meds and "B" in meds:
                d = worse_by(meds["A"], meds["B"], m["better"])
                agree = spreads_ok and d <= m["bound"]
                verdict = (f"B worse by {d:+.2%} -> "
                           + ("agree" if agree else "DISAGREE"))
            else:
                agree = spreads_ok
            all_agree &= agree
            print(f"  {'':14} {'':3} {'':3} {'':12} {'':12} {'':12} "
                  f"{'':7}  {m['bound']:5.2f}  {verdict}")
    if bad:
        print(f"\n{bad} run(s) failed or reported incorrect output")
    print("\nall metrics agree within their bounds" if all_agree and not bad
          else "\nsome metrics do NOT agree within their bounds")
    return 0 if all_agree and not bad else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run two checkouts alternately")
    r.add_argument("--a", required=True)
    r.add_argument("--b", help="second checkout; omit to run set A only")
    r.add_argument("--workloads", default=",".join(harness.WORKLOADS))
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=float,
                   default=harness.benchmark_spec()["run_seconds"])
    r.add_argument("--out", required=True)
    p = sub.add_parser("report", help="compare the stored result sets")
    p.add_argument("results")
    args = ap.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
