#!/usr/bin/env python3
"""Self-test of the repository benchmark at its smallest size.

    python3 perfbench/selftest.py

For every workload, at the minimal counts of reference.json:
  * the untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, passes every output check, and its calibration factor is
    within [0.25, 4];
  * the traced run prints every per-layer metric with its unit.
Then one flipped byte in a checked CSV must be counted (ok_frac < 1,
failed >= 1, non-zero exit), and a directory holding only BENCHMARK.json
and perfbench/ must exit non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

import harness  # noqa: E402

RUN = str(harness.BENCH_DIR / "run.py")


def run(args, cwd=harness.ROOT):
    res = subprocess.run([sys.executable] + args, cwd=cwd,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    return res.returncode, lines


def last_json(lines):
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    spec = harness.benchmark_spec()
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for workload in harness.WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines = run([RUN, "--workload", workload, "--seed", "1",
                               "--trace", str(trace), "--minimal"])
            result = last_json(lines)
            tag = f"{workload} trace={trace}"
            expect(code == 0 and result is not None and result["correct"],
                   f"{tag}: runs, all checks pass")
            if result is None:
                continue
            got = result["metrics"]
            missing = [m["name"] for m in wanted
                       if got.get(m["name"], {}).get("unit") != m["unit"]]
            expect(not missing, f"{tag}: every metric with its unit"
                   + (f" (missing {missing})" if missing else ""))
            if trace == 0:
                ctx = json.loads(lines[0].split(": ", 1)[1])
                factor = ctx["calibration"]["factor"]
                expect(0.25 <= factor <= 4.0,
                       f"{tag}: calibration factor {factor:.3f} in [0.25, 4]")

    code, lines = run([RUN, "--workload", "explore_grid", "--seed", "1",
                       "--trace", "0", "--minimal", "--flip-byte"])
    result = last_json(lines)
    expect(code != 0 and result is not None and result["failed"] >= 1
           and result["metrics"]["ok_frac"]["value"] < 1.0,
           "a flipped CSV byte is counted in fail_frac and exits non-zero")

    bare = harness.build_dir() / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(harness.BENCH_DIR, bare / "perfbench")
        code, lines = run(["perfbench/run.py", "--workload", "synth_paper",
                           "--seed", "1", "--trace", "0"], cwd=bare)
        expect(code != 0 and last_json(lines) is None,
               "without the sources: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("self-test " + ("passed" if not problems else
                          f"FAILED ({len(problems)} problem(s))"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
