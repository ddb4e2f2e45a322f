"""Build and run the sfbench workload program; shape its records into results.

Shared by run.py (the benchmark command), compare.py and selftest.py.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text())
WORKLOADS = ("synth_paper", "explore_grid", "serve_mixed", "explore_sharded")

# Library span name -> module, for the traced run's self-time table.
# Spans under a "trace_only." span are the traced run's extra calls and
# are left out; "op." spans are the benchmark's own ops, whose self time
# is the caller waiting on worker threads.
MODULE_OF_SPAN = {
    "pipeline.partition": "graph",
    "pipeline.assignment": "pipeline",
    "pipeline.routing": "routing",
    "pipeline.placement": "pipeline",
    "pipeline.position_lp": "lp",
    "lp.solve": "lp",
    "pipeline.floorplan": "floorplan",
    "floorplan.anneal": "floorplan",
    "pipeline.evaluation": "noc",
    "pipeline.run": "pipeline",
    "explore.point": "explore",
    "explore.pareto": "explore",
    "explore.family_member": "explore",
    "pool.task": "explore",
    "dist.explore": "dist",
    "dist.shard": "dist",
    "dist.encode_request": "dist",
    "dist.decode_request": "dist",
    "dist.run_shard": "dist",
    "dist.encode_response": "dist",
    "dist.decode_response": "dist",
    # The handler-side request span mostly blocks on its job; the
    # service's own costs are service.wait_ms / service.wire_ms.
    "service.request": "wait",
    "service.job": "service",
}
SELF_TIME_MODULES = ("graph", "routing", "lp", "floorplan", "noc", "pipeline",
                     "service", "explore", "dist", "wait")


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build or run failure)."""


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    """Configure (once) and build sfbench from this checkout's sources."""
    src = ROOT / "src" / "sunfloor"
    if not src.is_dir() or not any(src.rglob("*.cpp")):
        raise BenchError(f"no library sources under {src}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    binary = out / "sfbench"
    if not binary.exists():
        raise BenchError("build produced no sfbench binary")
    return binary


def cmake_build_type():
    cache = build_dir() / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def git_sha():
    # The ceiling keeps git from reading a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


# ------------------------------------------------------------------ counts

def counts(workload, seconds, trace=False, minimal=False):
    """Fixed work for a run of `seconds` (never a fixed duration).

    A traced invocation runs the workload twice, so both runs do half the
    passes; per-layer figures are per pass either way.
    """
    work = REFERENCE["minimal" if minimal else "work"][workload]
    if minimal:
        return dict(work)
    scale = seconds / REFERENCE["work_seconds"] / (2 if trace else 1)
    out = dict(work)
    out["passes"] = max(work["min_passes"], round(work["passes"] * scale))
    del out["min_passes"]
    return out


# ------------------------------------------------------------------- run

def run_binary(binary, workload, seed, work, trace, work_dir, deadline,
               flip_byte=False):
    record = work_dir / f"record-{int(trace)}.json"
    trace_out = work_dir / "trace.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)),
           "--calib-ref", repr(REFERENCE["calibration_ref_s"]),
           "--work-dir", os.path.relpath(work_dir, ROOT),
           "--store-dir", os.path.relpath(build_dir() / "stores", ROOT),
           "--record", str(record)]
    for key in ("passes", "hit_reps", "window", "setup_reps"):
        cmd += ["--" + key.replace("_", "-"), str(work[key])]
    if trace:
        cmd += ["--trace-out", str(trace_out)]
    if flip_byte:
        cmd.append("--flip-byte")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        res = subprocess.run(cmd, cwd=ROOT, timeout=timeout,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish in time") from exc
    if res.returncode not in (0, 3) or not record.exists():
        log(res.stderr[-4000:])
        raise BenchError(f"sfbench {workload} exited {res.returncode}")
    rec = json.loads(record.read_text())
    rec["trace_file"] = str(trace_out) if trace else None
    return rec


def self_times_ms(trace_path):
    """Self time (ms) per module: span duration minus its children's."""
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    stacks = defaultdict(list)
    per_module = defaultdict(float)
    for ev in events:
        stack = stacks[ev["tid"]]
        if ev["ph"] == "B":
            skip = (bool(stack) and stack[-1][3]) or \
                ev["name"].startswith("trace_only.")
            stack.append([ev["name"], ev["ts"], 0.0, skip])
            continue
        if not stack:
            continue
        name, start, child, skip = stack.pop()
        dur = ev["ts"] - start
        if stack:
            stack[-1][2] += dur
        if not skip:
            module = "wait" if name.startswith("op.") else \
                MODULE_OF_SPAN.get(name, "other")
            per_module[module] += (dur - child) / 1e3
    return per_module


def run_workload(workload, seed, seconds, trace, minimal=False,
                 flip_byte=False, time_budget=175.0):
    """Build, run one workload and return its result dict.

    With trace, the untraced run (for obs.overhead_frac) and the traced
    run use the same seed and counts.
    """
    binary = build()
    deadline = time.monotonic() + time_budget
    work = counts(workload, seconds, trace, minimal)
    work_dir = build_dir() / f"run-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    (build_dir() / "stores").mkdir(exist_ok=True)
    try:
        plain = run_binary(binary, workload, seed, work, False, work_dir,
                           deadline, flip_byte)
        traced = None
        if trace:
            traced = run_binary(binary, workload, seed, work, True, work_dir,
                                deadline, flip_byte)
            traced["self_ms"] = self_times_ms(traced["trace_file"])
            if os.environ.get("PERFBENCH_KEEP_TRACE"):
                keep = Path(os.environ["PERFBENCH_KEEP_TRACE"])
                shutil.copyfile(traced["trace_file"], keep)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return assemble(workload, seed, work, plain, traced)


def assemble(workload, seed, work, plain, traced):
    spec = benchmark_spec()
    context = {
        "workload": workload,
        "seed": seed,
        "counts": work,
        "git_sha": git_sha(),
        "compiler": plain["build"]["compiler"],
        "cmake_build_type": cmake_build_type(),
        "nproc": os.cpu_count(),
        "calibration": plain["calibration"],
    }
    records = [plain] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    if traced is None:
        metrics = {}
        for m in spec["end_to_end"]:
            got = plain["metrics"].get(m["name"])
            if got is None:
                raise BenchError(f"{workload} did not report {m['name']}")
            metrics[m["name"]] = got
    else:
        metrics = layer_metrics(spec, workload, work, plain, traced)
    return {"context": context, "attempted": attempted, "failed": failed,
            "failures": failures, "metrics": metrics,
            "traced": traced is not None}


def layer_metrics(spec, workload, work, plain, traced):
    """Every per_layer metric of BENCHMARK.json; n/a ones read 0."""
    factor = traced["calibration"]["factor"]
    # Per pass; serve_mixed's pass is the whole request sequence.
    passes = 1 if workload == "serve_mixed" else work["passes"]
    found = dict(traced["layers"])
    for module in SELF_TIME_MODULES:
        found[f"self_ms.{module}"] = {
            "value": traced["self_ms"].get(module, 0.0) * factor / passes,
            "unit": "ms", "base": "per pass, summed over threads"}
    base_pass = plain["metrics"]["pass_s"]["value"]
    found["obs.overhead_frac"] = {
        "value": traced["metrics"]["pass_s"]["value"] / base_pass - 1.0,
        "unit": "ratio",
        "base": f"untraced pass_s {base_pass:.4g} s"}
    out = {}
    for m in spec["per_layer"]:
        got = found.get(m["name"])
        out[m["name"]] = got if got is not None else \
            {"value": 0.0, "unit": m["unit"], "base": "n/a"}
    return out


# ---------------------------------------------------------------- output

def result_line(result):
    """The contract line: correct, attempted, failed, metrics{value, unit}."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result["metrics"].items()},
    })


def print_report(result, out=sys.stdout):
    print("context: " + json.dumps(result["context"]), file=out)
    calib = result["context"]["calibration"]
    print(f"calibration: factor {calib['factor']:.4f} "
          f"(reference slice {calib['ref_s']:.6g} s / median slice "
          f"{calib['median_slice_s']:.6g} s over {calib['slices']} slices)",
          file=out)
    for f in result["failures"]:
        print("check failed: " + f, file=out)
    attempted = result["attempted"]
    print(f"checks: {attempted - result['failed']}/{attempted} passed, "
          f"fail_frac {result['failed'] / max(1, attempted):.4g}", file=out)
    if result["traced"]:
        print(f"{'per-layer metric':34} {'value':>14} {'unit':6}  base",
              file=out)
        for name, m in result["metrics"].items():
            value = "n/a" if m.get("base") == "n/a" else f"{m['value']:.6g}"
            print(f"{name:34} {value:>14} {m['unit']:6}  {m.get('base', '')}",
                  file=out)
    else:
        print(f"{'metric':16} {'value':>14} {'unit':6} {'n':>6} "
              f"{'raw':>14}  how", file=out)
        for name, m in result["metrics"].items():
            print(f"{name:16} {m['value']:14.6g} {m['unit']:6} {m['n']:6d} "
                  f"{m['raw']:14.6g}  {m['how']}", file=out)


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
