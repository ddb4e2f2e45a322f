#!/usr/bin/env bash
# Run the benches perfbench does not cover and distill their JSON output
# into two files:
#   explore_out (BENCH_explore.json)
#     bench_explore_scaling: one 64-point grid explored by 1/2/4/8 pool
#       threads (`threads`) and by 1/2/4 in-process shard workers with one
#       shard each (`shard_workers`), each count with its points/sec,
#       speedup over 1 and partition misses; the same grid cut into 4
#       shards per worker, 1 x 4 and 4 x 16 (`over_sharded`, keyed
#       WORKERSxSHARDS, speedup over 1 worker with 1 shard); the same grid
#       rerun on one warm session by
#       1/2/4 pool threads (`warm`: ms per run, speedup over 1 thread,
#       stage misses, which read 0); the same grid through 1/4 in-process
#       shard workers against a CAS store written before timing (`store`:
#       ms per run, store hits per run, misses, which read 0, and us per
#       hit in wall and CPU time); the stage-reuse win on a frequency x
#       link-width grid (`stage_reuse`); the per-routing-policy sweep cost
#       on a frequency x TSV grid (`routing`)
#     bench_specgen: the `specgen` section (spec-generation throughput
#       per family and core count, and generated-family sweep throughput
#       at 1 and 4 threads)
#   sim_out (BENCH_sim.json)
#     bench_sim_throughput: latency-vs-injection-rate curves per paper
#       benchmark, with engine speed in flits/sec; set
#       SIM_FLITS_FLOOR=<flits/sec> to fail the run when the peak engine
#       speed over the sweep falls below the floor (a cheap throughput
#       regression gate for CI)
# Both files carry one `context`: the git sha ("-dirty" for uncommitted
# changes), `src_tree` (the git tree ids of the working tree's src/ and
# bench/, which equal `git rev-parse <commit>:src` and `<commit>:bench`
# of the commit that lands the measured sources, so a record refreshed
# before its commit still names the code it measured), the build tree's
# CMAKE_BUILD_TYPE and C++ compiler (from its CMakeCache.txt), nproc and
# the date. End-to-end timings of synthesis,
# exploration, the daemon, sharded runs against a CAS store and the
# tracing overhead are perfbench's (perfbench/README.md).
#
# Usage: bench/run_benches.sh [build_dir] [explore_out] [sim_out]
#                             [bench args...]
# Extra arguments are passed through to every bench binary
# (e.g. --benchmark_repetitions=3).
#
# Failure behaviour: a bench that exits non-zero stops the script with a
# message naming the bench, and its exit status is propagated. Output
# JSON is written via tmp + rename, so a failed distillation never
# leaves a truncated BENCH_*.json behind.
set -euo pipefail

BUILD_DIR=${1:-build}
OUT_EXPLORE=${2:-BENCH_explore.json}
OUT_SIM=${3:-BENCH_sim.json}
shift $(( $# >= 3 ? 3 : $# ))
for out in "$OUT_EXPLORE" "$OUT_SIM"; do
    if [[ $out == -* ]]; then
        echo "error: output path '$out' looks like a flag; usage:" \
             "$0 [build_dir] [explore_out] [sim_out] [bench args...]" >&2
        exit 2
    fi
done

RAW=$(mktemp -d)
trap 'rm -rf "$RAW"' EXIT

# Run one bench into $RAW/<name>.json; on failure, name it and propagate
# its status (under `set -e` alone the script would stop, but silently).
# min_time well below one measurement => one iteration per benchmark
# (old and new Google Benchmark both accept plain seconds).
run_bench() {
    local name=$1
    shift
    local rc=0
    "$BUILD_DIR/$name" --benchmark_format=json --benchmark_min_time=0.01 \
        "$@" > "$RAW/$name.json" || rc=$?
    if [[ $rc -ne 0 ]]; then
        echo "error: $BUILD_DIR/$name exited with status $rc" >&2
        exit "$rc"
    fi
}

run_bench bench_explore_scaling "$@"
run_bench bench_specgen "$@"
run_bench bench_sim_throughput "$@"

# The commit the benches were built from, "-dirty" when the tree differs.
GIT_SHA=$(git -C "$(dirname "$0")" describe --always --dirty --abbrev=40 \
    --exclude='*' 2>/dev/null || echo unknown)

# The tree ids of src/ and bench/ as the working tree holds them, written
# through a throwaway index so the repository's own index is untouched.
src_tree() {
    local top idx="$RAW/index"
    top=$(git -C "$(dirname "$0")" rev-parse --show-toplevel) || return 1
    GIT_INDEX_FILE=$idx git -C "$top" read-tree HEAD &&
        GIT_INDEX_FILE=$idx git -C "$top" add -A src bench &&
        printf '{"src": "%s", "bench": "%s"}' \
            "$(GIT_INDEX_FILE=$idx git -C "$top" write-tree --prefix=src/)" \
            "$(GIT_INDEX_FILE=$idx git -C "$top" write-tree --prefix=bench/)"
}
SRC_TREE=$(src_tree 2>/dev/null || echo null)

python3 - "$RAW" "$BUILD_DIR" "$GIT_SHA" "$SRC_TREE" "$OUT_EXPLORE" \
    "$OUT_SIM" <<'EOF'
import json, os, subprocess, sys, time

raw_dir, build_dir, git_sha, src_tree, out_explore, out_sim = sys.argv[1:]

# --------------------------------------------------------------- context
cache = {}
for line in open(os.path.join(build_dir, "CMakeCache.txt")):
    name, sep, value = line.rstrip("\n").partition("=")
    if sep and not name.startswith(("#", "//")):
        cache[name.split(":")[0]] = value
version = subprocess.run([cache["CMAKE_CXX_COMPILER"], "--version"],
                         capture_output=True, text=True).stdout.splitlines()
context = {
    "git_sha": git_sha,
    "src_tree": json.loads(src_tree),
    "cmake_build_type": cache.get("CMAKE_BUILD_TYPE") or "none",
    "compiler": version[0] if version else cache["CMAKE_CXX_COMPILER"],
    "nproc": os.cpu_count(),
    "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
}


def load(bench):
    """Per-repetition rows of one bench's JSON. Skips the _mean/_median/
    _stddev/_cv rows --benchmark_repetitions adds (repetitions are
    averaged instead) and rows from SkipWithError, which carry no
    counters."""
    rows = []
    for b in json.load(open(os.path.join(raw_dir, bench + ".json")))[
            "benchmarks"]:
        if b.get("error_occurred"):
            print(f"skipping {b['name']}: {b.get('error_message', 'error')}",
                  file=sys.stderr)
        elif "aggregate_name" not in b:
            b["parts"] = b["name"].split("/")
            rows.append(b)
    return rows


def group(rows, family, key=lambda b: b["parts"][1]):
    """Rows of one benchmark family (names look like BM_x/ARG/...), keyed
    by their first argument unless `key` says otherwise."""
    out = {}
    for b in rows:
        if b["parts"][0] == family:
            out.setdefault(key(b), []).append(b)
    return out


def mean(bs, field, digits):
    return round(sum(b.get(field, 0.0) for b in bs) / len(bs), digits)


def write(path, out):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    os.replace(tmp, path)
    print(json.dumps(out, indent=2))


# ------------------------------------------------------- explore scaling
def scaled(bs):
    """One thread or worker count's rows on the 64-point grid."""
    return {
        "real_time_ms": mean(bs, "real_time", 3),
        "cpu_time_ms": mean(bs, "cpu_time", 3),
        "points_per_sec": mean(bs, "points_per_sec", 3),
        "grid_points": int(bs[0].get("points", 0)),
        "partition_misses": mean(bs, "partition_misses", 1),
        "repetitions": len(bs),
    }


def speedup(rows, base):
    for r in rows.values():
        r["speedup_vs_1"] = round(base / r["real_time_ms"], 3) if base else None
    return rows


def scaling(groups):
    """Per thread or worker count, sped up over 1."""
    out = {n: scaled(bs)
           for n, bs in sorted(groups.items(), key=lambda g: int(g[0]))}
    return speedup(out, out.get("1", {}).get("real_time_ms"))


explore = load("bench_explore_scaling")

# Reruns of the grid on one warm session: every stage call hits.
warm = scaling(group(explore, "BM_explore_warm"))
for n, bs in group(explore, "BM_explore_warm").items():
    warm[n]["stage_misses"] = mean(bs, "stage_misses", 1)

# BM_dist_shards/WORKERS/SHARDS: one shard per worker, then the
# over-sharded rows, whose jobs queue on their workers.
shards = group(explore, "BM_dist_shards",
               lambda b: (int(b["parts"][1]), int(b["parts"][2])))
shard_workers = scaling({str(w): bs for (w, s), bs in shards.items()
                         if w == s})
over_sharded = speedup(
    {f"{w}x{s}": scaled(bs) for (w, s), bs in sorted(shards.items())
     if w != s},
    shard_workers.get("1", {}).get("real_time_ms"))

# The grid through 1/4 shard workers against a warm CAS store: every stage
# call is a store read, so the time per hit is the store read path.
store = {}
for n, bs in sorted(group(explore, "BM_dist_store").items(),
                    key=lambda g: int(g[0])):
    hits = mean(bs, "cas_hits", 1)
    store[n] = {
        "real_time_ms": mean(bs, "real_time", 3),
        "cpu_time_ms": mean(bs, "cpu_time", 3),
        "cas_hits": hits,
        "cas_misses": mean(bs, "cas_misses", 1),
        "us_per_hit": round(1e3 * mean(bs, "real_time", 6) / hits, 3)
        if hits else None,
        "cpu_us_per_hit": round(1e3 * mean(bs, "cpu_time", 6) / hits, 3)
        if hits else None,
        "repetitions": len(bs),
    }

# Stage reuse on the frequency x link-width grid: arg 0 = recompute every
# stage per point, arg 1 = shared-session artifact reuse.
stage_reuse = {}
for arg, bs in group(explore, "BM_explore_freq_width").items():
    stage_reuse["on" if arg == "1" else "off"] = {
        "real_time_ms": mean(bs, "real_time", 3),
        "stage_hits": mean(bs, "stage_hits", 1),
        "stage_calls": mean(bs, "stage_calls", 1),
        "repetitions": len(bs),
    }
if "off" in stage_reuse and "on" in stage_reuse:
    stage_reuse["speedup_vs_no_reuse"] = round(
        stage_reuse["off"]["real_time_ms"] /
        stage_reuse["on"]["real_time_ms"], 3)

# Routing-policy sweep (same frequency x TSV grid per policy). The bench
# labels each row with the policy's canonical name.
routing = {}
for arg, bs in group(explore, "BM_explore_routing").items():
    routing[bs[0].get("label") or arg] = {
        "real_time_ms": mean(bs, "real_time", 3),
        "valid_designs": mean(bs, "valid_designs", 1),
        "repetitions": len(bs),
    }

# ------------------------------------------------------ specgen scaling
# BM_specgen/FAMILY/CORES (the label carries the family name) and
# BM_specgen_family_sweep/THREADS. real_time keeps the bench's declared
# unit: us for BM_specgen, ms for the sweep.
specgen = load("bench_specgen")


def distill(groups, fields):
    out = {}
    for key, bs in sorted(groups.items()):
        out[key] = {dst: mean(bs, src, 4) for dst, src in fields.items()}
        out[key]["repetitions"] = len(bs)
    return out


write(out_explore, {
    "bench": "bench_explore_scaling",
    "context": context,
    "threads": scaling(group(explore, "BM_explore")),
    "shard_workers": shard_workers,
    "over_sharded": over_sharded,
    "warm": warm,
    "store": store,
    "stage_reuse": stage_reuse,
    "routing": routing,
    "specgen": {
        "generate": distill(
            group(specgen, "BM_specgen",
                  lambda b: f'{b.get("label", b["parts"][1])}_'
                            f'{b["parts"][2]}_cores'),
            {"real_time_us": "real_time", "specs_per_sec": "specs_per_sec",
             "flows": "flows"}),
        "family_sweep": distill(
            group(specgen, "BM_specgen_family_sweep",
                  lambda b: f'{b["parts"][1]}_threads'),
            {"real_time_ms": "real_time", "members_per_sec": "members_per_sec",
             "valid_designs": "valid_designs"}),
    },
})

# ------------------------------------------------------- sim throughput
# BM_sim/DESIGN/rRATE, one curve point per (design, rate).
curves = {}
peak_flits_per_sec = 0.0
for (design, rate), bs in sorted(group(
        load("bench_sim_throughput"), "BM_sim",
        lambda b: (b["parts"][1], round(b["rate"], 4))).items()):
    flits_per_sec = mean(bs, "flits_per_sec", 1)
    peak_flits_per_sec = max(peak_flits_per_sec, flits_per_sec)
    curves.setdefault(design, []).append({
        "rate": rate,
        "offered_flits_per_cycle": mean(bs, "offered_fpc", 4),
        "accepted_flits_per_cycle": mean(bs, "accepted_fpc", 4),
        "avg_latency_cycles": mean(bs, "avg_latency_cycles", 4),
        "p99_latency_cycles": mean(bs, "p99_latency_cycles", 4),
        "zero_load_cycles": mean(bs, "zero_load_cycles", 4),
        "drained": int(min(b["drained"] for b in bs)),
        "repetitions": len(bs),
        "sim_wall_ms": mean(bs, "real_time", 3),
        "flits_per_sec": flits_per_sec,
    })

write(out_sim, {
    "bench": "bench_sim_throughput",
    "context": context,
    "curves": curves,
    "peak_flits_per_sec": peak_flits_per_sec,
})

# Throughput sanity floor: the *peak* over the sweep is the engine's
# speed free of saturation effects, so it is the stable regression
# signal. The floor should sit far below typical hardware (see ci.yml)
# so only order-of-magnitude regressions — an accidental O(links) scan,
# a reintroduced per-flit allocation — trip it, not machine variance.
floor = float(os.environ.get("SIM_FLITS_FLOOR", "0") or "0")
if floor > 0 and peak_flits_per_sec < floor:
    print(f"error: peak sim throughput {peak_flits_per_sec:.0f} flits/sec "
          f"is below SIM_FLITS_FLOOR={floor:.0f}", file=sys.stderr)
    sys.exit(1)
EOF
