// Distributed exploration: shard scaling and the warm-CAS win, distilled
// by run_benches.sh into BENCH_dist.json.
//
//   BM_dist_shards/N - the same fixed grid over D_36_4 distributed across
//     N in-process workers (one shard per worker, one thread per shard,
//     each shard on its own fresh session, so points sharing (phase,
//     theta) share partitions within a shard, as in every production
//     run). The wall-time ratio to N=1 is the shard speedup; results are
//     byte-identical regardless of N (tests/dist_test.cpp pins that).
//   BM_dist_cas_cold / BM_dist_cas_warm - one worker, two shards, sharing
//     a content-addressed artifact store. Cold opens a fresh empty store
//     every iteration (all misses, plus the store-write overhead); warm
//     reuses a store populated outside the timed region, so every stage
//     artifact is served from disk instead of recomputed. The distiller
//     forms warm_speedup_vs_cold and (optionally) enforces
//     DIST_WARM_SPEEDUP_FLOOR against it.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "sunfloor/dist/coordinator.h"
#include "sunfloor/explore/explorer.h"
#include "sunfloor/obs/metrics.h"

using namespace sunfloor;
using namespace sunfloor::bench;

namespace {

/// A throwaway on-disk CAS directory, removed on destruction.
struct TempDir {
    std::string path;
    TempDir() {
        char buf[] = "/tmp/sunfloor_bench_cas_XXXXXX";
        if (::mkdtemp(buf) != nullptr) path = buf;
    }
    ~TempDir() {
        if (!path.empty()) std::system(("rm -rf " + path).c_str());
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;
};

// 4 x 2 x 2 = 16 architectural points, every key distinct.
ParamGrid dist_grid() {
    ParamGrid grid;
    grid.set_axis(ParamAxis::frequencies_hz({300e6, 400e6, 500e6, 600e6}));
    grid.set_axis(ParamAxis::max_tsvs({15, 25}));
    grid.set_axis(ParamAxis::thetas({1.0, 4.0}));
    return grid;
}

std::vector<std::shared_ptr<dist::ShardTransport>> inproc_workers(int n) {
    std::vector<std::shared_ptr<dist::ShardTransport>> workers;
    for (int i = 0; i < n; ++i)
        workers.push_back(std::make_shared<dist::InprocTransport>());
    return workers;
}

void BM_dist_shards(benchmark::State& state) {
    static const DesignSpec spec = prepared_benchmark("D_36_4");
    SynthesisConfig cfg = paper_cfg();
    cfg.run_floorplan = false;
    cfg.max_switches = 6;  // bound the per-point switch-count sweep

    ExploreOptions opts;
    opts.num_threads = 1;  // parallelism comes from the workers only

    const int n = static_cast<int>(state.range(0));
    const std::vector<GridPoint> points = dist_grid().enumerate();
    const auto workers = inproc_workers(n);
    dist::DistOptions dopts;
    dopts.shards = n;

    std::size_t done = 0;
    for (auto _ : state) {
        const ExploreResult res =
            dist::distribute_explore(spec, cfg, opts, points, workers, dopts);
        done += static_cast<std::size_t>(res.stats.total_points);
        benchmark::DoNotOptimize(res.stats.valid_designs);
    }
    state.SetItemsProcessed(static_cast<int64_t>(done));
    state.counters["points"] =
        static_cast<double>(done / state.iterations());
    state.counters["points_per_sec"] = benchmark::Counter(
        static_cast<double>(done), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_dist_shards)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// Shared setup of the two CAS benchmarks: one worker, two shards (so the
// run exercises the job queue) — the configuration a real
// `explore --shards N --cas DIR` uses.
ExploreResult run_with_cas(const DesignSpec& spec, const SynthesisConfig& cfg,
                           const std::vector<GridPoint>& points,
                           const std::string& cas_dir) {
    ExploreOptions opts;
    opts.num_threads = 1;
    const auto workers = inproc_workers(1);
    dist::DistOptions dopts;
    dopts.shards = 2;
    dopts.cas_dir = cas_dir;
    return dist::distribute_explore(spec, cfg, opts, points, workers, dopts);
}

void BM_dist_cas_cold(benchmark::State& state) {
    static const DesignSpec spec = prepared_benchmark("D_36_4");
    SynthesisConfig cfg = paper_cfg();
    cfg.run_floorplan = false;
    cfg.max_switches = 6;
    const std::vector<GridPoint> points = dist_grid().enumerate();

    long long stores = 0;
    for (auto _ : state) {
        // A fresh empty store per iteration: every stage artifact is a
        // miss, computed, then written back — the first-run price.
        TempDir cas;
        const ExploreResult res = run_with_cas(spec, cfg, points, cas.path);
        benchmark::DoNotOptimize(res.stats.valid_designs);
    }
    stores = static_cast<long long>(
        obs::Registry::global().counter("cas.stores").value());
    state.counters["cas_stores_total"] = static_cast<double>(stores);
}
BENCHMARK(BM_dist_cas_cold)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_dist_cas_warm(benchmark::State& state) {
    static const DesignSpec spec = prepared_benchmark("D_36_4");
    SynthesisConfig cfg = paper_cfg();
    cfg.run_floorplan = false;
    cfg.max_switches = 6;
    const std::vector<GridPoint> points = dist_grid().enumerate();

    // Populate the store outside the timed region; the timed runs are
    // what a rerun (new coordinator, fresh sessions) costs against it.
    TempDir cas;
    benchmark::DoNotOptimize(run_with_cas(spec, cfg, points, cas.path));

    const auto hits0 = obs::Registry::global().counter("cas.hits").value();
    for (auto _ : state) {
        const ExploreResult res = run_with_cas(spec, cfg, points, cas.path);
        benchmark::DoNotOptimize(res.stats.valid_designs);
    }
    const auto hits =
        obs::Registry::global().counter("cas.hits").value() - hits0;
    state.counters["cas_hits"] = static_cast<double>(
        static_cast<long long>(hits) / state.iterations());
}
BENCHMARK(BM_dist_cas_warm)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
    // Banner on stderr: run_benches.sh parses this bench's stdout as JSON.
    std::fprintf(stderr,
                 "Distributed exploration: shard scaling + warm-CAS reruns\n"
                 "(sunfloor::dist coordinator over in-process workers)\n"
                 "expect: real time falls with the worker count, and the "
                 "warm store beats the cold one on every rerun.\n\n");
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
