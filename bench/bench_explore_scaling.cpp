// Parallel scaling of the design-space exploration engine, three ways.
//
// A fixed 64-point architectural grid (frequency x TSV budget x link
// width x theta) over D_36_4 is explored by 1/2/4/8 pool threads of one
// Explorer (BM_explore) and by 1/2/4 in-process shard workers of the dist
// coordinator, one shard per worker (BM_dist_shards), each on fresh
// sessions per iteration. The work is the same in every configuration up
// to which thread computes a shared partition first, or which worker's
// session recomputes one, so the ratios of wall times are the thread and
// shard-worker speedups. BM_dist_shards' over-sharded rows queue 4 jobs
// per worker (1 x 4 and 4 x 16): a worker's jobs take turns on its
// pooled session, so their partition misses show what the jobs of one
// run share. BM_explore_warm
// reruns the grid on one session warmed before timing, at 1/2/4 pool
// threads: every stage call hits, so its speedup is what concurrent
// cache hits allow. BM_dist_store runs BM_dist_shards' grid through 1 and
// 4 in-process shard workers against a content-addressed store written
// before timing: every stage call of a timed run is a store read, so its
// time per hit is the store read path (read, verify, decode).
// run_benches.sh parses the JSON output into BENCH_explore.json.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <vector>

#include "common.h"
#include "sunfloor/dist/coordinator.h"
#include "sunfloor/explore/explorer.h"
#include "sunfloor/obs/metrics.h"
#include "sunfloor/pipeline/session.h"

using namespace sunfloor;
using namespace sunfloor::bench;

namespace {

// 4 x 2 x 2 x 4 = 64 architectural points. Kept identical across thread
// and worker counts.
ParamGrid scaling_grid() {
    ParamGrid grid;
    grid.set_axis(ParamAxis::frequencies_hz({300e6, 400e6, 500e6, 600e6}));
    grid.set_axis(ParamAxis::max_tsvs({15, 25}));
    grid.set_axis(ParamAxis::link_widths_bits({32, 64}));
    grid.set_axis(ParamAxis::thetas({1.0, 4.0, 7.0, 10.0}));
    return grid;
}

// Section VIII's setup with the floorplan off and the per-point
// switch-count sweep bounded, so one exploration stays in benchable
// territory.
SynthesisConfig scaling_cfg() {
    SynthesisConfig cfg = paper_cfg();
    cfg.run_floorplan = false;
    cfg.max_switches = 6;
    return cfg;
}

// What both scaling benches count per iteration. Partition misses show
// how much partitioning the shard workers repeat: each worker's session
// computes the partitions its jobs' points need, while one Explorer
// computes each once.
void report_scaling(benchmark::State& state, std::size_t points,
                    long long partition_misses) {
    state.SetItemsProcessed(static_cast<int64_t>(points));
    state.counters["points"] = static_cast<double>(points / state.iterations());
    state.counters["points_per_sec"] = benchmark::Counter(
        static_cast<double>(points), benchmark::Counter::kIsRate);
    state.counters["partition_misses"] =
        static_cast<double>(partition_misses / state.iterations());
}

void BM_explore(benchmark::State& state) {
    static const DesignSpec spec = prepared_benchmark("D_36_4");
    const SynthesisConfig cfg = scaling_cfg();
    ExploreOptions opts;
    opts.num_threads = static_cast<int>(state.range(0));

    // A fresh Explorer per iteration keeps warm-cache effects out. Points
    // sharing (phase, theta) share partitions within the run, as in every
    // production run.
    const ParamGrid grid = scaling_grid();
    std::size_t points = 0;
    long long partition_misses = 0;
    for (auto _ : state) {
        const ExploreResult res = Explorer(spec, cfg, opts).run(grid);
        points += static_cast<std::size_t>(res.stats.total_points);
        partition_misses += res.stats.stage.partition.misses;
        benchmark::DoNotOptimize(res.stats.valid_designs);
    }
    report_scaling(state, points, partition_misses);
}
BENCHMARK(BM_explore)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// The same grid rerun on one warm session: the session runs the grid
// once before timing, so every stage call of a timed run is a cache hit
// (stage_misses reads 0) and the wall time is the warm path alone.
void BM_explore_warm(benchmark::State& state) {
    static const DesignSpec spec = prepared_benchmark("D_36_4");
    const SynthesisConfig cfg = scaling_cfg();
    ExploreOptions opts;
    opts.num_threads = static_cast<int>(state.range(0));

    const ParamGrid grid = scaling_grid();
    const auto session = std::make_shared<pipeline::SynthesisSession>(spec);
    Explorer(session, cfg, opts).run(grid);
    std::size_t points = 0;
    long long partition_misses = 0;
    long long misses = 0;
    for (auto _ : state) {
        const ExploreResult res = Explorer(session, cfg, opts).run(grid);
        const pipeline::SessionStats& sg = res.stats.stage;
        points += static_cast<std::size_t>(res.stats.total_points);
        partition_misses += sg.partition.misses;
        misses += sg.partition.misses + sg.routing.misses +
                  sg.placement.misses + sg.evaluation.misses;
        benchmark::DoNotOptimize(res.stats.valid_designs);
    }
    report_scaling(state, points, partition_misses);
    state.counters["stage_misses"] =
        static_cast<double>(misses / state.iterations());
}
BENCHMARK(BM_explore_warm)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// The same grid through the dist coordinator: N in-process workers
// (first argument) and S contiguous shards (second), one thread per job.
// Every request and response still makes the codec round trip, and each
// run starts on fresh sessions, whose partitions a worker's jobs share.
// Results are byte-identical whatever N and S (tests/dist_test.cpp pins
// that).
void BM_dist_shards(benchmark::State& state) {
    static const DesignSpec spec = prepared_benchmark("D_36_4");
    const SynthesisConfig cfg = scaling_cfg();
    ExploreOptions opts;
    opts.num_threads = 1;  // parallelism comes from the workers only

    const int n = static_cast<int>(state.range(0));
    std::vector<std::shared_ptr<dist::ShardTransport>> workers;
    for (int i = 0; i < n; ++i)
        workers.push_back(std::make_shared<dist::InprocTransport>());
    dist::DistOptions dopts;
    dopts.shards = static_cast<int>(state.range(1));

    const std::vector<GridPoint> grid = scaling_grid().enumerate();
    std::size_t points = 0;
    long long partition_misses = 0;
    for (auto _ : state) {
        const ExploreResult res =
            dist::distribute_explore(spec, cfg, opts, grid, workers, dopts);
        points += static_cast<std::size_t>(res.stats.total_points);
        partition_misses += res.stats.stage.partition.misses;
        benchmark::DoNotOptimize(res.stats.valid_designs);
    }
    report_scaling(state, points, partition_misses);
}
BENCHMARK(BM_dist_shards)
    ->Args({1, 1})
    ->Args({2, 2})
    ->Args({4, 4})
    ->Args({1, 4})
    ->Args({4, 16})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// BM_dist_shards' grid against a warm store: the store is written by one
// untimed run into a temp directory (removed afterwards), so every stage
// call of a timed run is a store read. cas_hits counts them per run and
// cas_misses reads 0; run_benches.sh divides the run time by the hits.
void BM_dist_store(benchmark::State& state) {
    static const DesignSpec spec = prepared_benchmark("D_36_4");
    const SynthesisConfig cfg = scaling_cfg();
    ExploreOptions opts;
    opts.num_threads = 1;

    const int n = static_cast<int>(state.range(0));
    std::vector<std::shared_ptr<dist::ShardTransport>> workers;
    for (int i = 0; i < n; ++i)
        workers.push_back(std::make_shared<dist::InprocTransport>());
    char dir[] = "/tmp/sunfloor_bench_cas_XXXXXX";
    if (::mkdtemp(dir) == nullptr) {
        state.SkipWithError("cannot create a store directory");
        return;
    }
    dist::DistOptions dopts;
    dopts.shards = n;
    dopts.cas_dir = dir;

    const std::vector<GridPoint> grid = scaling_grid().enumerate();
    dist::distribute_explore(spec, cfg, opts, grid, workers, dopts);
    obs::Counter& hits = obs::Registry::global().counter("cas.hits");
    obs::Counter& misses = obs::Registry::global().counter("cas.misses");
    const long long hits_before = hits.value();
    const long long misses_before = misses.value();
    for (auto _ : state) {
        const ExploreResult res =
            dist::distribute_explore(spec, cfg, opts, grid, workers, dopts);
        benchmark::DoNotOptimize(res.stats.valid_designs);
    }
    std::filesystem::remove_all(dir);
    state.counters["cas_hits"] = static_cast<double>(
        (hits.value() - hits_before) / state.iterations());
    state.counters["cas_misses"] = static_cast<double>(
        (misses.value() - misses_before) / state.iterations());
}
BENCHMARK(BM_dist_store)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// Cross-point stage reuse on the grid shape it targets: frequency x link
// width only, so every point shares the partition inputs (phase, theta)
// and the shared SynthesisSession serves partition artifacts — plus any
// coinciding routed topologies' LP placements — from its cache. Arg(0)
// runs the stateless run_synthesis per point, Arg(1) a fresh Explorer;
// both seed each point from its partition key as the Explorer does, so
// the wall-clock ratio isolates the reuse win. Serial on purpose: the
// thread-scaling win is measured by BM_explore above and composes with
// this one.
void BM_explore_freq_width(benchmark::State& state) {
    static const DesignSpec spec = prepared_benchmark("D_36_4");
    const SynthesisConfig cfg = scaling_cfg();

    ExploreOptions opts;
    opts.num_threads = 1;
    const bool reuse = state.range(0) != 0;

    ParamGrid grid;
    grid.set_axis(
        ParamAxis::frequencies_hz({300e6, 350e6, 400e6, 450e6, 500e6,
                                   550e6, 600e6, 650e6}));
    grid.set_axis(ParamAxis::link_widths_bits({32, 64}));
    const std::vector<GridPoint> points = grid.enumerate();

    long long hits = 0;
    long long calls = 0;
    for (auto _ : state) {
        if (reuse) {
            const ExploreResult res = Explorer(spec, cfg, opts).run(points);
            const auto& sg = res.stats.stage;
            hits += sg.partition.hits + sg.routing.hits +
                    sg.placement.hits + sg.evaluation.hits;
            calls += sg.partition.calls() + sg.routing.calls() +
                     sg.placement.calls() + sg.evaluation.calls();
            benchmark::DoNotOptimize(res.stats.valid_designs);
        } else {
            for (const GridPoint& p : points) {
                SynthesisConfig pcfg = p.apply(cfg);
                pcfg.seed =
                    explore_point_seed(opts.base_seed, p.partition_key());
                benchmark::DoNotOptimize(
                    run_synthesis(spec, pcfg, p.phase).num_valid());
            }
        }
    }
    state.counters["stage_hits"] =
        static_cast<double>(hits / state.iterations());
    state.counters["stage_calls"] =
        static_cast<double>(calls / state.iterations());
}
BENCHMARK(BM_explore_freq_width)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// Routing-policy sweep: the same frequency x TSV grid per policy
// (Arg = RoutingPolicyId), serial, stage reuse on — the policy only
// enters at the routing stage, so partition/assignment artifacts are
// shared and the wall time isolates what the discipline itself costs.
// run_benches.sh distills the per-policy rows into the `routing` section
// of BENCH_explore.json.
void BM_explore_routing(benchmark::State& state) {
    static const DesignSpec spec = prepared_benchmark("D_36_4");
    const SynthesisConfig cfg = scaling_cfg();

    const auto policy =
        static_cast<routing::RoutingPolicyId>(state.range(0));
    ExploreOptions opts;
    opts.num_threads = 1;

    ParamGrid grid;
    grid.set_axis(ParamAxis::frequencies_hz({300e6, 400e6, 500e6, 600e6}));
    grid.set_axis(ParamAxis::max_tsvs({15, 25}));
    grid.set_axis(ParamAxis::routing_policies({policy}));

    long long valid = 0;
    for (auto _ : state) {
        const Explorer explorer(spec, cfg, opts);
        const ExploreResult res = explorer.run(grid);
        valid += res.stats.valid_designs;
        benchmark::DoNotOptimize(res.stats.pareto_size);
    }
    state.SetLabel(routing::routing_to_string(policy));
    state.counters["valid_designs"] =
        static_cast<double>(valid / state.iterations());
}
BENCHMARK(BM_explore_routing)
    ->Arg(static_cast<int>(routing::RoutingPolicyId::UpDown))
    ->Arg(static_cast<int>(routing::RoutingPolicyId::WestFirst))
    ->Arg(static_cast<int>(routing::RoutingPolicyId::OddEven))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace

int main(int argc, char** argv) {
    // Banner on stderr: run_benches.sh parses this bench's stdout as JSON.
    std::fprintf(stderr,
                 "Parallel exploration scaling (64-point grid): pool "
                 "threads and in-process shard workers\n"
                 "(the Fig. 3 outer architectural loop of SunFloor 3D)\n"
                 "expect: real time falls with the thread and worker count "
                 "(up to the core count of this machine) while CPU time "
                 "stays flat.\n\n");
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
