// Runtime claim of Section VIII-E: "a few seconds to build a topology with
// few switches ... 2-3 minutes for topologies with many switches (50, 60)".
// Our implementation is far faster in absolute terms; this bench records
// how per-topology build time scales with the switch count on the largest
// benchmark (D_65_pipe).
#include <benchmark/benchmark.h>

#include "common.h"
#include "sunfloor/pipeline/session.h"

using namespace sunfloor;
using namespace sunfloor::bench;

namespace {

// Build exactly one topology (partition + paths + placement) at a fixed
// switch count: a cold session's PG cut, Step 7 of Algorithm 1, then the
// routing, placement and evaluation stages.
void BM_one_topology(benchmark::State& state) {
    static const DesignSpec spec = prepared_benchmark("D_65_pipe");
    const int k = static_cast<int>(state.range(0));
    SynthesisConfig cfg = paper_cfg();
    cfg.run_floorplan = false;
    for (auto _ : state) {
        pipeline::SynthesisSession session(spec);
        const auto part =
            session.partition(pipeline::PartitionGraphId::pg(), k, cfg,
                              PartitionOptions{}, Rng(cfg.seed).state());
        const CoreAssignment assign =
            pipeline::phase1_assignment(*part, spec.cores);
        auto dp = session.synthesize(assign, cfg, "bench", 0.0);
        benchmark::DoNotOptimize(dp.valid);
    }
}
BENCHMARK(BM_one_topology)
    ->Arg(5)
    ->Arg(15)
    ->Arg(30)
    ->Arg(50)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond);

void BM_full_sweep(benchmark::State& state) {
    static const DesignSpec spec = prepared_benchmark("D_65_pipe");
    SynthesisConfig cfg = paper_cfg();
    cfg.run_floorplan = false;
    cfg.max_switches = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto res = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
        benchmark::DoNotOptimize(res.num_valid());
    }
}
BENCHMARK(BM_full_sweep)->Arg(16)->Arg(65)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_header("Synthesis runtime scaling on D_65_pipe",
                 "the Section VIII-E runtime discussion");
    std::printf(
        "paper: seconds for small switch counts, 2-3 minutes at 50-60 "
        "switches (2 GHz machine); shape to check: superlinear growth in "
        "the switch count.\n\n");
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
