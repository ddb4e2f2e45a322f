// Fig. 17: power of the Phase-2 (layer-by-layer) topologies relative to the
// Phase-1 topologies across all benchmarks. Paper's shape: Phase 1 can be
// up to ~40% cheaper; the gap shrinks for the pipelined designs whose
// traffic barely crosses layers.
#include <benchmark/benchmark.h>

#include "common.h"

using namespace sunfloor;
using namespace sunfloor::bench;

namespace {

void BM_phase1_vs_phase2_d36_4(benchmark::State& state) {
    const DesignSpec spec = prepared_benchmark("D_36_4");
    SynthesisConfig cfg = paper_cfg();
    cfg.run_floorplan = false;
    cfg.max_switches = 12;
    for (auto _ : state) {
        auto r = run_synthesis(spec, cfg, SynthesisPhase::Phase2);
        benchmark::DoNotOptimize(r.num_valid());
    }
}
BENCHMARK(BM_phase1_vs_phase2_d36_4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_header("Phase 2 power relative to Phase 1, all benchmarks",
                 "Fig. 17");
    Table t({"benchmark", "phase1_mW", "phase2_mW", "phase2_over_phase1",
             "p1_lat_cyc", "p2_lat_cyc"});
    for (const auto& name : benchmark_names()) {
        const DesignSpec spec = prepared_benchmark(name);
        SynthesisConfig cfg = paper_cfg();
        const auto r1 = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
        const auto r2 = run_synthesis(spec, cfg, SynthesisPhase::Phase2);
        const auto* b1 = best(r1);
        const auto* b2 = best(r2);
        if (!b1 || !b2) {
            std::printf("%s: no valid point (phase1=%d phase2=%d)\n",
                        name.c_str(), r1.num_valid(), r2.num_valid());
            continue;
        }
        t.add_row({name, b1->report.power.noc_mw(), b2->report.power.noc_mw(),
                   b2->report.power.noc_mw() / b1->report.power.noc_mw(),
                   b1->report.avg_latency_cycles,
                   b2->report.avg_latency_cycles});
    }
    t.write_pretty(std::cout);
    t.save_csv("fig17_phase1_vs_phase2.csv");
    std::printf(
        "\nexpected shape: ratio > 1 for the distributed/bottleneck designs "
        "(paper: up to ~1.4x), near 1 for the pipelines.\n");

    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
