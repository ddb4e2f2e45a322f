// Fig. 23: power of the synthesized custom topologies versus the optimized
// mesh baseline (best SA mapping, unused links removed) on every benchmark.
// Paper headline: ~51% average power and ~21% latency reduction for the
// custom topologies.
#include <benchmark/benchmark.h>

#include "common.h"
#include "sunfloor/noc/mesh.h"

using namespace sunfloor;
using namespace sunfloor::bench;

namespace {

void BM_mesh_mapping_d26(benchmark::State& state) {
    const DesignSpec spec = prepared_benchmark("D_26_media");
    for (auto _ : state) {
        Rng rng(1);
        auto mesh = build_mesh_baseline(spec, rng);
        benchmark::DoNotOptimize(mesh.map_cost);
    }
}
BENCHMARK(BM_mesh_mapping_d26)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_header("Custom topology vs optimized mesh", "Fig. 23");
    Table t({"benchmark", "custom_mW", "mesh_mW", "power_saving_pct",
             "custom_lat", "mesh_lat", "latency_saving_pct"});
    double psum = 0.0;
    double lsum = 0.0;
    int n = 0;
    for (const auto& name : benchmark_names()) {
        const DesignSpec spec = prepared_benchmark(name);
        SynthesisConfig cfg = paper_cfg();
        const auto res = run_synthesis(spec, cfg, SynthesisPhase::Auto);
        const auto* bp = best(res);
        if (!bp) continue;
        Rng rng(1);
        const auto mesh = build_mesh_baseline(spec, rng);
        const auto mrep = evaluate_topology(mesh.topo, spec, cfg.eval);
        const double psave =
            100.0 * (1.0 - bp->report.power.noc_mw() / mrep.power.noc_mw());
        const double lsave = 100.0 * (1.0 - bp->report.avg_latency_cycles /
                                                mrep.avg_latency_cycles);
        psum += psave;
        lsum += lsave;
        ++n;
        t.add_row({name, bp->report.power.noc_mw(), mrep.power.noc_mw(),
                   psave, bp->report.avg_latency_cycles,
                   mrep.avg_latency_cycles, lsave});
    }
    t.write_pretty(std::cout);
    t.save_csv("fig23_mesh_comparison.csv");
    if (n > 0)
        std::printf(
            "\naverage power saving %.1f%% (paper: ~51%%), average latency "
            "saving %.1f%% (paper: ~21%%)\n",
            psum / n, lsum / n);

    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
