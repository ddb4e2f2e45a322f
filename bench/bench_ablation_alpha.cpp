// Ablation: the alpha parameter of the partitioning-graph weights
// (Definition 3) blending bandwidth against latency tightness. alpha = 1
// partitions purely on bandwidth (the power objective); lowering alpha
// pulls latency-critical flows into shared switches.
#include <benchmark/benchmark.h>

#include "common.h"

using namespace sunfloor;
using namespace sunfloor::bench;

namespace {

void BM_alpha(benchmark::State& state) {
    const DesignSpec spec = prepared_benchmark("D_26_media");
    SynthesisConfig cfg = paper_cfg();
    cfg.alpha = static_cast<double>(state.range(0)) / 10.0;
    cfg.run_floorplan = false;
    cfg.max_switches = 12;
    for (auto _ : state) {
        auto res = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
        benchmark::DoNotOptimize(res.num_valid());
    }
}
BENCHMARK(BM_alpha)->Arg(0)->Arg(5)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_header("Ablation: PG weight parameter alpha", "Definition 3");
    Table t({"alpha", "benchmark", "best_power_mW", "avg_latency_cyc",
             "max_latency_cyc", "valid"});
    for (const char* name : {"D_26_media", "D_35_bot"}) {
        for (double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
            const DesignSpec spec = prepared_benchmark(name);
            SynthesisConfig cfg = paper_cfg();
            cfg.alpha = alpha;
            const auto res = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
            const auto* bp = best(res);
            if (bp)
                t.add_row({alpha, std::string(name),
                           bp->report.power.noc_mw(),
                           bp->report.avg_latency_cycles,
                           bp->report.max_latency_cycles,
                           static_cast<long long>(res.num_valid())});
            else
                t.add_row({alpha, std::string(name), std::string("-"),
                           std::string("-"), std::string("-"),
                           static_cast<long long>(0)});
        }
    }
    t.write_pretty(std::cout);
    t.save_csv("ablation_alpha.csv");
    std::printf(
        "\nexpected shape: alpha = 1 gives the best power; smaller alpha "
        "trades power for (max) latency margin.\n");

    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
