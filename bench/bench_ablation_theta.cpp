// Ablation: the theta sweep of Algorithm 1. The paper calibrated
// theta in 1..15 step 3; this bench measures how the sweep range/step
// affects how many tight-budget design points get rescued and at what
// power cost (D_26_media, max_ill = 12, where the plain PG partitions
// fail for every switch count).
#include <benchmark/benchmark.h>

#include "common.h"

using namespace sunfloor;
using namespace sunfloor::bench;

namespace {

void BM_theta_sweep(benchmark::State& state) {
    const DesignSpec spec = prepared_benchmark("D_26_media");
    SynthesisConfig cfg = paper_cfg();
    cfg.max_ill = 12;
    cfg.run_floorplan = false;
    cfg.max_switches = 12;
    cfg.theta_step = static_cast<double>(state.range(0));
    for (auto _ : state) {
        auto res = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
        benchmark::DoNotOptimize(res.num_valid());
    }
}
BENCHMARK(BM_theta_sweep)->Arg(1)->Arg(3)->Arg(7)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_header("Ablation: SPG theta sweep of Algorithm 1",
                 "the theta calibration (Section V-A)");
    Table t({"theta_max", "theta_step", "valid_points", "rescued_by_theta",
             "best_power_mW"});
    for (double theta_max : {0.0, 6.0, 15.0, 30.0}) {
        for (double step : {1.0, 3.0}) {
            const DesignSpec spec = prepared_benchmark("D_26_media");
            SynthesisConfig cfg = paper_cfg();
            cfg.max_ill = 12;
            cfg.run_floorplan = false;
            cfg.max_switches = 12;
            cfg.theta_max = theta_max;  // 0 disables the sweep entirely
            cfg.theta_step = step;
            const auto res = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
            int rescued = 0;
            for (const auto& p : res.points)
                if (p.valid && p.theta > 0.0) ++rescued;
            const auto* bp = best(res);
            t.add_row({theta_max, step,
                       static_cast<long long>(res.num_valid()),
                       static_cast<long long>(rescued),
                       bp ? Cell{bp->report.power.noc_mw()}
                          : Cell{std::string("-")}});
            if (theta_max == 0.0) break;  // step irrelevant without sweep
        }
    }
    t.write_pretty(std::cout);
    t.save_csv("ablation_theta.csv");
    std::printf(
        "\nexpected shape: without the sweep (theta_max=0) nothing is valid "
        "at this budget; the paper's 1..15 range rescues most counts; finer "
        "steps buy little.\n");

    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
