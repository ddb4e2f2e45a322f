// Ablation: the soft thresholds of Algorithm 3 (SOFT_INF on links close to
// the max_ill budget and on nearly-full switches). The paper argues they
// help path computation find valid routes compared to hard constraints
// alone; this bench compares valid-point counts and best power with the
// soft thresholds on and off under tight budgets.
#include <benchmark/benchmark.h>

#include "common.h"

using namespace sunfloor;
using namespace sunfloor::bench;

namespace {

void BM_softinf(benchmark::State& state) {
    const DesignSpec spec = prepared_benchmark("D_36_4");
    SynthesisConfig cfg = paper_cfg();
    cfg.max_ill = 14;
    cfg.use_soft_thresholds = state.range(0) != 0;
    cfg.run_floorplan = false;
    cfg.max_switches = 12;
    for (auto _ : state) {
        auto res = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
        benchmark::DoNotOptimize(res.num_valid());
    }
}
BENCHMARK(BM_softinf)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_header("Ablation: Algorithm 3 soft thresholds (SOFT_INF)",
                 "Section VI");
    Table t({"benchmark", "max_ill", "soft", "valid_points", "best_power_mW",
             "ill_at_best"});
    for (const char* name : {"D_26_media", "D_36_4"}) {
        for (int ill : {12, 16, 25}) {
            for (bool soft : {false, true}) {
                const DesignSpec spec = prepared_benchmark(name);
                SynthesisConfig cfg = paper_cfg();
                cfg.max_ill = ill;
                cfg.use_soft_thresholds = soft;
                const auto res =
                    run_synthesis(spec, cfg, SynthesisPhase::Phase1);
                const auto* bp = best(res);
                t.add_row({std::string(name), static_cast<long long>(ill),
                           std::string(soft ? "on" : "off"),
                           static_cast<long long>(res.num_valid()),
                           bp ? Cell{bp->report.power.noc_mw()}
                              : Cell{std::string("-")},
                           bp ? Cell{static_cast<long long>(
                                    bp->report.max_ill_used)}
                              : Cell{std::string("-")}});
            }
        }
    }
    t.write_pretty(std::cout);
    t.save_csv("ablation_softinf.csv");
    std::printf(
        "\nexpected shape: with SOFT_INF on, routing backs away from the "
        "budget early, yielding at least as many valid points under tight "
        "budgets.\n");

    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
