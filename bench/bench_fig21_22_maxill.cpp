// Figs. 21 & 22: impact of the max_ill (TSV budget) constraint on power and
// latency for D_36_4. Paper's shape: below ~10 inter-layer links no
// topology exists; tightening the budget raises power and latency; beyond
// ~24 links nothing improves anymore.
#include <benchmark/benchmark.h>

#include "common.h"

using namespace sunfloor;
using namespace sunfloor::bench;

namespace {

void BM_sweep_one_ill(benchmark::State& state) {
    const DesignSpec spec = prepared_benchmark("D_36_4");
    SynthesisConfig cfg = paper_cfg();
    cfg.max_ill = static_cast<int>(state.range(0));
    cfg.run_floorplan = false;
    cfg.max_switches = 12;
    for (auto _ : state) {
        auto res = run_synthesis(spec, cfg, SynthesisPhase::Auto);
        benchmark::DoNotOptimize(res.num_valid());
    }
}
BENCHMARK(BM_sweep_one_ill)->Arg(12)->Arg(25)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_header("Impact of the max_ill constraint, D_36_4",
                 "Figs. 21 and 22");
    const DesignSpec spec = prepared_benchmark("D_36_4");
    Table t({"max_ill", "best_power_mW", "avg_latency_cyc", "valid_points",
             "ill_used"});
    for (int ill = 6; ill <= 28; ill += 2) {
        SynthesisConfig cfg = paper_cfg();
        cfg.max_ill = ill;
        const auto res = run_synthesis(spec, cfg, SynthesisPhase::Auto);
        const auto* bp = best(res);
        if (bp)
            t.add_row({static_cast<long long>(ill), bp->report.power.noc_mw(),
                       bp->report.avg_latency_cycles,
                       static_cast<long long>(res.num_valid()),
                       static_cast<long long>(bp->report.max_ill_used)});
        else
            t.add_row({static_cast<long long>(ill), std::string("infeasible"),
                       std::string("-"), static_cast<long long>(0),
                       static_cast<long long>(0)});
    }
    t.write_pretty(std::cout);
    t.save_csv("fig21_22_maxill.csv");
    std::printf(
        "\nexpected shape: infeasible at very small budgets (paper: < 10), "
        "power/latency fall as the budget loosens, flat past ~24.\n");

    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
