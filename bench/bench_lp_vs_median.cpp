// Ablation: the exact switch-position solver (Section VII) versus the
// weighted-median coordinate-descent heuristic, on the placement problems
// synthesis solves (build_switch_placement_problem). The exact solver is
// the reference; the median heuristic is the cheap alternative. This
// bench measures both quality (objective gap) and speed, and exits
// non-zero if the heuristic ever beats the exact solver.
#include <benchmark/benchmark.h>

#include "common.h"
#include "sunfloor/core/switch_placement.h"

using namespace sunfloor;
using namespace sunfloor::bench;

namespace {

PlacementProblem make_case(const char* name, int max_switches) {
    const DesignSpec spec = prepared_benchmark(name);
    SynthesisConfig cfg = paper_cfg();
    cfg.run_floorplan = false;
    cfg.max_switches = max_switches;
    const auto res = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
    const auto* bp = best(res);
    return build_switch_placement_problem(bp->topo, spec);
}

void BM_exact(benchmark::State& state) {
    static const PlacementProblem p = make_case("D_26_media", 12);
    for (auto _ : state) {
        auto r = solve_placement_lp(p);
        benchmark::DoNotOptimize(r.cost);
    }
}
BENCHMARK(BM_exact)->Unit(benchmark::kMillisecond);

void BM_median(benchmark::State& state) {
    static const PlacementProblem p = make_case("D_26_media", 12);
    for (auto _ : state) {
        auto r = solve_placement_median(p);
        benchmark::DoNotOptimize(r.cost);
    }
}
BENCHMARK(BM_median)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_header("Ablation: exact position solver vs weighted-median placement",
                 "Section VII");
    Table t({"benchmark", "switches", "exact_cost", "median_cost", "gap_pct"});
    int median_wins = 0;
    for (const char* name : {"D_26_media", "D_35_bot", "D_38_tvopd"}) {
        const DesignSpec spec = prepared_benchmark(name);
        SynthesisConfig cfg = paper_cfg();
        cfg.run_floorplan = false;
        const auto res = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
        const auto* bp = best(res);
        if (!bp) continue;
        const auto p = build_switch_placement_problem(bp->topo, spec);
        const auto exact = solve_placement_lp(p);
        const auto med = solve_placement_median(p);
        if (med.cost < exact.cost - 1e-9 * std::max(exact.cost, 1.0)) {
            std::fprintf(stderr,
                         "%s: median cost %.17g beats the exact solver's "
                         "%.17g\n",
                         name, med.cost, exact.cost);
            ++median_wins;
        }
        const double gap = (med.cost - exact.cost) / std::max(exact.cost, 1e-9);
        t.add_row({std::string(name), static_cast<long long>(p.num_movable),
                   exact.cost, med.cost, 100.0 * gap});
    }
    t.write_pretty(std::cout);
    t.save_csv("ablation_lp_vs_median.csv");
    std::printf(
        "\nexpected shape: the exact solver never loses; the median heuristic "
        "lands within a few percent on anchored instances.\n");

    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return median_wins == 0 ? 0 : 1;
}
