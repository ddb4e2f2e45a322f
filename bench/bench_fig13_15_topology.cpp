// Figs. 13, 14 & 15: the most power-efficient D_26_media topology from
// Phase 1 (Fig. 13) and from the layer-by-layer Phase 2 (Fig. 14), plus the
// resulting 3-D floorplan with the switches inserted (Fig. 15). Emits DOT
// and SVG artefacts and prints the structural summary the figures convey:
// Phase 2 uses far fewer inter-layer links but pays latency for it.
#include <benchmark/benchmark.h>

#include "common.h"
#include "sunfloor/io/dot.h"
#include "sunfloor/io/floorplan_dump.h"

using namespace sunfloor;
using namespace sunfloor::bench;

namespace {

void describe(const char* tag, const DesignPoint& p, const DesignSpec& spec) {
    std::printf(
        "%s: %d switches, %.2f mW NoC power, %.2f cycles avg latency, "
        "%d inter-layer links (max boundary %d)\n",
        tag, p.switch_count, p.report.power.noc_mw(),
        p.report.avg_latency_cycles, p.topo->total_inter_layer_links(),
        p.report.max_ill_used);
    save_topology_dot(std::string(tag) + "_topology.dot", p.topo, spec);
    for (int ly = 0; ly < spec.cores.num_layers(); ++ly)
        save_layer_svg(std::string(tag) + "_layer" + std::to_string(ly) +
                           ".svg",
                       p.topo, spec, ly);
}

void BM_phase2_run(benchmark::State& state) {
    const DesignSpec spec = prepared_benchmark("D_26_media");
    SynthesisConfig cfg = paper_cfg();
    cfg.run_floorplan = false;
    for (auto _ : state) {
        auto res = run_synthesis(spec, cfg, SynthesisPhase::Phase2);
        benchmark::DoNotOptimize(res.num_valid());
    }
}
BENCHMARK(BM_phase2_run)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_header("Best Phase-1 and Phase-2 topologies + floorplan",
                 "Figs. 13, 14 and 15");
    const DesignSpec spec = prepared_benchmark("D_26_media");
    SynthesisConfig cfg = paper_cfg();

    const auto p1 = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
    const auto p2 = run_synthesis(spec, cfg, SynthesisPhase::Phase2);
    const auto* b1 = best(p1);
    const auto* b2 = best(p2);
    if (!b1 || !b2) {
        std::printf("synthesis failed to produce valid points\n");
        return 1;
    }
    describe("fig13_phase1", *b1, spec);
    describe("fig14_phase2", *b2, spec);
    std::printf(
        "\nexpected shape: Phase 2 uses far fewer inter-layer links (%d vs "
        "%d) but has higher zero-load latency (%.2f vs %.2f cycles).\n",
        b2->topo->total_inter_layer_links(),
        b1->topo->total_inter_layer_links(), b2->report.avg_latency_cycles,
        b1->report.avg_latency_cycles);
    std::printf("artefacts: fig13_phase1_*.dot/svg, fig14_phase2_*.dot/svg "
                "(Fig. 15 = the *_layer*.svg floorplans)\n");

    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
