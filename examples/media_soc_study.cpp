// The Section VIII-A case study as a runnable example: synthesize the
// D_26_media multimedia SoC in 3-D, compare with the 2-D implementation,
// and export the best topology and floorplans.
#include <iostream>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/floorplan/annealer.h"
#include "sunfloor/io/dot.h"
#include "sunfloor/io/floorplan_dump.h"
#include "sunfloor/io/report.h"
#include "sunfloor/spec/benchmarks.h"

using namespace sunfloor;

namespace {

DesignSpec prepare(DesignSpec spec) {
    AnnealOptions fopts;
    fopts.wirelength_weight = 5e-4;
    Rng rng(42);
    floorplan_design_layers(spec.cores, spec.comm, fopts, rng);
    return spec;
}

}  // namespace

int main() {
    const DesignSpec spec3d = prepare(make_d26_media());
    const DesignSpec spec2d = prepare(to_2d(spec3d));

    SynthesisConfig cfg;
    cfg.eval.freq_hz = 400e6;
    cfg.max_ill = 25;

    std::cout << "=== D_26_media, 3-D (3 layers) ===\n";
    const auto r3 = run_synthesis(spec3d, cfg, SynthesisPhase::Phase1);
    write_synthesis_report(std::cout, r3);

    std::cout << "\n=== D_26_media, 2-D ===\n";
    const auto r2 = run_synthesis(spec2d, cfg, SynthesisPhase::Phase1);
    write_synthesis_report(std::cout, r2);

    const int b3 = r3.best_power_index();
    const int b2 = r2.best_power_index();
    if (b3 < 0 || b2 < 0) {
        std::cerr << "no valid design point\n";
        return 1;
    }
    const auto& p3 = r3.points[static_cast<std::size_t>(b3)];
    const auto& p2 = r2.points[static_cast<std::size_t>(b2)];
    std::cout << "\n3-D saves "
              << 100.0 * (1.0 - p3.report.power.noc_mw() /
                                    p2.report.power.noc_mw())
              << "% NoC power and "
              << 100.0 * (1.0 - p3.report.avg_latency_cycles /
                                    p2.report.avg_latency_cycles)
              << "% latency vs 2-D (paper: 24% / similar trend).\n";

    save_topology_dot("media_3d_topology.dot", p3.topo, spec3d);
    for (int ly = 0; ly < spec3d.cores.num_layers(); ++ly)
        save_layer_svg("media_3d_layer" + std::to_string(ly) + ".svg", p3.topo,
                       spec3d, ly);
    std::cout << "wrote media_3d_topology.dot and media_3d_layer*.svg\n";
    return 0;
}
