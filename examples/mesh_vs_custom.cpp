// Compare a synthesized custom topology against the optimized mesh
// baseline on a benchmark of choice (default D_35_bot) — the Fig. 23
// experiment as an interactive example.
//
//   ./mesh_vs_custom [benchmark_name]
#include <iostream>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/floorplan/annealer.h"
#include "sunfloor/io/dot.h"
#include "sunfloor/noc/mesh.h"
#include "sunfloor/spec/benchmarks.h"

using namespace sunfloor;

int main(int argc, char** argv) {
    const std::string name = argc > 1 ? argv[1] : "D_35_bot";
    DesignSpec spec;
    try {
        spec = make_benchmark(name);
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\navailable:";
        for (const auto& n : benchmark_names()) std::cerr << " " << n;
        std::cerr << "\n";
        return 1;
    }
    AnnealOptions fopts;
    fopts.wirelength_weight = 5e-4;
    Rng frng(42);
    floorplan_design_layers(spec.cores, spec.comm, fopts, frng);

    SynthesisConfig cfg;
    const auto res = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
    const int bp = res.best_power_index();
    if (bp < 0) {
        std::cerr << "custom synthesis found no valid point\n";
        return 1;
    }
    const auto& custom = res.points[static_cast<std::size_t>(bp)];

    Rng rng(1);
    const auto mesh = build_mesh_baseline(spec, rng);
    const auto mesh_rep = evaluate_topology(mesh.topo, spec, cfg.eval);

    std::cout << name << " (" << spec.cores.num_cores() << " cores, "
              << spec.cores.num_layers() << " layers)\n\n";
    auto line = [](const char* tag, double power, double lat, int switches,
                   int links) {
        std::printf("%-8s %8.1f mW  %5.2f cycles  %3d switches  %3d links\n",
                    tag, power, lat, switches, links);
    };
    int mesh_switch_count = 0;
    for (int s = 0; s < mesh.topo.num_switches(); ++s)
        if (mesh.topo.switch_in_degree(s) + mesh.topo.switch_out_degree(s) > 0)
            ++mesh_switch_count;
    line("custom", custom.report.power.noc_mw(),
         custom.report.avg_latency_cycles, custom.topo->num_switches(),
         custom.topo->num_links());
    line("mesh", mesh_rep.power.noc_mw(), mesh_rep.avg_latency_cycles,
         mesh_switch_count, mesh.topo.num_links());
    std::printf("\ncustom saves %.1f%% power and %.1f%% latency\n",
                100.0 * (1.0 - custom.report.power.noc_mw() /
                                   mesh_rep.power.noc_mw()),
                100.0 * (1.0 - custom.report.avg_latency_cycles /
                                   mesh_rep.avg_latency_cycles));

    save_topology_dot(name + "_custom.dot", custom.topo, spec);
    save_topology_dot(name + "_mesh.dot", mesh.topo, spec);
    std::cout << "wrote " << name << "_custom.dot and " << name
              << "_mesh.dot\n";
    return 0;
}
