// Quickstart: synthesize a custom 3-D NoC for a small hand-written design.
//
// Builds an 8-core, 2-layer SoC spec in code, runs SunFloor 3D, prints the
// design-point table and exports the best topology as DOT and SVG.
#include <iostream>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/io/dot.h"
#include "sunfloor/io/floorplan_dump.h"
#include "sunfloor/io/report.h"
#include "sunfloor/spec/benchmarks.h"

using namespace sunfloor;

int main() {
    // --- describe the SoC ---------------------------------------------------
    DesignSpec spec;
    spec.name = "quickstart";
    auto add_core = [&](const char* name, double w, double h, int layer) {
        Core c;
        c.name = name;
        c.width = w;
        c.height = h;
        c.layer = layer;
        spec.cores.add_core(c);
    };
    add_core("cpu", 1.2, 1.2, 0);
    add_core("mem0", 1.0, 1.0, 0);
    add_core("mem1", 1.0, 1.0, 0);
    add_core("dsp", 1.2, 1.1, 1);
    add_core("mem2", 1.0, 1.0, 1);
    add_core("acc", 1.0, 0.9, 1);
    add_core("io", 0.6, 0.6, 0);
    add_core("disp", 0.9, 0.8, 1);
    assign_positions_rowpack(spec.cores);

    auto add_flow = [&](const char* s, const char* d, double bw, double lat,
                        FlowType t) {
        Flow f;
        f.src = spec.cores.find(s);
        f.dst = spec.cores.find(d);
        f.bw_mbps = bw;
        f.max_latency_cycles = lat;
        f.type = t;
        spec.comm.add_flow(f);
    };
    add_flow("cpu", "mem0", 400, 6, FlowType::Request);
    add_flow("mem0", "cpu", 400, 8, FlowType::Response);
    add_flow("cpu", "mem1", 200, 8, FlowType::Request);
    add_flow("mem1", "cpu", 200, 8, FlowType::Response);
    add_flow("dsp", "mem2", 500, 6, FlowType::Request);
    add_flow("mem2", "dsp", 500, 8, FlowType::Response);
    add_flow("cpu", "dsp", 150, 10, FlowType::Request);
    add_flow("acc", "mem2", 250, 8, FlowType::Request);
    add_flow("mem2", "acc", 250, 8, FlowType::Response);
    add_flow("dsp", "disp", 300, 8, FlowType::Request);
    add_flow("cpu", "io", 50, 12, FlowType::Request);

    // --- synthesize ---------------------------------------------------------
    SynthesisConfig cfg;
    cfg.eval.freq_hz = 400e6;
    cfg.max_ill = 10;

    const SynthesisResult result = run_synthesis(spec, cfg);
    write_synthesis_report(std::cout, result);

    // --- export the best point ----------------------------------------------
    const int best = result.best_power_index();
    if (best < 0) {
        std::cerr << "no valid design point found\n";
        return 1;
    }
    const DesignPoint& dp = result.points[static_cast<std::size_t>(best)];
    save_topology_dot("quickstart_topology.dot", dp.topo, spec);
    save_layer_svg("quickstart_layer0.svg", dp.topo, spec, 0);
    save_layer_svg("quickstart_layer1.svg", dp.topo, spec, 1);
    std::cout << "wrote quickstart_topology.dot, quickstart_layer{0,1}.svg\n";
    return 0;
}
