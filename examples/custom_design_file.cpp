// Drive the tool from a design file — the Section IV input-file workflow.
// With no argument, a sample design file is written and then consumed, so
// the example is runnable out of the box:
//
//   ./custom_design_file [design.txt [max_ill]]
#include <fstream>
#include <iostream>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/io/dot.h"
#include "sunfloor/io/report.h"
#include "sunfloor/spec/parser.h"
#include "sunfloor/util/strings.h"

using namespace sunfloor;

namespace {

const char* kSampleDesign = R"(# Sample 2-layer SoC: host + accelerator stack.
# core <name> <w_mm> <h_mm> <x_mm> <y_mm> <layer>
core cpu    2.0 2.0  0.0 0.0  0
core l2     1.8 1.8  2.2 0.0  0
core dma    1.0 1.0  0.0 2.2  0
core eth    1.2 1.0  1.2 2.2  0
core mem0   1.8 1.8  0.0 0.0  1
core mem1   1.8 1.8  2.0 0.0  1
core npu    2.0 1.8  0.0 2.0  1
core codec  1.6 1.4  2.2 2.0  1
# flow <src> <dst> <bw_MBps> <max_latency_cycles> <req|rsp>
flow cpu   l2    800 4  req
flow l2    cpu   800 6  rsp
flow cpu   mem0  300 8  req
flow mem0  cpu   300 8  rsp
flow npu   mem1  600 6  req
flow mem1  npu   600 6  rsp
flow npu   mem0  200 8  req
flow mem0  npu   200 8  rsp
flow codec mem1  250 8  req
flow mem1  codec 250 8  rsp
flow dma   mem0  150 10 req
flow mem0  dma   150 10 rsp
flow eth   dma   100 12 req
flow cpu   npu   120 10 req
flow codec eth   80  12 req
)";

}  // namespace

int main(int argc, char** argv) {
    std::string path = argc > 1 ? argv[1] : "sample_design.txt";
    if (argc <= 1) {
        std::ofstream f(path);
        f << kSampleDesign;
        std::cout << "wrote sample design to " << path << "\n";
    }
    const ParseResult parsed = parse_design_file(path);
    if (!parsed.ok) {
        std::cerr << "parse error: " << parsed.error << "\n";
        return 1;
    }
    const DesignSpec& spec = parsed.spec;
    std::cout << "design '" << spec.name << "': " << spec.cores.num_cores()
              << " cores on " << spec.cores.num_layers() << " layers, "
              << spec.comm.num_flows() << " flows\n";

    SynthesisConfig cfg;
    if (argc > 2 && !parse_int(argv[2], cfg.max_ill)) {
        std::cerr << "bad max_ill argument\n";
        return 1;
    }
    const auto res = run_synthesis(spec, cfg);
    write_synthesis_report(std::cout, res);
    const int bp = res.best_power_index();
    if (bp < 0) return 1;
    save_topology_dot(spec.name + "_topology.dot",
                      res.points[static_cast<std::size_t>(bp)].topo, spec);
    std::cout << "wrote " << spec.name << "_topology.dot\n";
    return 0;
}
