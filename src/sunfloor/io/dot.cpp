#include "sunfloor/io/dot.h"

#include <fstream>
#include <ostream>

#include "sunfloor/util/strings.h"

namespace sunfloor {

void write_topology_dot(std::ostream& os, const Topology& topo,
                        const DesignSpec& spec) {
    os << "digraph noc {\n  rankdir=LR;\n  node [fontsize=10];\n";
    const int layers = std::max(1, spec.cores.num_layers());
    for (int ly = 0; ly < layers; ++ly) {
        os << format("  subgraph cluster_layer%d {\n", ly);
        os << format("    label=\"layer %d\";\n", ly);
        for (int c = 0; c < spec.cores.num_cores(); ++c)
            if (spec.cores.core(c).layer == ly)
                os << format("    core%d [shape=box, label=\"%s\"];\n", c,
                             spec.cores.core(c).name.c_str());
        for (int s = 0; s < topo.num_switches(); ++s) {
            if (topo.switch_at(s).layer != ly) continue;
            if (topo.switch_in_degree(s) + topo.switch_out_degree(s) == 0)
                continue;
            os << format(
                "    sw%d [shape=ellipse, style=filled, fillcolor=lightblue,"
                " label=\"%s\\n%dx%d\"];\n",
                s, topo.switch_at(s).name.c_str(), topo.switch_in_degree(s),
                topo.switch_out_degree(s));
        }
        os << "  }\n";
    }
    auto node_id = [](NodeRef n) {
        return format("%s%d", n.is_core() ? "core" : "sw", n.index);
    };
    for (int l = 0; l < topo.num_links(); ++l) {
        const auto& lk = topo.link(l);
        if (lk.bw_mbps <= 0.0) continue;
        std::string attrs = format("label=\"%.0f\", ", lk.bw_mbps);
        // One style per edge: Graphviz keeps only the last one given.
        const bool response = lk.cls == FlowType::Response;
        if (topo.link_layers_crossed(l) > 0)
            attrs += response ? "style=\"bold,dashed\", color=red, "
                              : "style=bold, color=red, ";
        else if (response)
            attrs += "style=dashed, ";
        os << format("  %s -> %s [%sfontsize=8];\n",
                     node_id(lk.src).c_str(), node_id(lk.dst).c_str(),
                     attrs.c_str());
    }
    os << "}\n";
}

bool save_topology_dot(const std::string& path, const Topology& topo,
                       const DesignSpec& spec) {
    std::ofstream f(path);
    if (!f) return false;
    write_topology_dot(f, topo, spec);
    return static_cast<bool>(f);
}

}  // namespace sunfloor
