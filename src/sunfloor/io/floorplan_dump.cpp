#include "sunfloor/io/floorplan_dump.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>

#include "sunfloor/util/strings.h"

namespace sunfloor {

void write_layer_svg(std::ostream& os, const Topology& topo,
                     const DesignSpec& spec, int layer,
                     double switch_side_mm) {
    // Extent of everything on the layer.
    double w = 1.0;
    double h = 1.0;
    for (const auto& c : spec.cores.cores()) {
        if (c.layer != layer) continue;
        w = std::max(w, c.rect().right());
        h = std::max(h, c.rect().top());
    }
    for (int s = 0; s < topo.num_switches(); ++s) {
        if (topo.switch_at(s).layer != layer) continue;
        w = std::max(w, topo.switch_at(s).position.x + 0.5);
        h = std::max(h, topo.switch_at(s).position.y + 0.5);
    }
    const double scale = 80.0;  // px per mm
    os << format(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" "
        "height=\"%.0f\" viewBox=\"0 0 %.3f %.3f\">\n",
        w * scale, h * scale, w, h);
    os << format(
        "<rect x=\"0\" y=\"0\" width=\"%.3f\" height=\"%.3f\" "
        "fill=\"white\" stroke=\"black\" stroke-width=\"0.02\"/>\n",
        w, h);
    // SVG y grows downward; flip so the floorplan reads bottom-left origin.
    auto flip = [&](double y, double height) { return h - y - height; };
    for (int ci = 0; ci < spec.cores.num_cores(); ++ci) {
        const auto& c = spec.cores.core(ci);
        if (c.layer != layer) continue;
        const Point center = topo.node_position(NodeRef::core(ci));
        const double x = center.x - c.width / 2.0;
        const double y = center.y - c.height / 2.0;
        os << format(
            "<rect x=\"%.3f\" y=\"%.3f\" width=\"%.3f\" height=\"%.3f\" "
            "fill=\"#dddddd\" stroke=\"black\" stroke-width=\"0.01\"/>\n",
            x, flip(y, c.height), c.width, c.height);
        os << format(
            "<text x=\"%.3f\" y=\"%.3f\" font-size=\"0.18\" "
            "text-anchor=\"middle\">%s</text>\n",
            center.x, flip(center.y, 0.0), c.name.c_str());
    }
    for (int s = 0; s < topo.num_switches(); ++s) {
        const auto& sw = topo.switch_at(s);
        if (sw.layer != layer) continue;
        if (topo.switch_in_degree(s) + topo.switch_out_degree(s) == 0)
            continue;
        double side = switch_side_mm;
        if (side <= 0.0)
            side = 0.1 + 0.02 * (topo.switch_in_degree(s) +
                                 topo.switch_out_degree(s));
        os << format(
            "<rect x=\"%.3f\" y=\"%.3f\" width=\"%.3f\" height=\"%.3f\" "
            "fill=\"#6699ff\" stroke=\"navy\" stroke-width=\"0.01\"/>\n",
            sw.position.x - side / 2.0,
            flip(sw.position.y - side / 2.0, side), side, side);
        os << format(
            "<text x=\"%.3f\" y=\"%.3f\" font-size=\"0.14\" fill=\"navy\" "
            "text-anchor=\"middle\">%s</text>\n",
            sw.position.x, flip(sw.position.y, 0.0) - 0.05, sw.name.c_str());
    }
    os << "</svg>\n";
}

bool save_layer_svg(const std::string& path, const Topology& topo,
                    const DesignSpec& spec, int layer) {
    std::ofstream f(path);
    if (!f) return false;
    write_layer_svg(f, topo, spec, layer);
    return static_cast<bool>(f);
}

}  // namespace sunfloor
