#include "sunfloor/floorplan/tsv_macros.h"

#include <algorithm>

namespace sunfloor {

std::vector<TsvMacro> tsv_macros_for_link(int layer_a, Point pos_a,
                                          int layer_b, Point pos_b,
                                          double macro_area_mm2) {
    std::vector<TsvMacro> out;
    if (layer_a == layer_b) return out;
    if (layer_a > layer_b) {
        std::swap(layer_a, layer_b);
        std::swap(pos_a, pos_b);
    }
    const int span = layer_b - layer_a;
    for (int ly = layer_a + 1; ly <= layer_b; ++ly) {
        const double t = static_cast<double>(ly - layer_a) / span;
        TsvMacro m;
        m.layer = ly;
        m.preferred = {pos_a.x + t * (pos_b.x - pos_a.x),
                       pos_a.y + t * (pos_b.y - pos_a.y)};
        m.area_mm2 = macro_area_mm2;
        m.embedded = (ly == layer_b);
        out.push_back(m);
    }
    return out;
}

}  // namespace sunfloor
