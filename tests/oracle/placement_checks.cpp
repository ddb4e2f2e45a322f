#include "oracle/placement_checks.h"

#include <algorithm>

namespace sunfloor::oracle {

namespace {

/// Area of the intersection (0 when disjoint).
double overlap_area(const Rect& a, const Rect& o) {
    const double ox = std::min(a.right(), o.right()) - std::max(a.x, o.x);
    const double oy = std::min(a.top(), o.top()) - std::max(a.y, o.y);
    if (ox <= 0.0 || oy <= 0.0) return 0.0;
    return ox * oy;
}

}  // namespace

bool placement_is_legal(const CoreSpec& cores) {
    for (int i = 0; i < cores.num_cores(); ++i)
        for (int j = i + 1; j < cores.num_cores(); ++j) {
            const auto& a = cores.core(i);
            const auto& b = cores.core(j);
            if (a.layer == b.layer && a.rect().overlaps(b.rect()))
                return false;
        }
    return true;
}

double layer_area(const CoreSpec& cores, int layer) {
    double a = 0.0;
    for (const auto& c : cores.cores())
        if (c.layer == layer) a += c.area();
    return a;
}

double total_overlap(const std::vector<Rect>& rects) {
    double total = 0.0;
    for (std::size_t i = 0; i < rects.size(); ++i)
        for (std::size_t j = i + 1; j < rects.size(); ++j)
            total += overlap_area(rects[i], rects[j]);
    return total;
}

}  // namespace sunfloor::oracle
