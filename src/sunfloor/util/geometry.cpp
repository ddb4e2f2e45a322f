#include "sunfloor/util/geometry.h"

namespace sunfloor {

bool Rect::contains(const Point& p) const {
    return p.x >= x && p.x <= right() && p.y >= y && p.y <= top();
}

Rect Rect::united(const Rect& o) const {
    if (area() == 0.0 && w == 0.0 && h == 0.0) return o;
    const double nx = std::min(x, o.x);
    const double ny = std::min(y, o.y);
    const double nr = std::max(right(), o.right());
    const double nt = std::max(top(), o.top());
    return {nx, ny, nr - nx, nt - ny};
}

Rect bounding_box(const std::vector<Rect>& rects) {
    if (rects.empty()) return {};
    Rect bb = rects.front();
    for (std::size_t i = 1; i < rects.size(); ++i) bb = bb.united(rects[i]);
    return bb;
}

double clamp(double v, double lo, double hi) {
    return std::max(lo, std::min(hi, v));
}

}  // namespace sunfloor
