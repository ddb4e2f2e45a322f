#include "sunfloor/util/geometry.h"

namespace sunfloor {

double euclidean(const Point& a, const Point& b) {
    return std::hypot(a.x - b.x, a.y - b.y);
}

double Rect::overlap_area(const Rect& o) const {
    const double ox = std::min(right(), o.right()) - std::max(x, o.x);
    const double oy = std::min(top(), o.top()) - std::max(y, o.y);
    if (ox <= 0.0 || oy <= 0.0) return 0.0;
    return ox * oy;
}

bool Rect::contains(const Rect& o) const {
    return o.x >= x && o.y >= y && o.right() <= right() && o.top() <= top();
}

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

double total_overlap(const std::vector<Rect>& rects) {
    double total = 0.0;
    for (std::size_t i = 0; i < rects.size(); ++i)
        for (std::size_t j = i + 1; j < rects.size(); ++j)
            total += rects[i].overlap_area(rects[j]);
    return total;
}

double clamp(double v, double lo, double hi) {
    return std::max(lo, std::min(hi, v));
}

}  // namespace sunfloor
