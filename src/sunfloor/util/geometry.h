// Geometry primitives for floorplanning and wire-length computation.
//
// All dimensions are in millimetres unless stated otherwise; the NoC power
// and delay models consume millimetre wire lengths directly.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace sunfloor {

/// A 2-D point (mm). Layers are tracked separately as integer indices.
struct Point {
    double x = 0.0;
    double y = 0.0;

    friend bool operator==(const Point&, const Point&) = default;
};

/// Manhattan (L1) distance between two points, the metric used by the
/// switch-position LP of the paper (Section VII, Eq. 2-3). Inline: the
/// annealer's cost takes one per net per move.
inline double manhattan(const Point& a, const Point& b) {
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

/// Euclidean distance; used only for reporting.
double euclidean(const Point& a, const Point& b);

/// An axis-aligned rectangle, stored as lower-left corner plus size.
/// Invariant: w >= 0 && h >= 0.
struct Rect {
    double x = 0.0;  ///< lower-left x
    double y = 0.0;  ///< lower-left y
    double w = 0.0;  ///< width
    double h = 0.0;  ///< height

    double right() const { return x + w; }
    double top() const { return y + h; }
    double area() const { return w * h; }
    Point center() const { return {x + w / 2.0, y + h / 2.0}; }

    /// True when the two rectangles share interior area (touching edges do
    /// not count as overlap; floorplans may abut blocks). Inline: the NoC
    /// inserter tests millions of candidates per synthesis.
    bool overlaps(const Rect& o) const {
        return x < o.right() && o.x < right() && y < o.top() && o.y < top();
    }

    /// Area of the intersection (0 when disjoint).
    double overlap_area(const Rect& o) const;

    /// True when `o` lies entirely inside this rectangle (edges allowed).
    bool contains(const Rect& o) const;

    /// True when point lies inside or on the boundary.
    bool contains(const Point& p) const;

    /// Smallest rectangle covering both.
    Rect united(const Rect& o) const;

    friend bool operator==(const Rect&, const Rect&) = default;
};

/// Bounding box of a set of rectangles. Returns a zero rect for empty input.
Rect bounding_box(const std::vector<Rect>& rects);

/// Total pairwise overlap area of a set of rectangles (0 for a legal
/// floorplan). Quadratic; used for verification and annealer penalties.
double total_overlap(const std::vector<Rect>& rects);

/// Clamp v into [lo, hi].
double clamp(double v, double lo, double hi);

}  // namespace sunfloor
