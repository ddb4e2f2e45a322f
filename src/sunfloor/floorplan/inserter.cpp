#include "sunfloor/floorplan/inserter.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

namespace sunfloor {

namespace {

constexpr std::size_t kNoBlocker = static_cast<std::size_t>(-1);

// True when `r` overlaps a rect of `placed`. `blocker` (an index into
// `placed`, or kNoBlocker) is tested first and left at the rect found to
// overlap: consecutive candidates of one spiral lane mostly hit the same
// block, so a blocked candidate usually costs one test. The answer does
// not depend on the order of the tests.
bool overlaps_any(const Rect& r, const std::vector<Rect>& placed,
                  std::size_t& blocker) {
    if (blocker < placed.size() && r.overlaps(placed[blocker])) return true;
    for (std::size_t k = 0; k < placed.size(); ++k) {
        if (r.overlaps(placed[k])) {
            blocker = k;
            return true;
        }
    }
    return false;
}

// Candidate rect with the block centered at (cx, cy), clamped to the first
// quadrant (floorplan coordinates are non-negative).
Rect centered_rect(double cx, double cy, double w, double h) {
    return {std::max(0.0, cx - w / 2.0), std::max(0.0, cy - h / 2.0), w, h};
}

// Spiral (square-ring) search for a free location near the ideal center.
// Returns true and fills `out` on success.
constexpr double kNoCandidate = 1e300;

bool find_free_space(const InsertBlock& b, const std::vector<Rect>& placed,
                     double die_half_perimeter, Rect* out) {
    const double step =
        std::max(1e-3, kInsertGridStepRatio * std::min(b.w, b.h));
    const double rmax =
        std::max(kInsertMinSearchRadiusRatio * std::max(b.w, b.h),
                 kInsertMaxSearchRadiusDieRatio * die_half_perimeter) +
        step;
    // The block that stopped each lane's (ring side's) last candidate.
    std::size_t blocker[4] = {kNoBlocker, kNoBlocker, kNoBlocker, kNoBlocker};
    for (double r = 0.0; r <= rmax; r += step) {
        if (r == 0.0) {
            const Rect cand = centered_rect(b.ideal.x, b.ideal.y, b.w, b.h);
            if (!overlaps_any(cand, placed, blocker[0])) {
                *out = cand;
                return true;
            }
            blocker[1] = blocker[2] = blocker[3] = blocker[0];
            continue;
        }
        // Walk the square ring of radius r.
        for (double t = -r; t <= r; t += step) {
            const Point candidates[] = {{b.ideal.x + t, b.ideal.y - r},
                                        {b.ideal.x + t, b.ideal.y + r},
                                        {b.ideal.x - r, b.ideal.y + t},
                                        {b.ideal.x + r, b.ideal.y + t}};
            for (int lane = 0; lane < 4; ++lane) {
                const Point& c = candidates[lane];
                if (c.x < 0.0 && c.y < 0.0) continue;
                const Rect cand = centered_rect(c.x, c.y, b.w, b.h);
                if (!overlaps_any(cand, placed, blocker[lane])) {
                    *out = cand;
                    return true;
                }
            }
        }
    }
    return false;
}

// Shift blocks in +x or +y so the new rect becomes overlap-free.
// Displacements propagate in the same direction (Section VII). Returns the
// total displaced distance.
double displace(std::vector<Rect>& placed, const Rect& fresh, bool along_x) {
    double moved = 0.0;
    // Work queue of rects that may now overlap others: start with every
    // placed rect overlapping the freshly inserted one.
    std::deque<std::size_t> queue;
    for (std::size_t i = 0; i < placed.size(); ++i) {
        if (placed[i].overlaps(fresh)) {
            const double shift = along_x ? fresh.right() - placed[i].x
                                         : fresh.top() - placed[i].y;
            if (along_x)
                placed[i].x += shift;
            else
                placed[i].y += shift;
            moved += shift;
            queue.push_back(i);
        }
    }
    // Propagate: any block overlapping a moved block shifts the same way.
    int guard = static_cast<int>(placed.size()) * 64 + 64;
    while (!queue.empty() && guard-- > 0) {
        const std::size_t i = queue.front();
        queue.pop_front();
        for (std::size_t j = 0; j < placed.size(); ++j) {
            if (j == i) continue;
            if (!placed[j].overlaps(placed[i])) continue;
            // Move the one further along the displacement axis.
            const std::size_t mover =
                (along_x ? placed[j].x >= placed[i].x
                         : placed[j].y >= placed[i].y)
                    ? j
                    : i;
            const std::size_t anchor = mover == j ? i : j;
            const double shift = along_x
                                     ? placed[anchor].right() - placed[mover].x
                                     : placed[anchor].top() - placed[mover].y;
            if (shift <= 0.0) continue;
            if (along_x)
                placed[mover].x += shift;
            else
                placed[mover].y += shift;
            moved += shift;
            queue.push_back(mover);
        }
    }
    return moved;
}

double bbox_area(const std::vector<Rect>& rects) {
    return bounding_box(rects).area();
}

}  // namespace

InsertionResult insert_blocks_custom(const std::vector<Rect>& fixed,
                                     const std::vector<InsertBlock>& blocks) {
    InsertionResult res;
    res.fixed_rects = fixed;

    // `placed` = fixed blocks followed by already inserted components.
    // try_x and try_y hold the two displacement trials.
    std::vector<Rect> placed = fixed;
    std::vector<Rect> try_x;
    std::vector<Rect> try_y;
    const Rect die0 = bounding_box(fixed);
    const double die_half_perimeter = die0.w + die0.h;
    for (const auto& b : blocks) {
        // Candidate 1: nearest free space — zero displacement, possibly
        // some deviation from the ideal and some die growth when the spot
        // lies outside the current outline. bounding_box folds united()
        // left to right, so uniting the spot last is the box of `placed`
        // plus the spot.
        Rect free_spot;
        const bool have_free =
            find_free_space(b, placed, die_half_perimeter, &free_spot);
        const Rect box_before = bounding_box(placed);
        const double area_before = box_before.area();
        double free_cost = kNoCandidate;
        if (have_free) {
            free_cost = (box_before.united(free_spot).area() - area_before) +
                        kInsertDeviationCostMm2PerMm *
                            manhattan(free_spot.center(),
                                      {b.ideal.x, b.ideal.y});
        }

        // Candidate 2: displacement. Inserting at the exact ideal would cut
        // through whatever block sits there, so the component goes to the
        // nearest seam (an edge of the occupying block) and the blocks
        // beyond the seam are pushed in the same direction by the size of
        // the component (Section VII's displacement rule). Both the x and
        // the y direction are tried; the one growing the die outline less
        // wins.
        const Rect at_ideal = centered_rect(b.ideal.x, b.ideal.y, b.w, b.h);
        Rect seam_x = at_ideal;
        Rect seam_y = at_ideal;
        for (const auto& p : placed) {
            if (p.contains(Point{b.ideal.x, b.ideal.y})) {
                seam_x.x = p.right();
                seam_y.y = p.top();
                break;
            }
        }
        try_x = placed;
        const double moved_x = displace(try_x, seam_x, true);
        try_y = placed;
        const double moved_y = displace(try_y, seam_y, false);
        try_x.push_back(seam_x);
        try_y.push_back(seam_y);
        const double area_x = bbox_area(try_x);
        const double area_y = bbox_area(try_y);
        const bool x_wins = area_x <= area_y;
        auto& displaced = x_wins ? try_x : try_y;
        const Rect at_seam = x_wins ? seam_x : seam_y;
        const double displace_cost =
            ((x_wins ? area_x : area_y) - area_before) +
            kInsertDeviationCostMm2PerMm *
                manhattan(at_seam.center(), {b.ideal.x, b.ideal.y});

        Rect where;
        if (have_free && free_cost <= displace_cost) {
            placed.push_back(free_spot);
            where = free_spot;
        } else {
            placed.swap(displaced);
            res.total_displacement += x_wins ? moved_x : moved_y;
            where = at_seam;
        }
        res.total_deviation +=
            manhattan(where.center(), {b.ideal.x, b.ideal.y});
    }

    // Split back: the first |fixed| entries are the (possibly displaced)
    // original blocks; the rest are the inserted components in order.
    for (std::size_t i = 0; i < fixed.size(); ++i)
        res.fixed_rects[i] = placed[i];
    res.inserted_rects.assign(placed.begin() + static_cast<long>(fixed.size()),
                              placed.end());

    const Rect bb = bounding_box(placed);
    res.die_width = bb.right();
    res.die_height = bb.top();
    return res;
}

}  // namespace sunfloor
