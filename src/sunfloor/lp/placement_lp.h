// Switch-position optimization (Section VII of the paper).
//
// Given the fixed core positions and the synthesized connectivity, the
// optimal switch coordinates minimize the total bandwidth-weighted Manhattan
// wire length (Eq. 4). The problem is separable in x and y, and each axis
// is an L1 problem with pairwise terms: minimize
//     sum_k w_k |x_i(k) - a_k|  +  sum_e w_e |x_a(e) - x_b(e)|
// over a box. The paper hands the linearized LP (Eq. 2-5) to lp_solve; this
// solver is exact and combinatorial instead (threshold decomposition,
// Hochbaum, "An efficient algorithm for image segmentation, Markov random
// fields and related problems", JACM 2001). An optimum exists on the
// anchor coordinates clamped into the box, plus the box's lower edge. For
// each gap between neighbouring candidate values one s-t min-cut over the
// switches decides which of them lie above the gap, and a switch's
// coordinate is the candidate reached by counting the cuts whose *minimal*
// source side contains it. The result is the unique componentwise-minimal
// optimum: it depends on the instance alone, never on an iteration order,
// and a min-cut has no iteration limit, so the solve cannot fail.
//
// An independent weighted-median coordinate-descent solver is provided as a
// cross-check and as the ablation bench's subject: the objective is convex
// and separable, and each coordinate's optimum given the others is a
// weighted median, so descent converges to an optimum on anchored
// instances.
#pragma once

#include <vector>

#include "sunfloor/util/geometry.h"

namespace sunfloor {

/// A bandwidth-weighted L1 placement instance. "Movable" points are the
/// switches; "fixed" points are cores (their NIs). Weights must be finite
/// and non-negative; connections with zero weight still pull length 0 and
/// are permitted. Coordinates and bounds must be finite.
struct PlacementProblem {
    int num_movable = 0;
    std::vector<Point> fixed_points;

    struct FixedConn {
        int movable = 0;  ///< index in [0, num_movable)
        int fixed = 0;    ///< index into fixed_points
        double weight = 0.0;
    };
    struct MovableConn {
        int a = 0;  ///< movable index
        int b = 0;  ///< movable index
        double weight = 0.0;
    };
    std::vector<FixedConn> fixed_conns;
    std::vector<MovableConn> movable_conns;

    /// Optional region the movables must stay inside (the die outline).
    /// A zero-area rect means unconstrained (beyond x,y >= 0). Movables
    /// always stay at x,y >= 0, so a box must reach into that quadrant.
    Rect bounds{};
};

struct PlacementResult {
    std::vector<Point> positions;  ///< one per movable
    double cost = 0.0;             ///< bandwidth-weighted total L1 length
    bool ok = false;               ///< solver reached optimality
};

/// Names the optimum solve_placement_lp returns. Persistent caches of its
/// output key on it, so a solver that returns another optimum must
/// change it.
inline constexpr const char* kPlacementSolverTag = "ps=minimal-cut-1";

/// Objective value (Eq. 4) for a candidate movable placement.
double placement_cost(const PlacementProblem& p,
                      const std::vector<Point>& positions);

/// Exact solve, one threshold decomposition per axis: the
/// componentwise-minimal optimum. Every coordinate is an anchor
/// coordinate clamped into the box, or the box's lower edge. `ok` is
/// always true. Throws std::out_of_range on a bad index and
/// std::invalid_argument on a negative or non-finite weight, a
/// non-finite coordinate or bound, or a box outside x,y >= 0.
PlacementResult solve_placement_lp(const PlacementProblem& p);

/// Weighted-median coordinate descent; `sweeps` full passes. Converges to
/// an optimum on instances where every movable is (transitively)
/// anchored to at least one fixed point. Validates like
/// solve_placement_lp.
PlacementResult solve_placement_median(const PlacementProblem& p,
                                       int sweeps = 50);

}  // namespace sunfloor
