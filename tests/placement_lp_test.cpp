// Tests for the switch-position solver (Section VII) and its cross-check
// against the weighted-median coordinate-descent solver.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sunfloor/lp/placement_lp.h"
#include "sunfloor/util/rng.h"

namespace sunfloor {
namespace {

TEST(PlacementLp, SingleSwitchTwoEqualCores) {
    // One switch pulled equally by cores at (0,0) and (4,0): any x in [0,4]
    // is optimal with cost 4.
    PlacementProblem p;
    p.num_movable = 1;
    p.fixed_points = {{0, 0}, {4, 0}};
    p.fixed_conns = {{0, 0, 1.0}, {0, 1, 1.0}};
    const auto r = solve_placement_lp(p);
    ASSERT_TRUE(r.ok);
    EXPECT_NEAR(r.cost, 4.0, 1e-7);
    EXPECT_GE(r.positions[0].x, -1e-9);
    EXPECT_LE(r.positions[0].x, 4.0 + 1e-9);
}

TEST(PlacementLp, WeightedPullSnapsToHeavyCore) {
    // L1 with unequal weights: optimum is at the heavier core (median).
    PlacementProblem p;
    p.num_movable = 1;
    p.fixed_points = {{0, 0}, {4, 6}};
    p.fixed_conns = {{0, 0, 1.0}, {0, 1, 3.0}};
    const auto r = solve_placement_lp(p);
    ASSERT_TRUE(r.ok);
    EXPECT_NEAR(r.positions[0].x, 4.0, 1e-6);
    EXPECT_NEAR(r.positions[0].y, 6.0, 1e-6);
}

TEST(PlacementLp, ChainOfSwitches) {
    // core(0,0) - sw0 - sw1 - core(10,0): everything collapses onto the
    // segment; total cost = 10 regardless of split.
    PlacementProblem p;
    p.num_movable = 2;
    p.fixed_points = {{0, 0}, {10, 0}};
    p.fixed_conns = {{0, 0, 1.0}, {1, 1, 1.0}};
    p.movable_conns = {{0, 1, 1.0}};
    const auto r = solve_placement_lp(p);
    ASSERT_TRUE(r.ok);
    EXPECT_NEAR(r.cost, 10.0, 1e-6);
}

TEST(PlacementLp, MedianMatchesLpOnRandomInstances) {
    Rng rng(31);
    for (int trial = 0; trial < 10; ++trial) {
        PlacementProblem p;
        p.num_movable = 3;
        for (int c = 0; c < 6; ++c)
            p.fixed_points.push_back(
                {rng.next_double() * 10.0, rng.next_double() * 10.0});
        // Anchor every movable to two cores, then chain the movables.
        for (int m = 0; m < 3; ++m) {
            p.fixed_conns.push_back({m, 2 * m, 1.0 + rng.next_double() * 4.0});
            p.fixed_conns.push_back(
                {m, 2 * m + 1, 1.0 + rng.next_double() * 4.0});
        }
        p.movable_conns = {{0, 1, 2.0}, {1, 2, 1.0}};
        const auto lp = solve_placement_lp(p);
        const auto med = solve_placement_median(p, 200);
        ASSERT_TRUE(lp.ok);
        // The LP is exact; median descent must come very close on these
        // anchored instances.
        EXPECT_LE(lp.cost, med.cost + 1e-6);
        EXPECT_NEAR(lp.cost, med.cost, 0.05 * (1.0 + lp.cost));
    }
}

TEST(PlacementLp, BoundsRespected) {
    PlacementProblem p;
    p.num_movable = 1;
    p.fixed_points = {{100.0, 100.0}};
    p.fixed_conns = {{0, 0, 1.0}};
    p.bounds = {0, 0, 10, 10};
    const auto r = solve_placement_lp(p);
    ASSERT_TRUE(r.ok);
    EXPECT_LE(r.positions[0].x, 10.0 + 1e-7);
    EXPECT_LE(r.positions[0].y, 10.0 + 1e-7);
}

TEST(PlacementLp, ValidationErrors) {
    PlacementProblem p;
    p.num_movable = 1;
    p.fixed_points = {{0, 0}};
    p.fixed_conns = {{0, 5, 1.0}};  // bad fixed index
    EXPECT_THROW(solve_placement_lp(p), std::out_of_range);
    p.fixed_conns = {{0, 0, -1.0}};  // negative weight
    EXPECT_THROW(solve_placement_lp(p), std::invalid_argument);
    p.fixed_conns.clear();
    p.movable_conns = {{0, 3, 1.0}};  // bad movable index
    EXPECT_THROW(solve_placement_median(p), std::out_of_range);

    // Non-finite input, which a `< 0` test lets through, and a box with no
    // part in x,y >= 0. Both solvers reject each case.
    const auto valid = [] {
        PlacementProblem q;
        q.num_movable = 2;
        q.fixed_points = {{1, 1}, {3, 2}, {5, 5}};
        q.fixed_conns = {{0, 0, 1.0}, {1, 1, 2.0}};
        q.movable_conns = {{0, 1, 1.0}};
        return q;
    };
    ASSERT_NO_THROW(solve_placement_lp(valid()));
    std::vector<std::pair<std::string, PlacementProblem>> bad;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double v : {nan, inf, -inf}) {
        const std::string s = std::to_string(v);
        PlacementProblem q = valid();
        q.fixed_conns[1].weight = v;
        bad.emplace_back("fixed weight " + s, q);
        q = valid();
        q.movable_conns[0].weight = v;
        bad.emplace_back("movable weight " + s, q);
        q = valid();
        q.fixed_points[0].x = v;
        bad.emplace_back("fixed x " + s, q);
        q = valid();
        q.fixed_points[2].y = v;  // referenced by no connection
        bad.emplace_back("unused fixed y " + s, q);
        q = valid();
        q.bounds = {v, 0, 10, 10};
        bad.emplace_back("bounds x " + s, q);
        q = valid();
        q.bounds = {0, 0, 10, v};
        bad.emplace_back("bounds h " + s, q);
    }
    PlacementProblem outside = valid();
    outside.bounds = {-10, 1, 5, 5};
    bad.emplace_back("box left of x = 0", outside);
    for (const auto& [what, q] : bad) {
        EXPECT_THROW(solve_placement_lp(q), std::invalid_argument) << what;
        EXPECT_THROW(solve_placement_median(q), std::invalid_argument) << what;
    }
}

TEST(PlacementLp, ZeroWeightConnectionsAllowed) {
    PlacementProblem p;
    p.num_movable = 1;
    p.fixed_points = {{2, 2}};
    p.fixed_conns = {{0, 0, 0.0}};
    const auto r = solve_placement_lp(p);
    ASSERT_TRUE(r.ok);
    EXPECT_NEAR(r.cost, 0.0, 1e-9);
}

TEST(PlacementLp, CostFunctionMatchesManualSum) {
    PlacementProblem p;
    p.num_movable = 2;
    p.fixed_points = {{0, 0}};
    p.fixed_conns = {{0, 0, 2.0}};
    p.movable_conns = {{0, 1, 3.0}};
    const std::vector<Point> pos{{1, 1}, {2, 2}};
    // 2*(1+1) + 3*(1+1) = 10.
    EXPECT_DOUBLE_EQ(placement_cost(p, pos), 10.0);
}

}  // namespace
}  // namespace sunfloor
