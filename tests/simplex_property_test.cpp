// Property tests for the simplex oracle: random feasible-by-construction
// LPs are solved to optimality-certified solutions (feasible, and no
// better solution among a large random sample), and random placement
// instances cross-check the exact position solver against coordinate
// descent.
#include <gtest/gtest.h>

#include "oracle/simplex.h"
#include "sunfloor/lp/placement_lp.h"
#include "sunfloor/util/rng.h"

namespace sunfloor {
namespace {

using oracle::LpProblem;
using oracle::LpStatus;
using oracle::Relation;
using oracle::solve_lp;

class SimplexRandom : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandom, FeasibleLpsSolveAndCertify) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 1337 + 5);
    const int n = 3 + static_cast<int>(rng.next_below(4));
    const int m = 2 + static_cast<int>(rng.next_below(5));

    // Construct around a known feasible point x0 >= 0.
    std::vector<double> x0(n);
    for (double& v : x0) v = rng.next_double() * 5.0;

    LpProblem lp;
    for (int v = 0; v < n; ++v)
        lp.add_variable(rng.next_double() * 4.0 - 1.0);
    for (int r = 0; r < m; ++r) {
        std::vector<std::pair<int, double>> terms;
        double lhs_at_x0 = 0.0;
        for (int v = 0; v < n; ++v) {
            if (!rng.next_bool(0.6)) continue;
            const double c = rng.next_double() * 4.0 - 2.0;
            terms.push_back({v, c});
            lhs_at_x0 += c * x0[static_cast<std::size_t>(v)];
        }
        if (terms.empty()) terms.push_back({0, 1.0});
        // rhs chosen so x0 satisfies the row with slack.
        lp.add_constraint(terms, Relation::LessEq,
                          lhs_at_x0 + rng.next_double() * 3.0 + 0.1);
    }
    // Box to keep the problem bounded.
    for (int v = 0; v < n; ++v)
        lp.add_constraint({{v, 1.0}}, Relation::LessEq, 50.0);

    const auto res = solve_lp(lp);
    ASSERT_EQ(res.status, LpStatus::Optimal);
    EXPECT_TRUE(lp.is_feasible(res.x, 1e-6));
    EXPECT_LE(res.objective, lp.objective_value(x0) + 1e-6);

    // No random feasible point beats the reported optimum.
    for (int probe = 0; probe < 200; ++probe) {
        std::vector<double> x(static_cast<std::size_t>(n));
        for (double& v : x) v = rng.next_double() * 8.0;
        if (lp.is_feasible(x, 1e-9)) {
            EXPECT_GE(lp.objective_value(x), res.objective - 1e-6);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandom, ::testing::Range(0, 20));

class PlacementRandom : public ::testing::TestWithParam<int> {};

TEST_P(PlacementRandom, LpNeverLosesToDescent) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 11);
    PlacementProblem p;
    p.num_movable = 2 + static_cast<int>(rng.next_below(4));
    const int nfixed = 3 + static_cast<int>(rng.next_below(5));
    for (int f = 0; f < nfixed; ++f)
        p.fixed_points.push_back(
            {rng.next_double() * 12.0, rng.next_double() * 12.0});
    // Anchor every movable to at least one fixed point.
    for (int m = 0; m < p.num_movable; ++m)
        p.fixed_conns.push_back(
            {m, static_cast<int>(rng.next_below(nfixed)),
             0.5 + rng.next_double() * 3.0});
    for (int extra = 0; extra < p.num_movable; ++extra)
        if (rng.next_bool(0.7))
            p.fixed_conns.push_back(
                {static_cast<int>(rng.next_below(p.num_movable)),
                 static_cast<int>(rng.next_below(nfixed)),
                 rng.next_double() * 2.0});
    for (int m = 0; m + 1 < p.num_movable; ++m)
        if (rng.next_bool(0.8))
            p.movable_conns.push_back(
                {m, m + 1, 0.5 + rng.next_double() * 2.0});

    const auto lp = solve_placement_lp(p);
    ASSERT_TRUE(lp.ok);
    const auto med = solve_placement_median(p, 300);
    EXPECT_LE(lp.cost, med.cost + 1e-6);
    // And the LP solution really has the cost it claims.
    EXPECT_NEAR(lp.cost, placement_cost(p, lp.positions), 1e-9);
    // Perturbing the LP solution never improves it (local optimality of a
    // convex optimum = global).
    for (int probe = 0; probe < 50; ++probe) {
        auto pos = lp.positions;
        for (auto& pt : pos) {
            pt.x = std::max(0.0, pt.x + (rng.next_double() - 0.5));
            pt.y = std::max(0.0, pt.y + (rng.next_double() - 0.5));
        }
        EXPECT_GE(placement_cost(p, pos), lp.cost - 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementRandom, ::testing::Range(0, 15));

}  // namespace
}  // namespace sunfloor
