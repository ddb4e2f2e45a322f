// Tests for the dense two-phase simplex (the position solver's test
// oracle) against hand-solved LPs.
#include <gtest/gtest.h>

#include "oracle/simplex.h"

namespace sunfloor::oracle {
namespace {

TEST(Simplex, SimpleMaximizationAsMinimization) {
    // max 3x + 2y s.t. x + y <= 4, x <= 2  ->  min -3x - 2y.
    // Optimum at (2, 2): objective -10.
    LpProblem lp;
    const int x = lp.add_variable(-3.0);
    const int y = lp.add_variable(-2.0);
    lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::LessEq, 4.0);
    lp.add_constraint({{x, 1.0}}, Relation::LessEq, 2.0);
    const auto res = solve_lp(lp);
    ASSERT_EQ(res.status, LpStatus::Optimal);
    EXPECT_NEAR(res.objective, -10.0, 1e-9);
    EXPECT_NEAR(res.x[x], 2.0, 1e-9);
    EXPECT_NEAR(res.x[y], 2.0, 1e-9);
}

TEST(Simplex, EqualityConstraints) {
    // min x + y s.t. x + y = 3, x - y = 1 -> x=2, y=1.
    LpProblem lp;
    const int x = lp.add_variable(1.0);
    const int y = lp.add_variable(1.0);
    lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 3.0);
    lp.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::Equal, 1.0);
    const auto res = solve_lp(lp);
    ASSERT_EQ(res.status, LpStatus::Optimal);
    EXPECT_NEAR(res.x[x], 2.0, 1e-9);
    EXPECT_NEAR(res.x[y], 1.0, 1e-9);
    EXPECT_NEAR(res.objective, 3.0, 1e-9);
}

TEST(Simplex, GreaterEqWithNegativeRhs) {
    // min x s.t. x >= -5 (vacuous, x >= 0 binds) -> 0.
    LpProblem lp;
    const int x = lp.add_variable(1.0);
    lp.add_constraint({{x, 1.0}}, Relation::GreaterEq, -5.0);
    const auto res = solve_lp(lp);
    ASSERT_EQ(res.status, LpStatus::Optimal);
    EXPECT_NEAR(res.x[x], 0.0, 1e-9);
}

TEST(Simplex, InfeasibleDetected) {
    // x <= 1 and x >= 2 cannot both hold.
    LpProblem lp;
    const int x = lp.add_variable(1.0);
    lp.add_constraint({{x, 1.0}}, Relation::LessEq, 1.0);
    lp.add_constraint({{x, 1.0}}, Relation::GreaterEq, 2.0);
    EXPECT_EQ(solve_lp(lp).status, LpStatus::Infeasible);
}

TEST(Simplex, UnboundedDetected) {
    // min -x with no upper bound on x.
    LpProblem lp;
    lp.add_variable(-1.0);
    EXPECT_EQ(solve_lp(lp).status, LpStatus::Unbounded);
}

TEST(Simplex, DegenerateProblemTerminates) {
    // Several redundant constraints through the same vertex.
    LpProblem lp;
    const int x = lp.add_variable(-1.0);
    const int y = lp.add_variable(-1.0);
    lp.add_constraint({{x, 1.0}}, Relation::LessEq, 1.0);
    lp.add_constraint({{x, 1.0}, {y, 0.0}}, Relation::LessEq, 1.0);
    lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::LessEq, 2.0);
    lp.add_constraint({{y, 1.0}}, Relation::LessEq, 1.0);
    const auto res = solve_lp(lp);
    ASSERT_EQ(res.status, LpStatus::Optimal);
    EXPECT_NEAR(res.objective, -2.0, 1e-9);
}

TEST(Simplex, AbsValueLinearization) {
    // min |x - 3| via d >= x-3, d >= 3-x; x free to sit anywhere in [0,10].
    LpProblem lp;
    const int x = lp.add_variable(0.0);
    const int d = lp.add_variable(1.0);
    lp.add_constraint({{x, 1.0}, {d, -1.0}}, Relation::LessEq, 3.0);
    lp.add_constraint({{x, 1.0}, {d, 1.0}}, Relation::GreaterEq, 3.0);
    lp.add_constraint({{x, 1.0}}, Relation::LessEq, 10.0);
    const auto res = solve_lp(lp);
    ASSERT_EQ(res.status, LpStatus::Optimal);
    EXPECT_NEAR(res.objective, 0.0, 1e-9);
    EXPECT_NEAR(res.x[x], 3.0, 1e-9);
}

TEST(Simplex, RepeatedTermsAreSummed) {
    // x + x <= 4  ->  x <= 2; min -x -> x = 2.
    LpProblem lp;
    const int x = lp.add_variable(-1.0);
    lp.add_constraint({{x, 1.0}, {x, 1.0}}, Relation::LessEq, 4.0);
    const auto res = solve_lp(lp);
    ASSERT_EQ(res.status, LpStatus::Optimal);
    EXPECT_NEAR(res.x[x], 2.0, 1e-9);
}

TEST(Simplex, SolutionIsFeasible) {
    LpProblem lp;
    const int x = lp.add_variable(2.0);
    const int y = lp.add_variable(3.0);
    const int z = lp.add_variable(1.0);
    lp.add_constraint({{x, 1.0}, {y, 2.0}, {z, 1.0}}, Relation::GreaterEq, 10.0);
    lp.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::LessEq, 4.0);
    lp.add_constraint({{z, 1.0}}, Relation::LessEq, 3.0);
    const auto res = solve_lp(lp);
    ASSERT_EQ(res.status, LpStatus::Optimal);
    EXPECT_TRUE(lp.is_feasible(res.x));
}

TEST(LpModel, BadVariableRejected) {
    LpProblem lp;
    lp.add_variable(1.0);
    EXPECT_THROW(lp.add_constraint({{5, 1.0}}, Relation::LessEq, 1.0),
                 std::out_of_range);
}

TEST(LpModel, ObjectiveValue) {
    LpProblem lp;
    lp.add_variable(2.0);
    lp.add_variable(-1.0);
    EXPECT_DOUBLE_EQ(lp.objective_value({3.0, 4.0}), 2.0);
}

TEST(LpModel, FeasibilityCheck) {
    LpProblem lp;
    const int x = lp.add_variable(1.0);
    lp.add_constraint({{x, 1.0}}, Relation::Equal, 2.0);
    EXPECT_TRUE(lp.is_feasible({2.0}));
    EXPECT_FALSE(lp.is_feasible({2.1}));
    EXPECT_FALSE(lp.is_feasible({-1.0}));
}

}  // namespace
}  // namespace sunfloor::oracle
