// Linear-program model builder for the test oracle.
//
// The paper solves the switch-position problem of Section VII with the
// external lp_solve package. The library solves it combinatorially; the
// tests keep this general LP description (variables all constrained to be
// >= 0, linear constraints with <=, =, or >= relations, and a linear
// objective to minimize) plus a dense simplex as the reference the exact
// solver is compared against.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace sunfloor::oracle {

enum class Relation { LessEq, Equal, GreaterEq };

enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit };

struct LpResult {
    LpStatus status = LpStatus::IterationLimit;
    double objective = 0.0;
    std::vector<double> x;  ///< value per variable, valid when Optimal
    int iterations = 0;     ///< simplex pivots over both phases
};

/// A linear program: minimize c^T x subject to the stored constraints and
/// x >= 0 elementwise.
class LpProblem {
  public:
    /// Add a variable with the given objective coefficient. Returns its id.
    int add_variable(double objective_coeff, std::string name = "");

    /// Add a constraint sum(coeff_i * x_i) REL rhs. Terms may repeat a
    /// variable; coefficients are summed.
    void add_constraint(std::vector<std::pair<int, double>> terms,
                        Relation rel, double rhs);

    int num_variables() const { return static_cast<int>(obj_.size()); }
    int num_constraints() const { return static_cast<int>(rows_.size()); }

    const std::vector<double>& objective() const { return obj_; }
    const std::string& variable_name(int v) const {
        return names_.at(static_cast<std::size_t>(v));
    }

    struct Row {
        std::vector<std::pair<int, double>> terms;
        Relation rel = Relation::LessEq;
        double rhs = 0.0;
    };
    const Row& row(int i) const { return rows_.at(static_cast<std::size_t>(i)); }

    /// Evaluate the objective at x.
    double objective_value(const std::vector<double>& x) const;

    /// True when x satisfies every constraint and nonnegativity within tol.
    bool is_feasible(const std::vector<double>& x, double tol = 1e-7) const;

  private:
    std::vector<double> obj_;
    std::vector<std::string> names_;
    std::vector<Row> rows_;
};

}  // namespace sunfloor::oracle
