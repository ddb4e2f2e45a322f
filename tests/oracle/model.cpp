#include "oracle/model.h"

#include <cmath>
#include <stdexcept>

#include "sunfloor/util/strings.h"

namespace sunfloor::oracle {

int LpProblem::add_variable(double objective_coeff, std::string name) {
    obj_.push_back(objective_coeff);
    if (name.empty()) name = format("x%zu", obj_.size() - 1);
    names_.push_back(std::move(name));
    return num_variables() - 1;
}

void LpProblem::add_constraint(std::vector<std::pair<int, double>> terms,
                               Relation rel, double rhs) {
    for (const auto& [v, c] : terms) {
        (void)c;
        if (v < 0 || v >= num_variables())
            throw std::out_of_range("LpProblem: term references unknown variable");
    }
    rows_.push_back({std::move(terms), rel, rhs});
}

double LpProblem::objective_value(const std::vector<double>& x) const {
    double o = 0.0;
    for (int v = 0; v < num_variables(); ++v)
        o += obj_[static_cast<std::size_t>(v)] * x.at(static_cast<std::size_t>(v));
    return o;
}

bool LpProblem::is_feasible(const std::vector<double>& x, double tol) const {
    if (static_cast<int>(x.size()) != num_variables()) return false;
    for (double v : x)
        if (v < -tol) return false;
    for (const auto& r : rows_) {
        double lhs = 0.0;
        for (const auto& [v, c] : r.terms)
            lhs += c * x[static_cast<std::size_t>(v)];
        switch (r.rel) {
            case Relation::LessEq:
                if (lhs > r.rhs + tol) return false;
                break;
            case Relation::Equal:
                if (std::abs(lhs - r.rhs) > tol) return false;
                break;
            case Relation::GreaterEq:
                if (lhs < r.rhs - tol) return false;
                break;
        }
    }
    return true;
}

}  // namespace sunfloor::oracle
