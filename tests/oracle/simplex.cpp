#include "oracle/simplex.h"

#include <cmath>
#include <limits>
#include <vector>

namespace sunfloor::oracle {
namespace {

// Tableau layout: rows 0..m-1 are constraints (equality form, rhs >= 0),
// columns 0..ncols-1 are structural + slack/surplus + artificial variables,
// column ncols holds the rhs. `basis[r]` is the column basic in row r.
struct Tableau {
    int m = 0;
    int ncols = 0;
    std::vector<std::vector<double>> a;  // m rows, ncols+1 entries each
    std::vector<int> basis;

    double& at(int r, int c) {
        return a[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
    }
    double at(int r, int c) const {
        return a[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
    }
    double& rhs(int r) { return at(r, ncols); }
    double rhs(int r) const { return at(r, ncols); }
};

void pivot(Tableau& t, int pr, int pc) {
    auto& prow = t.a[static_cast<std::size_t>(pr)];
    const double pv = prow[static_cast<std::size_t>(pc)];
    for (double& v : prow) v /= pv;
    for (int r = 0; r < t.m; ++r) {
        if (r == pr) continue;
        auto& row = t.a[static_cast<std::size_t>(r)];
        const double factor = row[static_cast<std::size_t>(pc)];
        if (factor == 0.0) continue;
        for (int c = 0; c <= t.ncols; ++c)
            row[static_cast<std::size_t>(c)] -=
                factor * prow[static_cast<std::size_t>(c)];
        // Clean the pivot column exactly to avoid drift.
        row[static_cast<std::size_t>(pc)] = 0.0;
    }
    t.basis[static_cast<std::size_t>(pr)] = pc;
}

// Reduced costs for objective `cost` given the current basis:
// z_j = c_j - c_B^T B^{-1} A_j, computed directly from the tableau.
std::vector<double> reduced_costs(const Tableau& t,
                                  const std::vector<double>& cost) {
    std::vector<double> red(static_cast<std::size_t>(t.ncols));
    for (int c = 0; c < t.ncols; ++c) {
        double z = cost[static_cast<std::size_t>(c)];
        for (int r = 0; r < t.m; ++r) {
            const double cb =
                cost[static_cast<std::size_t>(t.basis[static_cast<std::size_t>(r)])];
            if (cb != 0.0) z -= cb * t.at(r, c);
        }
        red[static_cast<std::size_t>(c)] = z;
    }
    return red;
}

enum class PhaseOutcome { Optimal, Unbounded, IterationLimit };

// Run simplex minimizing `cost` over the tableau; `allowed[c]` false bans a
// column from entering (used to keep artificials out in phase 2).
PhaseOutcome run_phase(Tableau& t, const std::vector<double>& cost,
                       const std::vector<char>& allowed,
                       const SimplexOptions& opts, int& iterations) {
    for (;;) {
        if (iterations >= opts.max_iterations)
            return PhaseOutcome::IterationLimit;
        const bool bland = iterations >= opts.bland_after;
        const auto red = reduced_costs(t, cost);

        // Entering column: most negative reduced cost (Dantzig) or the
        // first negative one (Bland).
        int pc = -1;
        double best = -opts.tol;
        for (int c = 0; c < t.ncols; ++c) {
            if (!allowed[static_cast<std::size_t>(c)]) continue;
            const double rc = red[static_cast<std::size_t>(c)];
            if (rc < best) {
                best = rc;
                pc = c;
                if (bland) break;
            }
        }
        if (pc < 0) return PhaseOutcome::Optimal;

        // Leaving row: min-ratio test; Bland tie-break on basis index.
        int pr = -1;
        double best_ratio = std::numeric_limits<double>::infinity();
        for (int r = 0; r < t.m; ++r) {
            const double av = t.at(r, pc);
            if (av > opts.tol) {
                const double ratio = t.rhs(r) / av;
                if (ratio < best_ratio - opts.tol ||
                    (ratio < best_ratio + opts.tol && pr >= 0 &&
                     t.basis[static_cast<std::size_t>(r)] <
                         t.basis[static_cast<std::size_t>(pr)])) {
                    best_ratio = ratio;
                    pr = r;
                }
            }
        }
        if (pr < 0) return PhaseOutcome::Unbounded;

        pivot(t, pr, pc);
        ++iterations;
    }
}

}  // namespace

LpResult solve_lp(const LpProblem& problem, const SimplexOptions& opts) {
    const int n = problem.num_variables();
    const int m = problem.num_constraints();

    // Count auxiliary columns. Rows are first normalized to rhs >= 0.
    struct NormRow {
        std::vector<double> coeff;  // dense structural coefficients
        Relation rel;
        double rhs;
    };
    std::vector<NormRow> norm;
    norm.reserve(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
        const auto& r = problem.row(i);
        NormRow nr;
        nr.coeff.assign(static_cast<std::size_t>(n), 0.0);
        for (const auto& [v, c] : r.terms)
            nr.coeff[static_cast<std::size_t>(v)] += c;
        nr.rel = r.rel;
        nr.rhs = r.rhs;
        if (nr.rhs < 0.0) {
            for (double& c : nr.coeff) c = -c;
            nr.rhs = -nr.rhs;
            if (nr.rel == Relation::LessEq)
                nr.rel = Relation::GreaterEq;
            else if (nr.rel == Relation::GreaterEq)
                nr.rel = Relation::LessEq;
        }
        norm.push_back(std::move(nr));
    }

    int num_slack = 0;
    int num_art = 0;
    for (const auto& r : norm) {
        if (r.rel != Relation::Equal) ++num_slack;  // slack or surplus
        if (r.rel != Relation::LessEq) ++num_art;   // = and >= need artificials
    }

    Tableau t;
    t.m = m;
    t.ncols = n + num_slack + num_art;
    t.a.assign(static_cast<std::size_t>(m),
               std::vector<double>(static_cast<std::size_t>(t.ncols) + 1, 0.0));
    t.basis.assign(static_cast<std::size_t>(m), -1);

    std::vector<int> art_cols;
    int slack_at = n;
    int art_at = n + num_slack;
    for (int r = 0; r < m; ++r) {
        const auto& nr = norm[static_cast<std::size_t>(r)];
        for (int c = 0; c < n; ++c)
            t.at(r, c) = nr.coeff[static_cast<std::size_t>(c)];
        t.rhs(r) = nr.rhs;
        switch (nr.rel) {
            case Relation::LessEq:
                t.at(r, slack_at) = 1.0;
                t.basis[static_cast<std::size_t>(r)] = slack_at++;
                break;
            case Relation::GreaterEq:
                t.at(r, slack_at) = -1.0;  // surplus
                ++slack_at;
                t.at(r, art_at) = 1.0;
                t.basis[static_cast<std::size_t>(r)] = art_at;
                art_cols.push_back(art_at++);
                break;
            case Relation::Equal:
                t.at(r, art_at) = 1.0;
                t.basis[static_cast<std::size_t>(r)] = art_at;
                art_cols.push_back(art_at++);
                break;
        }
    }

    std::vector<char> allowed(static_cast<std::size_t>(t.ncols), 1);
    int iterations = 0;

    // Phase 1: minimize the sum of artificials.
    if (num_art > 0) {
        std::vector<double> cost1(static_cast<std::size_t>(t.ncols), 0.0);
        for (int c : art_cols) cost1[static_cast<std::size_t>(c)] = 1.0;
        const auto out = run_phase(t, cost1, allowed, opts, iterations);
        if (out == PhaseOutcome::IterationLimit)
            return {LpStatus::IterationLimit, 0.0, {}, iterations};
        // Unbounded is impossible in phase 1 (objective bounded below by 0).
        double art_sum = 0.0;
        for (int r = 0; r < t.m; ++r) {
            const int b = t.basis[static_cast<std::size_t>(r)];
            if (b >= n + num_slack) art_sum += t.rhs(r);
        }
        if (art_sum > 1e-7)
            return {LpStatus::Infeasible, 0.0, {}, iterations};

        // Drive remaining (degenerate, rhs==0) artificials out of the basis
        // where possible; rows that cannot pivot are redundant and harmless.
        for (int r = 0; r < t.m; ++r) {
            const int b = t.basis[static_cast<std::size_t>(r)];
            if (b < n + num_slack) continue;
            for (int c = 0; c < n + num_slack; ++c) {
                if (std::abs(t.at(r, c)) > 1e-7) {
                    pivot(t, r, c);
                    break;
                }
            }
        }
        for (int c : art_cols) allowed[static_cast<std::size_t>(c)] = 0;
    }

    // Phase 2: original objective (artificials banned from entering).
    std::vector<double> cost2(static_cast<std::size_t>(t.ncols), 0.0);
    for (int v = 0; v < n; ++v)
        cost2[static_cast<std::size_t>(v)] =
            problem.objective()[static_cast<std::size_t>(v)];
    const auto out = run_phase(t, cost2, allowed, opts, iterations);
    if (out == PhaseOutcome::IterationLimit)
        return {LpStatus::IterationLimit, 0.0, {}, iterations};
    if (out == PhaseOutcome::Unbounded)
        return {LpStatus::Unbounded, 0.0, {}, iterations};

    LpResult res;
    res.status = LpStatus::Optimal;
    res.x.assign(static_cast<std::size_t>(n), 0.0);
    for (int r = 0; r < t.m; ++r) {
        const int b = t.basis[static_cast<std::size_t>(r)];
        if (b < n) res.x[static_cast<std::size_t>(b)] = t.rhs(r);
    }
    res.objective = problem.objective_value(res.x);
    res.iterations = iterations;
    return res;
}

}  // namespace sunfloor::oracle
