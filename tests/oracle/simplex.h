// Dense two-phase primal simplex: the test oracle for the switch-position
// solver.
//
// It stands in for lp_solve [37], which the paper uses for the
// switch-position step. A dense tableau with Dantzig pricing and a Bland
// anti-cycling fallback is slow (milliseconds per placement instance) but
// easy to audit, and it solves the Eq. 2-5 LP as written, independently of
// the library's combinatorial solver.
#pragma once

#include "oracle/model.h"

namespace sunfloor::oracle {

struct SimplexOptions {
    /// Hard cap on pivot steps per phase.
    int max_iterations = 20000;
    /// Switch from Dantzig to Bland's rule after this many pivots to
    /// guarantee termination under degeneracy.
    int bland_after = 5000;
    /// Numerical tolerance for reduced costs / feasibility.
    double tol = 1e-9;
};

/// Solve `min c^T x  s.t. constraints, x >= 0`. The returned x has one entry
/// per LpProblem variable.
LpResult solve_lp(const LpProblem& problem, const SimplexOptions& opts = {});

}  // namespace sunfloor::oracle
