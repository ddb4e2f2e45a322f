// The switch-position problem (Section VII, Eq. 2-5) as the paper states
// it: a linear program with one distance variable and two inequalities per
// |.| term, solved per axis with the dense simplex. Tests compare the
// library's exact solver against it.
#pragma once

#include "sunfloor/lp/placement_lp.h"

namespace sunfloor::oracle {

/// Two simplex LPs, one per axis. `ok` is false when either LP stopped
/// short of optimality (the positions are then meaningless). Returns some
/// optimal vertex, which need not be the componentwise-minimal one.
PlacementResult solve_placement_simplex(const PlacementProblem& p);

}  // namespace sunfloor::oracle
