// "Standard floorplanner" NoC-insertion baseline (Section VIII-D).
//
// The paper compares its custom routine against Parquet [38] modified so it
// cannot swap blocks: the relative positions of the input cores must stay
// the same, only the NoC components may move, starting from the LP ideal
// positions. We reproduce that with the sequence-pair annealer run in
// constrained mode: the initial sequence pair is derived from the input
// placement (cores + components at ideal positions) and moves may only
// reposition the NoC components. The objective penalizes die area and
// movement of the components away from their ideal positions.
#pragma once

#include "sunfloor/floorplan/annealer.h"
#include "sunfloor/floorplan/inserter.h"
#include "sunfloor/util/rng.h"

namespace sunfloor {

/// The inserter's annealing schedule mirrors a standard floorplanner's
/// insertion run (short, general-purpose schedule — the tool was built for
/// full floorplanning, not incremental insertion, which is where the paper
/// observed its "unpredictable" behaviour). The target weight pulls the
/// cores toward their input placement and the components toward their LP
/// ideals: the paper's constrained Parquet run "minimizes the movement of
/// the switches from the optimal positions computed by the LP"; a strong
/// pull makes the annealer trade die area for staying near the ideals,
/// which is where its unpredictably poor floorplans come from (Section
/// VIII-D).
inline constexpr AnnealOptions kStandardInsertAnneal{
    .t_final_ratio = 1e-3, .cooling = 0.85, .wirelength_weight = 0.05,
    .target_weight = 2.0};

/// Insert `blocks` into the floorplan `fixed` with the constrained
/// sequence-pair annealer. Returns the same result type as the custom
/// routine so the two are directly comparable (Figs. 18-20).
InsertionResult insert_blocks_standard(const std::vector<Rect>& fixed,
                                       const std::vector<InsertBlock>& blocks,
                                       Rng& rng);

}  // namespace sunfloor
