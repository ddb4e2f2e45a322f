// Switch position computation and floorplan legalization (Section VII).
//
// Step 1 — the position solve: minimize the bandwidth-weighted Manhattan
// length of all core-to-switch and switch-to-switch links (Eq. 2-5) over
// the switch coordinates, the cores being fixed. The paper hands the LP to
// lp_solve; lp/placement_lp.h solves it exactly with one min-cut per
// candidate coordinate gap and returns the componentwise-minimal optimum,
// so positions depend on the instance alone. Coordinates are shared across
// layers: a vertical link's planar length is the in-plane offset between
// its endpoints, so stacking communicating switches is exactly what the
// solve optimizes.
//
// Step 2 — legalization: the ideal positions usually overlap the cores;
// the custom insertion routine (or, for comparison, the constrained
// standard floorplanner) legalizes switches and free-standing TSV macros
// layer by layer, displacing cores only when necessary. Resulting switch
// positions are written back into the topology, displaced core centers are
// updated, and per-layer die areas are reported.
#pragma once

#include <vector>

#include "sunfloor/core/design_point.h"
#include "sunfloor/floorplan/inserter.h"
#include "sunfloor/floorplan/tsv_macros.h"
#include "sunfloor/lp/placement_lp.h"

namespace sunfloor {

/// Build the Eq. 2-5 instance for `topo`'s switches over `spec`'s cores:
/// request/response channels between the same endpoints merge into one
/// bandwidth-weighted pull. The problem captures everything the position
/// solve consumes, so equal problems have equal solutions (the pipeline's
/// LP cache keys on exactly this).
PlacementProblem build_switch_placement_problem(const Topology& topo,
                                                const DesignSpec& spec);

/// Solve a switch-placement instance exactly (solve_placement_lp).
/// `lp_ok` reports optimality; the exact solver cannot fail, so it is
/// always true.
PlacementResult solve_switch_placement(const PlacementProblem& p,
                                       bool& lp_ok);

/// Solve the switch positions and write the coordinates into `topo`.
/// Returns `lp_ok` of solve_switch_placement. Composes the two functions
/// above.
bool place_switches_lp(Topology& topo, const DesignSpec& spec);

/// Per-layer legalization summary.
struct FloorplanOutcome {
    std::vector<double> layer_area_mm2;      ///< die bounding box per layer
    std::vector<double> layer_core_displacement;
    double total_core_displacement = 0.0;
    double total_switch_deviation = 0.0;     ///< distance from LP ideals
    int tsv_macros_placed = 0;
    bool used_standard_inserter = false;
};

/// What legalization hands the inserter for one layer.
struct LayerInsertion {
    std::vector<int> core_ids;  ///< the layer's cores (cores_in_layer order)
    std::vector<Rect> fixed;    ///< their rects, parallel to core_ids
    /// The layer's switches with links (in switch order), then its
    /// free-standing TSV macros (in link order), centered at their ideals.
    std::vector<InsertBlock> blocks;
    std::vector<int> block_switch;  ///< switch id per block, -1 for a macro
};

/// The per-layer inputs legalize_floorplan inserts, one entry per layer
/// (at least one).
std::vector<LayerInsertion> layer_insertions(const Topology& topo,
                                             const DesignSpec& spec,
                                             const SynthesisConfig& cfg);

/// Legalize the NoC components of `topo` into the floorplan of `spec`.
/// `use_standard` selects the constrained-annealer baseline of Section
/// VIII-D instead of the custom routine. Updates switch positions and core
/// geometry snapshots inside `topo`.
FloorplanOutcome legalize_floorplan(Topology& topo, const DesignSpec& spec,
                                    const SynthesisConfig& cfg,
                                    bool use_standard, Rng& rng);

}  // namespace sunfloor
