// Simulated-annealing floorplanner over sequence pairs — the in-repo
// equivalent of the Parquet tool [38] the paper uses to obtain the input
// core placements, with the same objective (minimize area and wire length,
// Section VIII-A).
#pragma once

#include <vector>

#include "sunfloor/floorplan/sequence_pair.h"
#include "sunfloor/spec/comm_spec.h"
#include "sunfloor/spec/core_spec.h"
#include "sunfloor/util/rng.h"

namespace sunfloor {

/// A two-pin net pulling blocks together during floorplanning; weight is
/// typically the communication bandwidth.
struct FloorplanNet {
    int a = 0;
    int b = 0;
    double weight = 1.0;
};

/// Moves per temperature step, per block of the anneal.
inline constexpr int kAnnealMovesPerBlock = 8;
/// The start temperature is this fraction of the initial cost (plus 1e-9,
/// so a zero-cost start still anneals).
inline constexpr double kAnnealInitialTempRatio = 0.05;

/// The schedule and objective weights of one anneal. The two shipped
/// schedules (the input placements' and kStandardInsertAnneal) differ in
/// these four; what they share is the constants above and an area weight
/// of 1.
struct AnnealOptions {
    double t_final_ratio = 1e-4;
    double cooling = 0.93;
    /// Weight of bandwidth-weighted half-perimeter wire length relative to
    /// area. The paper's floorplans minimize area and wire length.
    double wirelength_weight = 0.05;
    /// Weight of the per-block distance to target positions (only applied
    /// when targets are passed to anneal_floorplan). The constrained
    /// standard-inserter baseline uses this to keep cores near their input
    /// placement and switches near their LP ideals.
    double target_weight = 0.0;
};

struct AnnealResult {
    Packing packing;
    double cost = 0.0;
    int accepted_moves = 0;
    int total_moves = 0;
};

/// Objective used by the annealer: bounding-box area +
/// wirelength_weight * sum(weight * manhattan(center_a, center_b)) +
/// target_weight * sum(manhattan(center_i, targets[i])) when targets are
/// supplied.
/// `target_weights` (optional, parallel to `targets`) scales each block's
/// pull; nullptr means weight 1 for every block.
double floorplan_cost(const Packing& packing, const std::vector<BlockDim>& dims,
                      const std::vector<FloorplanNet>& nets,
                      const AnnealOptions& opts,
                      const std::vector<Point>* targets = nullptr,
                      const std::vector<double>* target_weights = nullptr);

/// Anneal a floorplan for blocks `dims` connected by `nets`. `movable` may
/// restrict which blocks the moves touch (empty = all movable); immovable
/// blocks keep their relative sequence-pair order — this is exactly the
/// constrained mode used as the "standard floorplanner" baseline of
/// Section VIII-D. `targets`, when given, must hold one desired center per
/// block (see AnnealOptions::target_weight).
AnnealResult anneal_floorplan(const std::vector<BlockDim>& dims,
                              const std::vector<FloorplanNet>& nets,
                              const AnnealOptions& opts, Rng& rng,
                              const SequencePair* initial = nullptr,
                              const std::vector<char>* movable = nullptr,
                              const std::vector<Point>* targets = nullptr,
                              const std::vector<double>* target_weights = nullptr);

/// Floorplan each layer of a design (cores only), writing the resulting
/// positions back into `cores`. Layers are annealed bottom-up:
/// intra-layer flows become wirelength nets, and inter-layer flows to
/// already-placed lower layers become target pulls that vertically align
/// communicating cores — the "highly communicating cores are placed one
/// above the other" property of the paper's input floorplans.
void floorplan_design_layers(CoreSpec& cores, const CommSpec& comm,
                             const AnnealOptions& opts, Rng& rng);

}  // namespace sunfloor
