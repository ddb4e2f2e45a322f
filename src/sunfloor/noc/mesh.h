// Optimized mesh baseline (Section VIII-E).
//
// The paper compares its custom topologies against "the best mapping
// (optimizing for power, meeting the latency constraints) of the cores
// onto a mesh topology, with any unused switch-to-switch links removed".
// This module builds that baseline:
//   * one switch per mesh tile, a per-layer grid shared by all layers so
//     vertical links align;
//   * cores are mapped to tiles of their own layer by simulated annealing
//     minimizing bandwidth-weighted hop count with a latency penalty (one
//     schedule, the constants below);
//   * flows are routed X-then-Y-then-Z (dimension-ordered, deadlock-free);
//   * switches and links never touched by a flow are dropped before the
//     topology is evaluated.
#pragma once

#include "sunfloor/noc/topology.h"
#include "sunfloor/spec/parser.h"
#include "sunfloor/util/rng.h"

namespace sunfloor {

/// Mapping-anneal moves per temperature step, per core.
inline constexpr int kMeshMovesPerCore = 16;
/// The start temperature is this fraction of the initial mapping cost.
inline constexpr double kMeshInitialTempRatio = 0.05;
/// Temperature factor per step.
inline constexpr double kMeshCooling = 0.92;
/// The anneal stops below this fraction of its start temperature.
inline constexpr double kMeshFinalTempRatio = 1e-4;
/// Mapping-cost penalty per cycle of latency-constraint violation, as a
/// multiple of the design's total bandwidth.
inline constexpr double kMeshLatencyPenalty = 10.0;

struct MeshResult {
    Topology topo;       ///< pruned mesh with routed flows
    int grid_w = 0;      ///< tiles per row
    int grid_h = 0;      ///< tiles per column
    /// The annealed mapping's cost: per flow, bandwidth times the
    /// switches it traverses (hops + 1), plus the latency penalty.
    double map_cost = 0.0;
    bool ok = false;     ///< all flows routed
};

/// Build, map and route the optimized-mesh baseline for a design.
MeshResult build_mesh_baseline(const DesignSpec& spec, Rng& rng);

}  // namespace sunfloor
