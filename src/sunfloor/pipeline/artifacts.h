// Immutable artifacts of the staged synthesis pipeline.
//
// The Fig. 3 flow decomposes into explicit stages:
//
//   core partitioning -> switch-layer assignment -> path computation
//     -> position LP + floorplan -> evaluation
//
// Each stage's output is one of the value types below, except the
// assignment's, which is a plain CoreAssignment (core/design_point.h).
// Phase 1's assignment is a pure function of one PG or SPG partition, so
// that partition artifact carries it, derived once when the artifact is
// computed or decoded (never serialized: the store holds the blocks);
// phase 2 composes one from several per-layer partitions on each call.
// A SynthesisSession caches every other output under a key that holds
// *exactly* the (spec, cfg, RNG) inputs the stage consumed (see
// session.h): a struct of those inputs for partitions, the assignment
// vectors plus the run's routing config for routings, and for placements
// and evaluations the input artifact itself plus the stage's config.
// Every key compares by content, and its bytes are written only as a CAS
// address. Two stage calls with equal keys
// produce bit-identical artifacts, which is what lets the session reuse
// them across architectural points that agree on the consumed fields —
// e.g. partition artifacts across points that differ only in frequency
// or link width.
//
// Topologies are immutable and shared (SharedTopology). The routing
// artifact publishes the routed topology and the placement artifact a
// copy with the switches moved; the evaluated design (computed, or read
// from a store by the placement it was keyed on) and every DesignPoint
// returned for it share the placed one, and a failed design shares the
// routed one. A warm rerun therefore copies no topology.
//
// The routing and placement artifacts carry their topology's content
// hash (Topology::content_hash), taken once when the artifact is created
// or decoded: it is how the next stage's cache finds them.
//
// The one stochastic stage (partitioning; the flow's floorplan legalizer
// is the deterministic custom inserter) threads the RNG explicitly: it
// takes the generator state as an input (part of the key) and records the
// state it left behind in `rng_after`, so replaying a cached artifact
// advances the caller's generator exactly as recomputing it would. That
// makes cache hits unobservable in the results, by construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sunfloor/core/design_point.h"

namespace sunfloor::pipeline {

/// Which graph the partition stage cuts (Section V).
struct PartitionGraphId {
    enum class Kind {
        PG,   ///< plain partition graph (Definition 3)
        SPG,  ///< scaled partition graph for one theta (Definition 4)
        LPG,  ///< per-layer partition graph (Definition 5)
    };

    Kind kind = Kind::PG;
    double theta = 0.0;      ///< SPG only
    double theta_max = 0.0;  ///< SPG only (Eq. 1's normalization bound)
    int layer = -1;          ///< LPG only

    static PartitionGraphId pg() { return {}; }
    static PartitionGraphId spg(double theta, double theta_max) {
        return {Kind::SPG, theta, theta_max, -1};
    }
    static PartitionGraphId lpg(int layer) {
        return {Kind::LPG, 0.0, 0.0, layer};
    }
};

/// Output of the core-partitioning stage: one balanced k-way min-cut of
/// one partition graph.
struct PartitionArtifact {
    std::vector<int> block;  ///< block[vertex] in [0, k)
    double cut_weight = 0.0;
    int k = 0;
    RngState rng_after;  ///< generator state after the multi-start cut
    /// phase1_assignment of this cut for a PG or SPG cut (whose vertices
    /// are the spec's cores); empty for an LPG cut. Set by the session
    /// when it computes or decodes the artifact.
    CoreAssignment assign;
};

/// Output of the path-computation stage: the initial topology of an
/// assignment with every flow routed (Algorithm 3), or — when a pruning
/// rule or the path computation rejected it — the topology as far as
/// routing got, plus the failure.
struct RoutingArtifact {
    /// Publish the finished topology `t`.
    explicit RoutingArtifact(Topology t) : topo(std::move(t)) {}

    SharedTopology topo;
    bool ok = false;
    std::string fail_reason;  ///< set when !ok
    int failed_flows = 0;         ///< flows Algorithm 3 left unrouted
    int capacity_violations = 0;  ///< links left oversubscribed
    /// topo->content_hash() of the final topology, set by route_assignment
    /// and decode_routing; the placement cache probes with it.
    std::uint64_t topo_hash = 0;
};

/// Output of the position stage: switch coordinates from the LP (Eq. 2-5)
/// written into the topology and, when the config runs the floorplan, the
/// legalized positions and per-layer die areas. The stage is a pure
/// function of the routed topology and the placement config — the flow's
/// legalizer (the custom inserter) is deterministic, which the session
/// enforces at run time (see SynthesisSession::place).
struct PlacementArtifact {
    /// Publish the finished topology `t`.
    explicit PlacementArtifact(Topology t) : topo(std::move(t)) {}

    SharedTopology topo;
    std::vector<double> layer_die_area_mm2;  ///< empty without floorplan
    /// topo->content_hash() of the placed topology, set by the position
    /// stage and decode_placement; the evaluation cache probes with it.
    std::uint64_t topo_hash = 0;
};

/// Output of the evaluation stage: a fully evaluated design point. The
/// sweep labels (phase, theta, switch_count) are the caller's business —
/// the cached copy keeps whatever the first computation wrote, and the
/// drivers re-stamp them after a cache hit.
struct EvaluatedDesign {
    explicit EvaluatedDesign(DesignPoint p) : point(std::move(p)) {}

    DesignPoint point;
};

}  // namespace sunfloor::pipeline
