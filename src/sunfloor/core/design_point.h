// Shared synthesis types: configuration, core-to-switch assignment, design
// points and Pareto filtering.
//
// SynthesisConfig holds only settings that a tool, bench or example sets.
// The fixed parameters of the flow are constants beside the code that
// reads them: Algorithm 3's soft-threshold margins and SOFT_INF factor in
// routing/cost_model.h, the FM pass limit in graph/partition.h, the
// component models' calibration values in model/ (the evaluation model
// takes only the frequency and the link width). Partitioning runs with
// PartitionOptions{} (Phase 2 bounds only its per-layer block size), and
// the NoC inserter's search constants live in floorplan/inserter.h.
//
// The synthesis procedure outputs "a set of tradeoff points of topologies
// that meet the constraints, with different values of power, latency, and
// design area" (Section IV); DesignPoint is one such point.
#pragma once

#include <string>
#include <vector>

#include "sunfloor/noc/evaluation.h"
#include "sunfloor/noc/topology.h"
#include "sunfloor/routing/policy.h"
#include "sunfloor/spec/parser.h"
#include "sunfloor/util/rng.h"

namespace sunfloor {

/// All knobs of the synthesis flow (Section IV inputs).
struct SynthesisConfig {
    /// Operating frequency and link width.
    EvalParams eval{};

    /// Maximum NoC links crossing any adjacent layer boundary (the TSV
    /// yield constraint, translated to links — Section IV).
    int max_ill = 25;

    /// Technology freedom explored by Phase 1: vertical links may span
    /// multiple layers and cores may connect to switches in other layers.
    /// Phase 2 ignores this (it is adjacent-only by construction).
    bool allow_multilayer_links = true;

    /// PG weight parameter alpha (Definition 3): 1.0 = pure bandwidth,
    /// 0.0 = pure latency.
    double alpha = 1.0;

    /// Theta sweep of Algorithm 1 (the paper found 1..15 step 3 works well).
    double theta_min = 1.0;
    double theta_max = 15.0;
    double theta_step = 3.0;

    /// Ablation switch: disable Algorithm 3's soft thresholds entirely.
    bool use_soft_thresholds = true;

    /// Routing discipline: the admissible route set of the path
    /// computation and (for adaptive policies) of the simulator's per-hop
    /// output selection. The default reproduces the paper's up*/down*
    /// order bit for bit (see routing/policy.h).
    routing::RoutingPolicyId routing = routing::RoutingPolicyId::UpDown;

    /// Determinism: the seed of every stochastic stage.
    std::uint64_t seed = Rng::kDefaultSeed;

    /// Legalize switch/TSV positions into the floorplan (Section VII); off
    /// speeds up sweeps that only need topology-level numbers.
    bool run_floorplan = true;

    /// Phase 1 sweeps 1..max_switches switches; <= 0 means 1..|cores|.
    /// Phase 2 follows Algorithm 2's schedule.
    int max_switches = 0;
};

/// Output of the partitioning step: which switch each core hangs off and
/// which layer each switch is assigned to (Step 7 of Algorithm 1).
struct CoreAssignment {
    std::vector<int> core_switch;
    std::vector<int> switch_layer;

    int num_switches() const {
        return static_cast<int>(switch_layer.size());
    }
};

/// One synthesized and evaluated topology.
struct DesignPoint {
    explicit DesignPoint(Topology t) : topo(std::move(t)) {}
    /// Share a published topology (the pipeline's artifacts).
    explicit DesignPoint(SharedTopology t) : topo(std::move(t)) {}

    std::string phase;     ///< "phase1" or "phase2"
    int switch_count = 0;  ///< switches in the topology (before pruning)
    double theta = 0.0;    ///< theta used (0 = plain PG)
    /// Shared with the session's artifacts and with every copy of this
    /// point: a copy of a DesignPoint copies no topology.
    SharedTopology topo;
    EvalReport report;
    /// Die area per layer after NoC insertion (empty when run_floorplan is
    /// false).
    std::vector<double> layer_die_area_mm2;
    bool valid = false;
    std::string fail_reason;
    /// Links the path computation left oversubscribed (> capacity); only
    /// ever non-zero on failed points, surfaced by write_synthesis_report
    /// and the explore exports so capacity failures are not buried in the
    /// fail_reason text.
    int capacity_violations = 0;

    double total_die_area_mm2() const {
        double a = 0.0;
        for (double v : layer_die_area_mm2) a += v;
        return a;
    }
};

/// Pareto dominance over (total power, avg latency, NoC area): true when
/// `a` is no worse on all three and strictly better on at least one. The
/// single rule behind pareto_front and the explorer's global front.
bool dominates(const EvalReport& a, const EvalReport& b);

/// Indices of the Pareto-optimal points over (power, latency, area), among
/// valid points only.
std::vector<int> pareto_front(const std::vector<DesignPoint>& points);

/// Index of the valid point with the lowest total power; -1 when none.
int best_power_point(const std::vector<DesignPoint>& points);

/// Index of the valid point with the lowest average latency; -1 when none.
int best_latency_point(const std::vector<DesignPoint>& points);

/// Build the initial topology induced by a core assignment: switches at
/// bandwidth-weighted centroids of their cores, plus the core->switch and
/// switch->core links demanded by the flows. Inter-switch links are *not*
/// created — that is the path computation's job.
Topology build_initial_topology(const DesignSpec& spec,
                                const CoreAssignment& assign);

}  // namespace sunfloor
