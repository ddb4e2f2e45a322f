// Staged synthesis pipeline with cross-point artifact reuse.
//
// SynthesisSession owns one DesignSpec and a thread-safe per-stage
// artifact cache. Running a synthesis through a session is bit-identical
// to the stateless run_synthesis() for the same (cfg, phase) — cold or
// warm, serial or from many threads — because every cached artifact is
// keyed on the complete set of inputs its stage consumed, including the
// RNG state handed to stochastic stages. Reuse is therefore unobservable
// in the results; it only shows up in the stage counters and wall clock.
//
// What each stage consumes (the contract behind the cache keys):
//
//   partition   graph identity (PG / SPG(theta, theta_max) / LPG(layer)),
//               cfg.alpha, k, the effective PartitionOptions, RNG state in
//   assignment  a partition + the cores' layer map (pure; phase 2 composes
//               several per-layer partitions)
//   routing     the assignment, cfg.eval (frequency + NoC library, wire
//               and TSV parameters — link width lives in the library's
//               flit width), cfg.max_ill, cfg.allow_multilayer_links, the
//               soft-threshold knobs, cfg.latency_weight,
//               cfg.link_capacity_utilization, and cfg.routing (the
//               RoutingPolicy discipline), so one session caches a
//               routing artifact per policy per assignment
//   placement   the routed topology's full content — not the routing
//               config, so routing configs that produce the same routed
//               topology (e.g. neighbouring frequencies) share the
//               position LP — plus cfg.run_floorplan and, when the
//               floorplan runs, the switch/TSV area models, and the
//               position solver's tag (kPlacementSolverTag), because a
//               CAS store can outlive a solver that picks other optima.
//               No RNG: the flow's legalizer (the custom inserter) is
//               deterministic, and the stage enforces that at run time
//   evaluation  the placed topology's full content, cfg.eval (frequency +
//               NoC library, wire and TSV models), cfg.max_ill, and the
//               placement config (the artifact's per-layer die areas come
//               from the floorplan side, not the topology content)
//
// Frequency and link width first appear in the *routing* stage, so
// architectural points that differ only there share partition and
// assignment artifacts — the redundancy the explorer exploits.
#pragma once

#include <memory>
#include <unordered_map>

#include "sunfloor/util/mutex.h"

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/lp/placement_lp.h"
#include "sunfloor/obs/metrics.h"
#include "sunfloor/pipeline/artifacts.h"

namespace sunfloor::cas {
class Store;
}

namespace sunfloor::pipeline {

// ------------------------------------------------------------ stage keys

/// Partition-stage fields of `cfg`: alpha plus the effective partitioner
/// options (the graph identity and RNG state are keyed separately).
std::string partition_cfg_key(const SynthesisConfig& cfg,
                              const PartitionOptions& opts);

/// Routing-stage fields of `cfg` (see the header comment).
std::string routing_cfg_key(const SynthesisConfig& cfg);

/// Placement-stage fields of `cfg`: run_floorplan and, when it is on, the
/// switch-area / TSV-macro model parameters the legalizer reads. The
/// position LP itself consumes no config at all.
std::string placement_cfg_key(const SynthesisConfig& cfg);

/// Evaluation-stage fields of `cfg`: the full cfg.eval model (frequency,
/// NoC library, wire, TSV) plus cfg.max_ill for the validity chain.
std::string eval_cfg_key(const SynthesisConfig& cfg);

/// Content key of an assignment (the vectors themselves).
std::string assignment_key(const CoreAssignment& assign);

/// Exact content serialization of a topology — core geometry snapshots,
/// switches, links and flow paths, with doubles rendered from their bit
/// patterns. Placement and evaluation artifacts are keyed on this, so two
/// routing configs that happen to produce the same routed topology (e.g.
/// neighbouring frequencies) share the position LP and its output.
std::string topology_fingerprint(const Topology& topo);

/// Exact content serialization of a switch-placement instance — the
/// position-LP solution cache keys on this.
std::string placement_problem_key(const PlacementProblem& p);

// ----------------------------------------------------- stage computation
//
// The pure stage functions are the single implementation of the flow;
// synthesize_design_point() and the session both run exactly this code.

/// Path-computation stage: initial topology, pruning rules 1 and 3
/// (Section V-C), then Algorithm 3.
RoutingArtifact route_assignment(const DesignSpec& spec,
                                 const SynthesisConfig& cfg,
                                 const CoreAssignment& assign);

/// Position stage: switch-position LP, then floorplan legalization when
/// `cfg.run_floorplan`. `rng` is handed to the legalizer for signature
/// compatibility; the flow's custom inserter never consumes it.
PlacementArtifact place_design(const RoutingArtifact& routed,
                               const DesignSpec& spec,
                               const SynthesisConfig& cfg, Rng& rng);

/// Evaluation stage: power/latency/area report plus the validity chain
/// (max_ill, latency constraints, the three deadlock-freedom checks).
DesignPoint evaluate_design(const PlacementArtifact& placed,
                            const DesignSpec& spec,
                            const SynthesisConfig& cfg);

/// The design point of an assignment whose routing stage failed: the
/// as-far-as-routed topology and the failure, never evaluated.
DesignPoint failed_design(const RoutingArtifact& routed);

/// Assignment stage, phase 1: a switch per block at the rounded average
/// layer of its cores (Step 7 of Algorithm 1).
AssignmentArtifact phase1_assignment(const PartitionArtifact& part,
                                     const CoreSpec& cores);

// ---------------------------------------------------------------- session

struct SessionOptions {
    /// Optional content-addressed spill store behind the in-memory caches:
    /// a stage miss consults the store (keyed on the stage key prefixed
    /// with a spec fingerprint) before computing, and every computed
    /// artifact is written back — so warm artifacts survive restarts and
    /// are shared across processes. A store hit counts as a stage hit in
    /// the pipeline.<stage>.* instruments (plus cas.hits in the store's
    /// own); results are bit-identical with or without the store, which is
    /// what lets distributed shards reuse each other's work safely.
    std::shared_ptr<cas::Store> cas;
};

/// Cache accounting for one stage. Under concurrent runs two threads may
/// race to compute the same key — both count as misses and the results
/// are bitwise identical either way, so the counters are exact for serial
/// runs and a close lower bound on reuse for parallel ones.
struct StageCounters {
    long long hits = 0;
    long long misses = 0;
    double compute_ms = 0.0;  ///< wall clock spent computing misses

    long long calls() const { return hits + misses; }
};

/// Snapshot view over the session's metrics registry (stats() builds one
/// from the "pipeline.<stage>.*" instruments). The same adds flow into
/// obs::Registry::global(), so `--metrics` sees process-wide totals.
struct SessionStats {
    StageCounters partition;
    StageCounters routing;
    StageCounters placement;
    /// The position-LP solve inside the placement stage, cached separately
    /// and keyed on the exact Eq. 2-5 instance: routed topologies that
    /// merge to the same connection graph share the solve even when their
    /// flow paths (and so their placement artifacts) differ. The path it
    /// serves is a floorplan-off rerun on a session that ran with the
    /// floorplan on: the placement key changes with the floorplan flag,
    /// the LP instance does not. On perfbench's inputs that rerun hits 167
    /// of 177 solves; cold syntheses and the explore grid hit next to none.
    StageCounters position_lp;
    StageCounters evaluation;
};

/// Difference of two snapshots (per-run deltas for the explorer stats).
SessionStats operator-(const SessionStats& a, const SessionStats& b);

/// Sum of two snapshots (the dist coordinator accumulates shard deltas).
SessionStats operator+(const SessionStats& a, const SessionStats& b);

class SynthesisSession {
  public:
    explicit SynthesisSession(DesignSpec spec, SessionOptions opts = {});

    const DesignSpec& spec() const { return spec_; }
    const SessionOptions& options() const { return opts_; }

    // Cached stage calls. Artifacts are immutable and shared — callers
    // must not mutate through the pointers.

    /// Core-partitioning stage: k-way min-cut of `graph` starting from
    /// `rng_in`. `opts` is the *effective* partitioner configuration
    /// (phase 2 overrides the block-size bound per call).
    std::shared_ptr<const PartitionArtifact> partition(
        const PartitionGraphId& graph, int k, const SynthesisConfig& cfg,
        const PartitionOptions& opts, const RngState& rng_in)
        SF_EXCLUDES(mu_);

    /// Path-computation stage for one assignment.
    std::shared_ptr<const RoutingArtifact> route(
        const AssignmentArtifact& assign, const SynthesisConfig& cfg)
        SF_EXCLUDES(mu_);

    /// Position stage (LP + optional floorplan legalization) for a routed
    /// design. Pure: throws std::logic_error if a (future) legalizer
    /// consumes the generator, since the cache key assumes it cannot.
    std::shared_ptr<const PlacementArtifact> place(
        const RoutingArtifact& routed, const SynthesisConfig& cfg)
        SF_EXCLUDES(mu_);

    /// Evaluation stage for a placed design.
    std::shared_ptr<const EvaluatedDesign> evaluate(
        const PlacementArtifact& placed, const SynthesisConfig& cfg)
        SF_EXCLUDES(mu_);

    /// The composed routing -> placement -> evaluation flow of one
    /// assignment — synthesize_design_point() through the caches (none of
    /// these stages consumes the generator). Stamps the sweep labels and
    /// accumulates into `timing` when given.
    DesignPoint synthesize(const AssignmentArtifact& assign,
                           const SynthesisConfig& cfg,
                           const std::string& phase, double theta,
                           StageTiming* timing = nullptr);

    /// Algorithm 1 / Algorithm 2 drivers, bit-identical to run_phase1 /
    /// run_phase2 with an Rng at `rng`'s state.
    std::vector<DesignPoint> phase1(const SynthesisConfig& cfg,
                                    RngState& rng,
                                    StageTiming* timing = nullptr);
    std::vector<DesignPoint> phase2(const SynthesisConfig& cfg,
                                    RngState& rng,
                                    StageTiming* timing = nullptr);

    /// The full flow — bit-identical to run_synthesis(spec(), cfg, phase)
    /// regardless of what is cached or which threads ran before.
    SynthesisResult run(const SynthesisConfig& cfg,
                        SynthesisPhase phase = SynthesisPhase::Auto);

    /// Cumulative cache accounting since construction (or clear()) — a
    /// snapshot of this session's registry instruments.
    SessionStats stats() const;

    /// This session's metrics registry (parented to Registry::global()).
    obs::Registry& registry() { return registry_; }

    /// Cached artifacts over all stages (graphs excluded).
    std::size_t artifact_count() const SF_EXCLUDES(mu_);

    /// Drop every cached artifact and reset the counters.
    void clear() SF_EXCLUDES(mu_);

  private:
    struct GraphEntry;

    /// Resolved instrument handles for one stage's hit/miss/compute-time
    /// accounting ("pipeline.<stage>.hits" and friends). Resolved once at
    /// construction; stage hot paths bump them with single atomic adds.
    struct StageMetrics {
        obs::Counter* hits = nullptr;
        obs::Counter* misses = nullptr;
        obs::Gauge* compute_ms = nullptr;
    };
    StageMetrics stage_metrics(const char* stage);

    /// Build-or-fetch the partition graph named by `graph` for this
    /// spec + alpha (graph construction is deterministic and cheap; the
    /// cache just avoids rebuilding per call).
    std::shared_ptr<const GraphEntry> graph_for(const PartitionGraphId& graph,
                                                double alpha)
        SF_EXCLUDES(mu_);

    DesignSpec spec_;
    SessionOptions opts_;
    /// CAS key namespace for this spec ("s<16-hex of spec text>|"); empty
    /// when no store is attached.
    std::string cas_prefix_;

    obs::Registry registry_{&obs::Registry::global()};
    StageMetrics m_partition_;
    StageMetrics m_routing_;
    StageMetrics m_placement_;
    StageMetrics m_position_lp_;
    StageMetrics m_evaluation_;

    /// One lock over all six stage caches. Stage methods hold it only for
    /// the find/emplace around a compute — never across a stage
    /// computation or a CAS round-trip — so concurrent misses on the same
    /// key race benignly (first emplace wins; results are bit-identical).
    /// The artifacts themselves are immutable once published, which is
    /// why handing out shared_ptrs of them needs no further guarding.
    mutable util::Mutex mu_;
    std::unordered_map<std::string, std::shared_ptr<const GraphEntry>>
        graphs_ SF_GUARDED_BY(mu_);
    std::unordered_map<std::string, std::shared_ptr<const PartitionArtifact>>
        partitions_ SF_GUARDED_BY(mu_);
    std::unordered_map<std::string, std::shared_ptr<const RoutingArtifact>>
        routings_ SF_GUARDED_BY(mu_);
    std::unordered_map<std::string, std::shared_ptr<const PlacementArtifact>>
        placements_ SF_GUARDED_BY(mu_);
    std::unordered_map<std::string, std::shared_ptr<const PlacementResult>>
        lp_solutions_ SF_GUARDED_BY(mu_);
    std::unordered_map<std::string, std::shared_ptr<const EvaluatedDesign>>
        evaluations_ SF_GUARDED_BY(mu_);
};

}  // namespace sunfloor::pipeline
