// Staged synthesis pipeline with cross-point artifact reuse.
//
// SynthesisSession is the one implementation of the Fig. 3 flow. It owns
// one DesignSpec and a thread-safe per-stage artifact cache; the
// stateless run_synthesis() runs a cold session. A warm session is
// bit-identical to a cold one for the same (cfg, phase) — serial or from
// many threads — because every cached artifact is keyed on the complete
// set of inputs its stage consumed, including the RNG state handed to
// stochastic stages. Reuse is therefore unobservable in the results; it
// only shows up in the stage counters and wall clock.
//
// What each stage consumes (the contract behind the cache keys):
//
//   partition   graph identity (PG / SPG(theta, theta_max) / LPG(layer)),
//               cfg.alpha, k, the effective PartitionOptions, RNG state in
//   assignment  a partition + the cores' layer map (pure; phase 2 composes
//               several per-layer partitions). Rebuilt on every call
//               from the cached partitions; never cached or stored
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
// How the caches hold those inputs. Partition and routing keys are
// strings that serialize them (doubles as the hex of their bits). The
// placement and evaluation caches key on their input artifact itself —
// the routed or placed topology, shared with the cache upstream — plus
// the stage's config string (a ContentKey): a probe hashes the
// artifact's stored topo_hash, and a hit is verified by bitwise content
// equality (Topology::same_content), so a warm lookup is one hash probe
// and one equality check, and a hash collision can never serve another
// topology's artifact. The config strings are built once per phase1 /
// phase2 call. The text form of a placement or evaluation key, with the
// topology_fingerprint in it, is rendered only as a CAS address, when a
// store is attached.
//
// Misses are single-flight: a thread that misses on a key another thread
// is computing waits for that computation and counts a hit, and a
// computation that throws hands its exception to every waiter and leaves
// no entry behind. Each distinct key is therefore computed once, and the
// stage counters are exact at any thread count.
//
// Frequency and link width first appear in the *routing* stage, so
// architectural points that differ only there share partition artifacts
// (and so rebuild the same assignments) — the redundancy the explorer
// exploits.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <type_traits>
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
/// patterns. The CAS addresses of placement and evaluation artifacts
/// embed it; the in-memory caches compare the same fields directly
/// (Topology::same_content), so it is rendered only for a store.
std::string topology_fingerprint(const Topology& topo);

/// Exact content serialization of a switch-placement instance — the
/// position-LP solution cache keys on this.
std::string placement_problem_key(const PlacementProblem& p);

// ----------------------------------------------------- stage computation
//
// The pure bodies of the routing, evaluation and phase-1 assignment
// stages. SynthesisSession runs them behind its caches; the session's
// place() is the position stage itself.

/// Where the routing stage ended for one assignment. The session counts
/// every computed routing under pipeline.routing.<name>, so the four
/// counters sum to pipeline.routing.misses.
enum class RoutingOutcome {
    Routed,            ///< "routed": every flow routed within capacity
    PrunedIll,         ///< "pruned_ill": pruning rule 3 (max_ill)
    PrunedSwitchSize,  ///< "pruned_switch_size": pruning rule 1
    PathsFailed,       ///< "paths_failed": Algorithm 3 left flows unrouted
                       ///< or links oversubscribed
};

/// Path-computation stage: initial topology, pruning rules 1 and 3
/// (Section V-C), then Algorithm 3. Writes where it ended to `outcome`
/// when given. The artifact publishes the topology and carries its
/// content hash.
RoutingArtifact route_assignment(const DesignSpec& spec,
                                 const SynthesisConfig& cfg,
                                 const CoreAssignment& assign,
                                 RoutingOutcome* outcome = nullptr);

/// Where the evaluation stage's validity chain ended for one placed
/// design. The session counts every computed evaluation under
/// pipeline.evaluation.<name>, so the six counters sum to
/// pipeline.evaluation.misses.
enum class EvaluationOutcome {
    Valid,            ///< "valid": every check passed
    MaxIll,           ///< "max_ill": more inter-layer links than max_ill
    Latency,          ///< "latency": flows over their latency constraint
    RoutingDeadlock,  ///< "routing_deadlock": a channel dependency cycle
    MessageDeadlock,  ///< "message_deadlock": message-dependent deadlock
    SharedChannel,    ///< "shared_channel": the two message classes share
                      ///< a channel
};

/// Evaluation stage: power/latency/area report plus the validity chain
/// (max_ill, latency constraints, the three deadlock-freedom checks).
/// The point shares the placed topology. Writes where the chain ended to
/// `outcome` when given.
DesignPoint evaluate_design(const PlacementArtifact& placed,
                            const DesignSpec& spec,
                            const SynthesisConfig& cfg,
                            EvaluationOutcome* outcome = nullptr);

/// The design point of an assignment whose routing stage failed: the
/// as-far-as-routed topology (shared with `routed`) and the failure,
/// never evaluated.
DesignPoint failed_design(const RoutingArtifact& routed);

/// Assignment stage, phase 1: a switch per block at the rounded average
/// layer of its cores (Step 7 of Algorithm 1).
AssignmentArtifact phase1_assignment(const PartitionArtifact& part,
                                     const CoreSpec& cores);

// ---------------------------------------------------------------- session

struct SessionOptions {
    /// Optional content-addressed spill store behind the in-memory caches:
    /// a stage miss consults the store (keyed on the stage key's text
    /// form prefixed with a spec fingerprint) before computing, and every
    /// computed artifact is written back — so warm artifacts survive
    /// restarts and are shared across processes. A store hit counts as a
    /// stage hit in the pipeline.<stage>.* instruments (plus cas.hits in
    /// the store's own); an intact object the codec rejects is recomputed
    /// and replaced, and counted in cas.undecodable. Results are
    /// bit-identical with or without the store, which is what lets
    /// distributed shards reuse each other's work safely.
    std::shared_ptr<cas::Store> cas;
};

/// Cache accounting for one stage. A miss is one computation of a
/// distinct key (including a store lookup that found nothing usable); a
/// hit is a call served from memory, from the store, or by waiting on
/// another thread's computation of the same key. Misses are
/// single-flight, so both counts are exact at any thread count: a
/// parallel run counts what a serial run of the same calls would.
struct StageCounters {
    long long hits = 0;
    long long misses = 0;
    double compute_ms = 0.0;  ///< wall clock spent computing misses

    long long calls() const { return hits + misses; }
};

/// Snapshot view over the session's metrics registry (stats() builds one
/// from the "pipeline.<stage>.*" instruments). The same adds flow into
/// obs::Registry::global(), so `--metrics` sees process-wide totals.
/// Exact per stage (see StageCounters), so the explore JSON's `stages`
/// block does not depend on the thread count.
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
        const AssignmentArtifact& assign, const SynthesisConfig& cfg);

    /// Position stage for a routed design: the switch-position LP
    /// (Eq. 2-5), then floorplan legalization when `cfg.run_floorplan`.
    /// Keyed on `routed` itself (its topo_hash and content), which the
    /// cache holds on to. Pure: throws std::logic_error if a (future)
    /// legalizer consumes the generator, since the key assumes it cannot.
    std::shared_ptr<const PlacementArtifact> place(
        std::shared_ptr<const RoutingArtifact> routed,
        const SynthesisConfig& cfg);

    /// Evaluation stage for a placed design, keyed on `placed` itself.
    std::shared_ptr<const EvaluatedDesign> evaluate(
        std::shared_ptr<const PlacementArtifact> placed,
        const SynthesisConfig& cfg);

    /// The composed routing -> placement -> evaluation flow of one
    /// assignment (none of these stages consumes the generator). Stamps
    /// the sweep labels and accumulates into `timing` when given.
    DesignPoint synthesize(const AssignmentArtifact& assign,
                           const SynthesisConfig& cfg,
                           const std::string& phase, double theta,
                           StageTiming* timing = nullptr);

    /// Algorithm 1 / Algorithm 2 drivers. `rng` is the generator state in
    /// and out: every partition advances it, computed or replayed from a
    /// cache alike, and run() chains Phase 2 onto the state Phase 1 left.
    std::vector<DesignPoint> phase1(const SynthesisConfig& cfg,
                                    RngState& rng,
                                    StageTiming* timing = nullptr);
    std::vector<DesignPoint> phase2(const SynthesisConfig& cfg,
                                    RngState& rng,
                                    StageTiming* timing = nullptr);

    /// The full flow — bit-identical to run_synthesis(spec(), cfg, phase)
    /// regardless of what is cached or which threads ran before. Throws
    /// std::invalid_argument, naming the field, when Algorithm 1's theta
    /// sweep cannot advance (a theta_step that is not finite and
    /// positive, or a non-finite theta_min or theta_max) or when a hop
    /// cost input is out of range: an eval.freq_hz that is not finite
    /// and positive, a negative max_ill, or a negative soft margin.
    SynthesisResult run(const SynthesisConfig& cfg,
                        SynthesisPhase phase = SynthesisPhase::Auto);

    /// Cumulative cache accounting since construction, a snapshot of
    /// this session's registry instruments.
    SessionStats stats() const;

    /// This session's metrics registry (parented to Registry::global()).
    obs::Registry& registry() { return registry_; }

    /// Cached artifacts over all stages, plus keys being computed
    /// (graphs excluded).
    std::size_t artifact_count() const;

  private:
    struct GraphEntry;

    /// The config half of a placement or evaluation key, built once per
    /// run and shared by every key the run makes: the CAS key text that
    /// goes before and after the topology fingerprint, and its hash.
    struct StageConfig {
        StageConfig(std::string head, std::string tail);

        std::string head;  ///< "pl|<solver tag>|" or "ev|"
        std::string tail;  ///< "|" + placement_cfg_key [+ "|" + eval_cfg_key]
        std::uint64_t hash;

        friend bool operator==(const StageConfig& a, const StageConfig& b) {
            return a.hash == b.hash && a.tail == b.tail && a.head == b.head;
        }
    };

    /// A placement or evaluation key: the stage's input artifact (a
    /// RoutingArtifact or a PlacementArtifact) plus the run's StageConfig,
    /// both held by shared_ptr, so a key owns no copy of the topology. It
    /// hashes the input's stored topo_hash with the config's hash; two
    /// keys are equal when their configs are and their topologies have
    /// Topology::same_content — the same artifact object, as on every
    /// warm rerun, short-cuts both. text() is the CAS address, with the
    /// topology_fingerprint in it.
    template <typename Input>
    struct ContentKey {
        std::shared_ptr<const Input> input;
        std::shared_ptr<const StageConfig> cfg;

        struct Hash {
            std::size_t operator()(const ContentKey& k) const {
                return static_cast<std::size_t>(k.input->topo_hash ^
                                                k.cfg->hash);
            }
        };
        friend bool operator==(const ContentKey& a, const ContentKey& b) {
            return (a.cfg == b.cfg || *a.cfg == *b.cfg) &&
                   (a.input == b.input ||
                    a.input->topo->same_content(*b.input->topo));
        }
        std::string text() const {
            return cfg->head + topology_fingerprint(*input->topo) + cfg->tail;
        }
    };
    using PlacementKey = ContentKey<RoutingArtifact>;
    using EvaluationKey = ContentKey<PlacementArtifact>;

    /// The routing, placement and evaluation config keys of one run,
    /// built once per phase1 / phase2 call rather than per assignment.
    struct RunKeys {
        explicit RunKeys(const SynthesisConfig& cfg);

        std::string routing;  ///< "|" + routing_cfg_key(cfg)
        std::shared_ptr<const StageConfig> placement;
        std::shared_ptr<const StageConfig> evaluation;
    };

    /// One stage's artifact cache: a key -> slot map under its own lock,
    /// plus the stage's "<name>.hits" / ".misses" / ".compute_ms"
    /// instruments. A slot holds the published artifact, or the Flight
    /// of the one thread computing it. The lock is held only to find or
    /// change a slot, never across a stage computation or a CAS round
    /// trip. Artifacts are immutable once published, which is why handing
    /// out shared_ptrs of them needs no further guarding. Only the stage
    /// routine cached() looks up and fills one, so it is the one place a
    /// memory bound would evict.
    template <typename Key, typename Artifact,
              typename Hash = std::hash<Key>>
    class StageCache {
      public:
        using Ptr = std::shared_ptr<const Artifact>;

        /// One key's computation in progress. Threads that miss on the
        /// key meanwhile wait() on it; the computing thread land()s it.
        class Flight {
          public:
            /// Block until landed: the artifact, or the computing
            /// thread's exception rethrown.
            Ptr wait() SF_EXCLUDES(mu_) {
                util::UniqueLock lock(mu_);
                while (!landed_) landed_cv_.wait(lock);
                if (error_) std::rethrow_exception(error_);
                return artifact_;
            }

            void land(Ptr artifact, std::exception_ptr error)
                SF_EXCLUDES(mu_) {
                {
                    util::MutexLock lock(mu_);
                    landed_ = true;
                    artifact_ = std::move(artifact);
                    error_ = std::move(error);
                }
                landed_cv_.notify_all();
            }

          private:
            util::Mutex mu_;
            util::CondVar landed_cv_;
            bool landed_ SF_GUARDED_BY(mu_) = false;
            Ptr artifact_ SF_GUARDED_BY(mu_);
            std::exception_ptr error_ SF_GUARDED_BY(mu_);
        };

        /// `name` is the stage's span name ("pipeline.<stage>"), a string
        /// literal: the tracer stores the pointer.
        StageCache(obs::Registry& registry, const char* name)
            : name(name),
              hits(registry.counter(std::string(name) + ".hits")),
              misses(registry.counter(std::string(name) + ".misses")),
              compute_ms(registry.gauge(std::string(name) + ".compute_ms")) {}

        /// The artifact published under `key`, or — when another thread
        /// is computing it — that thread's result (its exception is
        /// rethrown here). Otherwise registers `claim` as the key's
        /// flight and returns nullptr: the caller computes, then calls
        /// publish() or abandon().
        Ptr find_or_claim(const Key& key, std::shared_ptr<Flight>& claim)
            SF_EXCLUDES(mu_) {
            std::shared_ptr<Flight> running;
            {
                util::MutexLock lock(mu_);
                auto it = map_.find(key);
                if (it == map_.end()) {
                    claim = std::make_shared<Flight>();
                    map_.emplace(key, Slot{nullptr, claim});
                    return nullptr;
                }
                if (it->second.artifact) return it->second.artifact;
                running = it->second.flight;
            }
            return running->wait();
        }

        /// Publish the claimed key's artifact and wake its waiters.
        Ptr publish(const Key& key, const std::shared_ptr<Flight>& claim,
                    Ptr artifact) SF_EXCLUDES(mu_) {
            {
                util::MutexLock lock(mu_);
                auto it = map_.find(key);
                if (it != map_.end() && it->second.flight == claim)
                    it->second = Slot{artifact, nullptr};
            }
            claim->land(artifact, nullptr);
            return artifact;
        }

        /// Drop the claimed key's slot and hand `error` to its waiters.
        void abandon(const Key& key, const std::shared_ptr<Flight>& claim,
                     std::exception_ptr error) SF_EXCLUDES(mu_) {
            {
                util::MutexLock lock(mu_);
                auto it = map_.find(key);
                if (it != map_.end() && it->second.flight == claim)
                    map_.erase(it);
            }
            claim->land(nullptr, std::move(error));
        }

        /// Published artifacts plus keys in flight.
        std::size_t size() const SF_EXCLUDES(mu_) {
            util::MutexLock lock(mu_);
            return map_.size();
        }

        StageCounters counters() const {
            return {hits.value(), misses.value(), compute_ms.value()};
        }

        const char* const name;
        obs::Counter& hits;
        obs::Counter& misses;
        obs::Gauge& compute_ms;  ///< wall clock spent computing misses

      private:
        struct Slot {
            Ptr artifact;                    ///< null while in flight
            std::shared_ptr<Flight> flight;  ///< null once published
        };

        mutable util::Mutex mu_;
        std::unordered_map<Key, Slot, Hash> map_ SF_GUARDED_BY(mu_);
    };

    /// The CAS codec of an artifact kind the store spills (session.cpp).
    template <typename Artifact>
    struct StageCodec;

    /// The stage routine every cached stage call runs: memory lookup
    /// (a hit, or a wait on the thread computing the key), then — for
    /// the one thread that claimed the key — a store lookup when `codec`
    /// is given and a store is attached, `compute()` under the stage's
    /// span and timer, the write-back to the store and the publish. A
    /// compute that throws leaves no entry and reaches every waiter.
    /// `span_arg` names an integer arg of the span (nullptr: none).
    template <typename Key, typename Artifact, typename Hash,
              typename Compute>
    std::shared_ptr<const Artifact> cached(
        StageCache<Key, Artifact, Hash>& cache, const Key& key,
        const std::type_identity_t<StageCodec<Artifact>>* codec,
        Compute&& compute, const char* span_arg = nullptr,
        long long span_value = 0);

    // The stage calls above, on a run's prebuilt config keys.
    DesignPoint synthesize(const AssignmentArtifact& assign,
                           const SynthesisConfig& cfg, const RunKeys& keys,
                           const std::string& phase, double theta,
                           StageTiming* timing);
    std::shared_ptr<const RoutingArtifact> route(
        const AssignmentArtifact& assign, const SynthesisConfig& cfg,
        const RunKeys& keys);
    std::shared_ptr<const PlacementArtifact> place(
        std::shared_ptr<const RoutingArtifact> routed,
        const SynthesisConfig& cfg, const RunKeys& keys);
    std::shared_ptr<const EvaluatedDesign> evaluate(
        std::shared_ptr<const PlacementArtifact> placed,
        const SynthesisConfig& cfg, const RunKeys& keys);

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
    /// Store objects whose checksum held but whose payload the stage
    /// codec rejected (global "cas.undecodable"; recomputed and replaced).
    obs::Counter& cas_undecodable_{
        obs::Registry::global().counter("cas.undecodable")};

    obs::Registry registry_{&obs::Registry::global()};
    StageCache<std::string, PartitionArtifact> partitions_{
        registry_, "pipeline.partition"};
    StageCache<std::string, RoutingArtifact> routings_{registry_,
                                                       "pipeline.routing"};
    StageCache<PlacementKey, PlacementArtifact, PlacementKey::Hash>
        placements_{registry_, "pipeline.placement"};
    StageCache<std::string, PlacementResult> lp_solutions_{
        registry_, "pipeline.position_lp"};
    StageCache<EvaluationKey, EvaluatedDesign, EvaluationKey::Hash>
        evaluations_{registry_, "pipeline.evaluation"};
    /// Why computed routings ended, indexed by RoutingOutcome.
    obs::Counter* routing_outcomes_[4] = {
        &registry_.counter("pipeline.routing.routed"),
        &registry_.counter("pipeline.routing.pruned_ill"),
        &registry_.counter("pipeline.routing.pruned_switch_size"),
        &registry_.counter("pipeline.routing.paths_failed"),
    };
    /// Why computed evaluations ended, indexed by EvaluationOutcome.
    obs::Counter* evaluation_outcomes_[6] = {
        &registry_.counter("pipeline.evaluation.valid"),
        &registry_.counter("pipeline.evaluation.max_ill"),
        &registry_.counter("pipeline.evaluation.latency"),
        &registry_.counter("pipeline.evaluation.routing_deadlock"),
        &registry_.counter("pipeline.evaluation.message_deadlock"),
        &registry_.counter("pipeline.evaluation.shared_channel"),
    };

    /// Guards the partition-graph cache; the stage caches lock their own.
    mutable util::Mutex mu_;
    std::unordered_map<std::string, std::shared_ptr<const GraphEntry>>
        graphs_ SF_GUARDED_BY(mu_);
};

}  // namespace sunfloor::pipeline
