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
//   assignment  a partition + the cores' layer map (pure). Phase 1's
//               travels with its PG or SPG partition artifact, derived
//               once when the partition is computed or decoded; phase 2
//               composes one from several per-layer partitions per call.
//               Never stored: a store holds the partition's blocks
//   routing     the assignment, cfg.eval (the frequency and the flit
//               width; the models' calibration values are constants in
//               model/), cfg.max_ill, cfg.allow_multilayer_links,
//               cfg.use_soft_thresholds and cfg.routing (the
//               RoutingPolicy discipline), so one session caches a
//               routing artifact per policy per assignment
//   placement   the routed topology's full content — not the routing
//               config, so routing configs that produce the same routed
//               topology (e.g. neighbouring frequencies) share the
//               position LP — plus cfg.run_floorplan and, when the
//               floorplan runs, the flit width the switch and TSV area
//               models read, and the
//               position solver's tag (kPlacementSolverTag), because a
//               CAS store can outlive a solver that picks other optima.
//               No RNG: the flow's legalizer (the custom inserter) is
//               deterministic, and the stage enforces that at run time
//   evaluation  the placed topology's full content, cfg.eval (frequency
//               and flit width), cfg.max_ill, and the
//               placement config (the artifact's per-layer die areas come
//               from the floorplan side, not the topology content)
//
// How the caches hold those inputs. Every key holds them as content and
// compares them field by field, doubles by bit pattern; no cache builds
// its key's bytes on a lookup. The partition key is a struct of its
// inputs (PartitionKey). The routing key is the assignment vectors plus
// the run's routing StageConfig (RoutingKey); a lookup borrows the
// caller's assignment (RoutingProbe) and copies it into a key only when
// it claims a miss. The placement and evaluation caches key on their
// input artifact itself — the routed or placed topology, shared with the
// cache upstream — plus the stage's StageConfig (a ContentKey): a probe
// hashes the artifact's stored topo_hash, and a hit is verified by
// bitwise content equality (Topology::same_content). So a warm lookup is
// one hash probe and one equality check, and a hash collision can never
// serve another input's artifact. The StageConfigs are built once per
// phase1 / phase2 call (RunKeys).
// A key's bytes are its store address, written with the cas codec
// (cas/codec.h) only when a store is attached and the memory cache
// missed: the stage's tag, then exactly the fields the key's == compares
// — the routing and evaluation configs through cas::enc_eval_params, a
// topology through cas::enc_topology — after a spec prefix, the fnv1a64
// of cas::enc_spec's bytes. So two keys are equal exactly when their
// bytes are, and two specs share store objects only when they are equal
// bit for bit.
//
// Locking: each stage cache has one shared lock. A lookup holds it
// shared, so hits from many threads run side by side and a warm hit
// allocates nothing; claiming a missing key (after looking again under
// the exclusive hold), publishing and abandoning hold it exclusively.
//
// Misses are single-flight: a thread that misses on a key another thread
// is computing waits for that computation and counts a hit, and a
// computation that throws hands its exception to every waiter and leaves
// no entry behind. Each distinct key is therefore computed once, and the
// stage counters are exact at any thread count.
//
// Frequency and link width first appear in the *routing* stage, so
// architectural points that differ only there share partition artifacts
// (and the phase-1 assignments they carry) — the redundancy the explorer
// exploits.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>

#include "sunfloor/util/mutex.h"

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/graph/partition.h"
#include "sunfloor/lp/placement_lp.h"
#include "sunfloor/obs/metrics.h"
#include "sunfloor/pipeline/artifacts.h"

namespace sunfloor::cas {
class Enc;
class Store;
}

namespace sunfloor::pipeline {

// ------------------------------------------------------------ stage keys
//
// Each key's encode() appends its store address (after the spec prefix)
// to a cas::Enc: the stage's tag, then exactly the fields its == compares.

/// The config half of a routing, placement or evaluation key, built once
/// per run and shared by every key the run makes: the start of the key's
/// bytes — the stage's tag, then the config fields the stage consumes —
/// and their hash.
struct StageConfig {
    explicit StageConfig(std::string bytes);

    std::string bytes;
    std::uint64_t hash;

    friend bool operator==(const StageConfig& a, const StageConfig& b) {
        return a.hash == b.hash && a.bytes == b.bytes;
    }
};

/// The routing, placement and evaluation StageConfigs of one run.
///   routing     tag R, cfg.eval, max_ill, allow_multilayer_links,
///               use_soft_thresholds, the routing policy
///   placement   tag L, kPlacementSolverTag, run_floorplan and, when it
///               is on, the flit width the legalizer's switch-area and
///               TSV-macro models read (the position LP consumes no
///               config)
///   evaluation  tag E, the placement config's fields, cfg.eval, max_ill
struct RunKeys {
    explicit RunKeys(const SynthesisConfig& cfg);

    std::shared_ptr<const StageConfig> routing;
    std::shared_ptr<const StageConfig> placement;
    std::shared_ptr<const StageConfig> evaluation;
};

/// The partition stage's key: every input the stage consumes. Doubles
/// compare by bit pattern (so +0.0 and -0.0 are distinct keys, and so
/// are NaNs with different payloads), and the graph compares only the
/// fields its kind consumes — PG none, SPG theta and theta_max, LPG the
/// layer.
struct PartitionKey {
    PartitionGraphId graph;
    double alpha = 0.0;  ///< cfg.alpha
    PartitionOptions opts;
    int k = 0;
    RngState rng;  ///< the generator state handed to the stage

    /// Tag P, the graph's kind and consumed fields, alpha, the options,
    /// k and the four RNG words.
    void encode(cas::Enc& e) const;

    struct Hash {
        std::size_t operator()(const PartitionKey& key) const noexcept;
    };
    friend bool operator==(const PartitionKey& a, const PartitionKey& b);
};

struct RoutingProbe;

/// The routing stage's key: the assignment vectors (a copy) plus the
/// run's routing StageConfig. Its bytes are RoutingProbe's.
struct RoutingKey {
    CoreAssignment assign;
    std::shared_ptr<const StageConfig> cfg;

    /// Transparent: a RoutingProbe hashes as the key it names.
    struct Hash {
        using is_transparent = void;
        std::size_t operator()(const RoutingKey& key) const noexcept;
        std::size_t operator()(const RoutingProbe& probe) const noexcept;
    };
    friend bool operator==(const RoutingKey& a, const RoutingKey& b);
    friend bool operator==(const RoutingKey& a, const RoutingProbe& b);
};

/// A routing lookup that borrows the caller's assignment and config: it
/// hashes, compares and encodes exactly as the RoutingKey it names, so a
/// hit copies nothing, and the routing cache builds that key
/// (RoutingKey(probe)) only when it claims a miss.
struct RoutingProbe {
    const CoreAssignment& assign;
    const std::shared_ptr<const StageConfig>& cfg;

    /// The config's bytes, then core_switch and switch_layer.
    void encode(cas::Enc& e) const;

    explicit operator RoutingKey() const { return {assign, cfg}; }
};

/// A placement or evaluation key: the stage's input artifact (a
/// RoutingArtifact or a PlacementArtifact) plus the run's StageConfig,
/// both held by shared_ptr, so a key owns no copy of the topology. It
/// hashes the input's stored topo_hash with the config's hash; two keys
/// are equal when their configs are and their topologies have
/// Topology::same_content — the same artifact object, as on every warm
/// rerun, short-cuts both.
template <typename Input>
struct ContentKey {
    std::shared_ptr<const Input> input;
    std::shared_ptr<const StageConfig> cfg;

    /// The config's bytes, then the topology as cas::enc_topology writes
    /// it.
    void encode(cas::Enc& e) const;

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
};
using PlacementKey = ContentKey<RoutingArtifact>;
using EvaluationKey = ContentKey<PlacementArtifact>;

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
CoreAssignment phase1_assignment(const PartitionArtifact& part,
                                 const CoreSpec& cores);

// ---------------------------------------------------------------- session

struct SessionOptions {
    /// Optional content-addressed spill store behind the in-memory caches:
    /// a stage miss consults the store (keyed on the stage key's bytes
    /// after the spec prefix) before computing, and every
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
    /// `rng_in`. `opts` is the *effective* partitioner configuration:
    /// PartitionOptions{} in phase 1, phase 2 bounding the block size per
    /// call.
    std::shared_ptr<const PartitionArtifact> partition(
        const PartitionGraphId& graph, int k, const SynthesisConfig& cfg,
        const PartitionOptions& opts, const RngState& rng_in)
        SF_EXCLUDES(mu_);

    /// Path-computation stage for one assignment.
    std::shared_ptr<const RoutingArtifact> route(
        const CoreAssignment& assign, const SynthesisConfig& cfg);

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
    DesignPoint synthesize(const CoreAssignment& assign,
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
    /// and positive, an eval.flit_width_bits outside [1, 65536], or a
    /// negative max_ill.
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

    /// Drop the per-point stages' artifacts — routing, placement and
    /// evaluation, which hold the topologies — and keep what every point
    /// of a grid shares: the partition graphs, the partitions and the
    /// position-LP solutions. Bit-transparent like every cache: a later
    /// call recomputes (or reads from the store) what was dropped. The
    /// stage counters keep counting.
    void drop_point_stages();

  private:
    struct GraphEntry;

    /// One stage's artifact cache: a key -> slot map under its own
    /// shared lock, plus the stage's "<name>.hits" / ".misses" /
    /// ".compute_ms" instruments. A slot holds the published artifact, or
    /// the Flight of the one thread computing it. A lookup holds the lock
    /// shared, so hits on one stage from many threads run side by side;
    /// claiming a missing key, publishing and abandoning hold it
    /// exclusively. The lock is never held across a stage computation or
    /// a CAS round trip. Artifacts are immutable once published, which is
    /// why handing out shared_ptrs of them needs no further guarding.
    /// Lookups take a Key, or a probe type the Hash and Key's == accept
    /// (transparently) and that converts to a Key (RoutingProbe). Only
    /// the stage routine cached() looks up and fills one, so it is the
    /// one place a memory bound would evict; only clear() empties one.
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

        /// The artifact published under the key `probe` names, or — when
        /// another thread is computing it — that thread's result (its
        /// exception is rethrown here). Otherwise registers `claim` as
        /// the flight of Key(probe) and returns nullptr: the caller
        /// computes, then calls publish() or abandon().
        template <typename Probe>
        Ptr find_or_claim(const Probe& probe, std::shared_ptr<Flight>& claim)
            SF_EXCLUDES(mu_) {
            std::shared_ptr<Flight> running;
            {
                util::ReaderLock lock(mu_);
                const auto it = map_.find(probe);
                if (it != map_.end()) {
                    if (it->second.artifact) return it->second.artifact;
                    running = it->second.flight;
                }
            }
            if (!running) {
                util::WriterLock lock(mu_);
                // Another thread may have claimed or published the key
                // between the two locks.
                const auto it = map_.find(probe);
                if (it == map_.end()) {
                    claim = std::make_shared<Flight>();
                    map_.emplace(Key(probe), Slot{nullptr, claim});
                    return nullptr;
                }
                if (it->second.artifact) return it->second.artifact;
                running = it->second.flight;
            }
            return running->wait();
        }

        /// Publish the claimed key's artifact and wake its waiters.
        template <typename Probe>
        Ptr publish(const Probe& probe, const std::shared_ptr<Flight>& claim,
                    Ptr artifact) SF_EXCLUDES(mu_) {
            {
                util::WriterLock lock(mu_);
                const auto it = map_.find(probe);
                if (it != map_.end() && it->second.flight == claim)
                    it->second = Slot{artifact, nullptr};
            }
            claim->land(artifact, nullptr);
            return artifact;
        }

        /// Drop the claimed key's slot and hand `error` to its waiters.
        template <typename Probe>
        void abandon(const Probe& probe, const std::shared_ptr<Flight>& claim,
                     std::exception_ptr error) SF_EXCLUDES(mu_) {
            {
                util::WriterLock lock(mu_);
                const auto it = map_.find(probe);
                if (it != map_.end() && it->second.flight == claim)
                    map_.erase(it);
            }
            claim->land(nullptr, std::move(error));
        }

        /// Drop every published artifact. A key in flight stays, so its
        /// waiters still get the one computation of it.
        void clear() SF_EXCLUDES(mu_) {
            util::WriterLock lock(mu_);
            std::erase_if(map_, [](const auto& entry) {
                return entry.second.artifact != nullptr;
            });
        }

        /// Published artifacts plus keys in flight.
        std::size_t size() const SF_EXCLUDES(mu_) {
            util::ReaderLock lock(mu_);
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

        mutable util::SharedMutex mu_;
        std::unordered_map<Key, Slot, Hash, std::equal_to<>> map_
            SF_GUARDED_BY(mu_);
    };

    /// The CAS codec of an artifact kind the store spills (session.cpp):
    /// a decode sees the spec and the lookup (`Probe`) it serves.
    template <typename Probe, typename Artifact>
    struct StageCodec;

    /// The stage routine every cached stage call runs: memory lookup
    /// (a hit, or a wait on the thread computing the key), then — for
    /// the one thread that claimed the key — a store lookup when `codec`
    /// is given and a store is attached, `compute()` under the stage's
    /// span and timer, the write-back to the store and the publish. A
    /// compute that throws leaves no entry and reaches every waiter.
    /// `span_arg` names an integer arg of the span (nullptr: none).
    template <typename Key, typename Artifact, typename Hash,
              typename Probe, typename Compute>
    std::shared_ptr<const Artifact> cached(
        StageCache<Key, Artifact, Hash>& cache, const Probe& key,
        const std::type_identity_t<StageCodec<Probe, Artifact>>* codec,
        Compute&& compute, const char* span_arg = nullptr,
        long long span_value = 0);

    // The stage calls above, on a run's prebuilt config keys.
    DesignPoint synthesize(const CoreAssignment& assign,
                           const SynthesisConfig& cfg, const RunKeys& keys,
                           const std::string& phase, double theta,
                           StageTiming* timing);
    std::shared_ptr<const RoutingArtifact> route(
        const CoreAssignment& assign, const SynthesisConfig& cfg,
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
    /// The spec prefix of this session's store addresses: fnv1a64 of
    /// cas::enc_spec's bytes (0 when no store is attached).
    std::uint64_t cas_spec_hash_ = 0;
    /// Store objects whose checksum held but whose payload the stage
    /// codec rejected (global "cas.undecodable"; recomputed and replaced).
    obs::Counter& cas_undecodable_{
        obs::Registry::global().counter("cas.undecodable")};

    obs::Registry registry_{&obs::Registry::global()};
    StageCache<PartitionKey, PartitionArtifact, PartitionKey::Hash>
        partitions_{registry_, "pipeline.partition"};
    StageCache<RoutingKey, RoutingArtifact, RoutingKey::Hash> routings_{
        registry_, "pipeline.routing"};
    StageCache<PlacementKey, PlacementArtifact, PlacementKey::Hash>
        placements_{registry_, "pipeline.placement"};
    /// Keyed on the bytes of the exact Eq. 2-5 instance.
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
