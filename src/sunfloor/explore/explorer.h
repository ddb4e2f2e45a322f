// Parallel design-space exploration (Fig. 3's outer loop, industrialized).
//
// The Explorer evaluates every architectural point of a ParamGrid —
// a full topology synthesis per point — sharded across a thread pool,
// and merges the per-point tradeoff sets into one global Pareto front
// over (power, latency, area).
//
// Determinism: each point's seeds are mixed from base_seed and the
// point's own keys, never from a thread or worker id, so N-thread runs
// are bit-identical to 1-thread runs. Every point runs through the shared
// SynthesisSession, whose stage caches are keyed on everything a stage
// consumed, so a repeated point (a duplicate axis value, a rerun on one
// Explorer) is served from those caches.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/explore/param_grid.h"
#include "sunfloor/pipeline/session.h"
#include "sunfloor/sim/simulator.h"

namespace sunfloor {

/// How a synthesized design point is priced for the Pareto merge.
enum class EvalBackend {
    Analytic,   ///< zero-load closed form (noc/evaluation.cpp)
    Simulated,  ///< measured latency from the flit-level simulator
};

/// "analytic" or "sim" — the single source for CLI parsing and exports
/// (one enum_names table behind all three helpers).
const char* backend_to_string(EvalBackend b);

/// Inverse of backend_to_string; ASCII case-insensitive, also accepts the
/// "simulated" alias; returns false on any other input.
bool backend_from_string(const std::string& s, EvalBackend& out);

/// "analytic|sim" — for uniform CLI error messages.
std::string backend_choices();

struct ExploreOptions {
    /// Worker threads; 1 runs inline on the caller (the serial reference
    /// path), 0 picks the hardware concurrency.
    int num_threads = 1;

    /// Base RNG seed mixed into every point's seed.
    std::uint64_t base_seed = Rng::kDefaultSeed;

    /// Evaluation backend for the global Pareto ranking. Simulated runs
    /// the flit-level simulator on every valid design (deterministically
    /// seeded per design, so thread counts never change results) and
    /// ranks by measured instead of zero-load latency.
    EvalBackend backend = EvalBackend::Analytic;

    /// Traffic/measurement knobs of the simulated backend; `sim.seed` is
    /// mixed into every design's derived simulation seed.
    sim::SimParams sim{};
};

/// One explored architectural point and its synthesis output.
struct ExplorePointResult {
    GridPoint point;
    SynthesisResult result;
    std::uint64_t seed = 0;   ///< the derived per-point seed (sim seeding)
    /// Synthesis RNG seed, derived from the point's partition_key() only,
    /// so points differing in frequency / TSV budget / link width share
    /// partition streams (and therefore partition artifacts).
    std::uint64_t synth_seed = 0;
    int pareto_survivors = 0; ///< this point's designs on the global front

    /// Simulated backend only: one report per design of `result.points`
    /// (default-constructed, cycles_run == 0, for designs that were not
    /// simulated). Empty under the analytic backend.
    std::vector<sim::SimReport> sim_reports;

    /// The simulator's report for design `di`, or nullptr when that
    /// design was not simulated.
    const sim::SimReport* sim_report(int di) const {
        const auto i = static_cast<std::size_t>(di);
        if (i >= sim_reports.size() || sim_reports[i].cycles_run == 0)
            return nullptr;
        return &sim_reports[i];
    }
};

/// Coordinates of one design on the global Pareto front.
struct ParetoEntry {
    int point_index = 0;   ///< into ExploreResult::points
    int design_index = 0;  ///< into that point's result.points
};

struct ExploreStats {
    int total_points = 0;      ///< grid points explored
    int total_designs = 0;     ///< design points over all grid points
    int valid_designs = 0;     ///< ... that met every constraint
    /// Valid designs over distinct architectural points only (repeated
    /// grid points carry identical copies, counted once here).
    int unique_valid_designs = 0;
    int pareto_size = 0;       ///< global front size
    int dominated_designs = 0; ///< unique valid designs beaten by another
    int num_threads = 0;       ///< workers that evaluated points (at most
                               ///< one per point; 0 for an empty grid)
    double elapsed_ms = 0.0;   ///< wall-clock for the whole run
    EvalBackend backend = EvalBackend::Analytic;
    int simulated_designs = 0; ///< simulator runs (Simulated backend only)
    /// Per-stage cache accounting of the shared pipeline session for this
    /// run (hits are artifacts reused across points or earlier runs).
    /// Misses are single-flight, so the counts are exact at any thread
    /// count (see pipeline/session.h).
    pipeline::SessionStats stage;
};

struct ExploreResult {
    std::vector<ExplorePointResult> points;  ///< in grid enumeration order
    std::vector<ParetoEntry> pareto;         ///< global front, stable order
    ExploreStats stats;

    const DesignPoint& design(const ParetoEntry& e) const {
        return points[static_cast<std::size_t>(e.point_index)]
            .result.points[static_cast<std::size_t>(e.design_index)];
    }

    /// Pareto entry with the lowest total power; -1 index pair when the
    /// front is empty.
    ParetoEntry best_power() const;
};

/// Deterministic per-point seed: base_seed mixed with the point's key.
std::uint64_t explore_point_seed(std::uint64_t base_seed,
                                 const std::string& point_key);

/// Deterministic per-design simulation seed: the point's synthesis seed
/// mixed with the sim base seed and the design's index — never with a
/// thread or worker id.
std::uint64_t explore_sim_seed(std::uint64_t point_seed,
                               std::uint64_t sim_seed, int design_index);

class Explorer {
  public:
    Explorer(DesignSpec spec, SynthesisConfig base_cfg,
             ExploreOptions opts = {});

    /// Explore against an externally owned session (the service daemon's
    /// warm per-spec sessions). The session's spec is the explored spec;
    /// stage artifacts cached by earlier runs — other explorers, direct
    /// synthesis jobs — are reused, which is bit-transparent (see
    /// pipeline/session.h).
    Explorer(std::shared_ptr<pipeline::SynthesisSession> session,
             SynthesisConfig base_cfg, ExploreOptions opts = {});

    /// Evaluate every point of `grid`. Thread-safe; the session's stage
    /// caches are shared across concurrent and successive runs.
    ExploreResult run(const ParamGrid& grid) const;

    /// Evaluate an explicit point list (what a distribution shard runs: a
    /// contiguous slice of some grid's enumeration, indices preserved).
    /// Identical to run(grid) when `points` is the full enumeration; per
    /// point, designs/seeds/sim reports depend only on that point's key,
    /// which is what makes slice results mergeable bit-exactly.
    ExploreResult run(const std::vector<GridPoint>& points) const;

  private:
    DesignSpec spec_;
    SynthesisConfig base_cfg_;
    ExploreOptions opts_;
    std::shared_ptr<pipeline::SynthesisSession> session_;
};

/// Global Pareto front over all valid designs of all points, with the
/// same (total power, avg latency, NoC area) dominance rule as
/// pareto_front(). Order: by point index, then design index. Repeated
/// architectural points (equal key()) carry identical copies of the same
/// designs; only the first occurrence contributes to the front.
std::vector<ParetoEntry> global_pareto(
    const std::vector<ExplorePointResult>& points);

/// global_pareto with each simulated design's zero-load latency replaced
/// by its measured average packet latency (same dominance rule, same
/// ordering and key-dedup behaviour). Valid designs without a simulator
/// report keep their analytic latency.
std::vector<ParetoEntry> global_pareto_measured(
    const std::vector<ExplorePointResult>& points);

/// Associative merge of per-slice Pareto fronts into the global front.
/// `points` is the full reconstructed point list (grid order); each front
/// holds entries whose point_index is already *global* (the coordinator
/// remaps slice-local indices before calling). Exact: because strict
/// dominance is transitive and every globally undominated design is
/// undominated within its own slice (so present in that slice's front),
/// deduplicating the union to globally-first key occurrences and
/// re-filtering equals global_pareto(points) — or the measured variant
/// when `measured` — entry for entry (property-tested in dist_test.cpp).
std::vector<ParetoEntry> merge_pareto_fronts(
    const std::vector<ExplorePointResult>& points,
    const std::vector<std::vector<ParetoEntry>>& fronts, bool measured);

}  // namespace sunfloor
