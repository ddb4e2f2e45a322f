// SunFloor 3D top-level synthesis driver (Fig. 3).
//
// For each switch count the flow partitions the cores (Phase 1 over the
// PG/SPG, or Phase 2 layer by layer over the LPGs), assigns switch layers,
// computes deadlock-free paths under the TSV and switch-size constraints,
// solves the switch-position LP, legalizes the floorplan and evaluates the
// result. Every design point that meets the constraints is saved; the
// designer picks from the resulting power/latency/area tradeoff set.
//
// The flow itself is pipeline::SynthesisSession (pipeline/session.h);
// this header holds its result types and the stateless entry points.
#pragma once

#include <string>
#include <vector>

#include "sunfloor/core/design_point.h"

namespace sunfloor {

enum class SynthesisPhase {
    Auto,    ///< Phase 1, falling back to Phase 2 when nothing is valid
    Phase1,  ///< Algorithm 1 only (cores may attach to any layer's switch)
    Phase2,  ///< Algorithm 2 only (layer-by-layer, adjacent links only)
};

/// "auto", "1" or "2" — the single source for CLI parsing, cache keys and
/// exports (one enum_names table behind all three helpers).
const char* phase_to_string(SynthesisPhase phase);

/// Inverse of phase_to_string; ASCII case-insensitive, returns false on
/// any other input.
bool phase_from_string(const std::string& s, SynthesisPhase& out);

/// "auto|1|2" — for uniform CLI error messages.
std::string phase_choices();

/// Wall clock spent at each stage boundary of one synthesis run (the
/// pipeline stages of Fig. 3; see pipeline/session.h). Cache hits inside
/// a warm SynthesisSession shrink the corresponding stage's share.
struct StageTiming {
    double partition_ms = 0.0;   ///< core partitioning (PG/SPG/LPG cuts)
    double routing_ms = 0.0;     ///< initial topology + path computation
    double placement_ms = 0.0;   ///< position LP + floorplan legalization
    double evaluation_ms = 0.0;  ///< power/latency/area + validity checks

    double total_ms() const {
        return partition_ms + routing_ms + placement_ms + evaluation_ms;
    }
};

struct SynthesisResult {
    std::vector<DesignPoint> points;
    std::string phase_used;
    StageTiming timing;

    int best_power_index() const { return best_power_point(points); }
    int best_latency_index() const { return best_latency_point(points); }
    std::vector<int> pareto_indices() const { return pareto_front(points); }
    int num_valid() const {
        int n = 0;
        for (const auto& p : points) n += p.valid ? 1 : 0;
        return n;
    }
};

/// One operating point of the frequency sweep.
struct FrequencyPoint {
    double freq_hz = 0.0;
    SynthesisResult result;
};

/// Stateless synthesis entry point: run the full flow for one (spec,
/// config) pair. Safe to call concurrently from many threads — all state
/// (including the Rng, seeded from cfg.seed) is local to the call.
///
/// Runs a cold pipeline::SynthesisSession, the one implementation of the
/// flow; a warm session produces bit-identical results (see
/// pipeline/session.h). Callers that evaluate many related
/// configurations — the explore engine, frequency sweeps — share a
/// session instead to reuse per-stage artifacts.
SynthesisResult run_synthesis(const DesignSpec& spec,
                              const SynthesisConfig& cfg,
                              SynthesisPhase phase = SynthesisPhase::Auto);

/// The outer loop of Fig. 3: "the NoC architectural parameters, such as
/// frequency of operation, are varied and the topology design process is
/// repeated for each architectural point". Runs the full flow at every
/// frequency through one shared session; a frequency at which nothing
/// is feasible yields a result with no valid point. Typical usage sweeps
/// a few points and lets the designer pick from the union of tradeoff
/// sets.
std::vector<FrequencyPoint> run_frequency_sweep(
    const DesignSpec& spec, const SynthesisConfig& cfg,
    const std::vector<double>& freqs_hz,
    SynthesisPhase phase = SynthesisPhase::Auto);

/// Index (into the sweep) and point index of the lowest-power valid design
/// over all frequencies; {-1, -1} when none.
std::pair<int, int> best_power_over_sweep(
    const std::vector<FrequencyPoint>& sweep);

}  // namespace sunfloor
