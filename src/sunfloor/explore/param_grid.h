// Architectural parameter grid for design-space exploration.
//
// The paper's outer loop (Fig. 3) varies "the NoC architectural
// parameters, such as frequency of operation" and repeats the topology
// design process for each architectural point. ParamGrid names the axes
// that loop can vary — operating frequency, TSV budget (max inter-layer
// links), link width, synthesis phase, the PG/SPG theta and the routing
// policy — and enumerates their cartesian product.
#pragma once

#include <string>
#include <vector>

#include "sunfloor/core/design_point.h"
#include "sunfloor/core/synthesizer.h"

namespace sunfloor {

/// The architectural axes the explorer can sweep.
enum class ParamKind {
    FrequencyHz,    ///< operating frequency (Hz)
    /// TSV yield budget expressed in *inter-layer links* (the paper's
    /// max_ill translation, Section IV), NOT raw TSV counts: a budget of
    /// B TSVs allows B / TsvModel::tsvs_per_link(width) links.
    MaxTsvs,
    LinkWidthBits,  ///< flit/link width in bits
    Phase,          ///< synthesis phase: 0 = auto, 1, 2
    Theta,          ///< fixed SPG theta; kSweepTheta = Algorithm 1's sweep
    Routing,        ///< routing policy (routing::RoutingPolicyId)
};

/// Sentinel theta meaning "keep the config's theta_min..theta_max sweep".
inline constexpr double kSweepTheta = -1.0;

/// One axis: a kind plus the values to try (ints are stored as doubles).
struct ParamAxis {
    ParamKind kind;
    std::vector<double> values;

    static ParamAxis frequencies_hz(std::vector<double> hz);
    static ParamAxis max_tsvs(std::vector<int> budgets);
    static ParamAxis link_widths_bits(std::vector<int> widths);
    static ParamAxis phases(std::vector<SynthesisPhase> phases);
    static ParamAxis thetas(std::vector<double> thetas);
    static ParamAxis routing_policies(
        std::vector<routing::RoutingPolicyId> policies);
};

/// One architectural point of the grid.
struct GridPoint {
    int index = 0;  ///< position in the enumeration order
    double freq_hz = 400e6;
    int max_tsvs = 25;
    int link_width_bits = 32;
    SynthesisPhase phase = SynthesisPhase::Auto;
    double theta = kSweepTheta;
    routing::RoutingPolicyId routing = routing::RoutingPolicyId::UpDown;

    /// Copy `base` with this point's parameters applied. Link width scales
    /// the library flit width and the per-flit wire energy proportionally.
    SynthesisConfig apply(const SynthesisConfig& base) const;

    /// Stable textual identity of the architectural point (exact — doubles
    /// are rendered from their bit patterns). Two points with equal keys
    /// produce identical synthesis runs; the explorer's cache and the
    /// per-point RNG seeding both key off this. The routing field is
    /// appended only for non-default policies, so default-policy points
    /// keep their pre-policy seeds (and cross-run cache entries).
    std::string key() const;

    /// The subset of key() the partition and assignment stages consume:
    /// phase and theta. Frequency, TSV budget and link width first matter
    /// from the routing stage on, so points that agree here are seeded
    /// alike and a shared SynthesisSession reuses their partition
    /// artifacts (see pipeline/session.h).
    std::string partition_key() const;

    /// Human-readable label, e.g. "f=400MHz tsv=25 w=32 phase=auto".
    std::string label() const;
};

/// Cartesian grid over the six axes. Axes default to a single value each
/// (400 MHz, 25 TSVs, 32 bits, auto phase, theta sweep, up-down routing),
/// so setting one axis yields a classic 1-D sweep.
class ParamGrid {
  public:
    ParamGrid();

    /// Replace the axis of `axis.kind`. Throws std::invalid_argument when
    /// `axis.values` is empty or contains an out-of-domain value.
    void set_axis(const ParamAxis& axis);

    const ParamAxis& axis(ParamKind kind) const;

    /// Product of the axis sizes: the number of grid points.
    std::size_t cartesian_size() const;

    /// All points in deterministic nested order (frequency outermost,
    /// routing innermost), with `index` set consecutively.
    std::vector<GridPoint> enumerate() const;

  private:
    std::vector<ParamAxis> axes_;  ///< indexed by ParamKind
};

}  // namespace sunfloor
