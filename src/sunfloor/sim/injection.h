// Packet injection processes for the flit-level traffic simulator.
//
// The analytic model of noc/evaluation.cpp sees only zero-load latency;
// the simulator drives the synthesized topology with *offered traffic*,
// and this module defines how that traffic is generated. Every flow of
// the design spec gets a per-cycle packet generation process whose mean
// rate derives from the flow's specified bandwidth (so injection_scale
// = 1.0 offers exactly the bandwidths the topology was synthesized
// for), shaped by one of three classic NoC workload models:
//
//  * Uniform — independent Bernoulli generation each cycle; the
//    memoryless baseline.
//  * Bursty — a two-state (ON/OFF) Markov-modulated process per flow,
//    with fixed transition probabilities (ON->OFF 0.05, OFF->ON 0.0125
//    per cycle: a duty cycle of 0.2, i.e. 5x peak-to-mean bursts).
//    Packets are only generated in ON; the ON-state rate is raised so
//    the long-run mean matches the uniform case, making latency
//    differences attributable to burstiness alone. A flow demanding
//    more than the duty cycle in packets/cycle saturates at one packet
//    per ON cycle — packet_rate() reports the clamped, achievable mean.
//  * Hotspot — uniform generation, but flows sinking at the core that
//    receives the most spec bandwidth (lowest id on ties) have their
//    rate multiplied by 4 (the classic shared-memory controller
//    overload).
//
// All randomness flows through the caller-provided sunfloor::util Rng,
// so a (topology, params, seed) triple replays bit-identically.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "sunfloor/noc/evaluation.h"
#include "sunfloor/spec/parser.h"
#include "sunfloor/util/rng.h"

namespace sunfloor::sim {

enum class Traffic {
    Uniform,  ///< independent Bernoulli per flow per cycle
    Bursty,   ///< ON/OFF Markov-modulated, same mean rate
    Hotspot,  ///< uniform, flows into the hotspot core scaled up
};

/// "uniform", "bursty" or "hotspot" — the single source for CLI parsing
/// and report labels (one enum_names table behind all three helpers).
const char* traffic_to_string(Traffic t);

/// Inverse of traffic_to_string; ASCII case-insensitive, returns false on
/// any other input.
bool traffic_from_string(const std::string& s, Traffic& out);

/// "uniform|bursty|hotspot" — for uniform CLI error messages.
std::string traffic_choices();

struct InjectionParams {
    Traffic traffic = Traffic::Uniform;

    /// Multiplies every flow's spec-derived rate. 1.0 offers exactly the
    /// bandwidth the topology was synthesized for; >1 overloads it.
    double injection_scale = 1.0;

    /// Flits per packet (wormhole packets occupy a path until the tail
    /// passes, so longer packets couple links more strongly).
    int packet_length_flits = 4;
};

/// Mean packet-generation rates per flow (packets/cycle) implied by the
/// spec bandwidths at `eval.freq_hz`, including the traffic shaping
/// (hotspot boost; bursty keeps the uniform mean). Rates are clamped to
/// 1.0 — the source can start at most one packet per cycle.
///
/// Input validation (std::invalid_argument naming the offending
/// parameter): packet_length_flits must be positive, and injection_scale
/// finite and >= 0 (a NaN scale would sail past a bare sign check — NaN
/// comparisons are false — and poison every rate through the clamp).
std::vector<double> flow_packet_rates(const DesignSpec& spec,
                                      const InjectionParams& inj,
                                      const EvalParams& eval);

/// Stateful per-flow generators. One step() call per flow per cycle.
class InjectionState {
  public:
    InjectionState(const DesignSpec& spec, const InjectionParams& inj,
                   const EvalParams& eval);

    int num_flows() const { return static_cast<int>(rates_.size()); }

    /// Mean packet rate of flow f (packets/cycle), after shaping.
    double packet_rate(int f) const {
        return rates_[static_cast<std::size_t>(f)];
    }

    /// Sum over flows of rate * packet_length — the offered load in
    /// flits/cycle.
    double offered_flits_per_cycle() const;

    /// Integer threshold form of Rng::next_bool(p): the draw u satisfies
    /// next_double(u) < p exactly when (u >> 11) < bool_threshold(p).
    /// Proof: next_double = double(u >> 11) * 2^-53 with both steps
    /// exact (u >> 11 < 2^53, and scaling by a power of two is exact),
    /// so the comparison over the reals is m * 2^-53 < p, i.e.
    /// m < p * 2^53 — and p * 2^53 is itself exact for p in [0, 1] —
    /// which for integer m is m < ceil(p * 2^53). One integer compare
    /// replaces the convert/multiply/FP-compare on the simulator's
    /// hottest loop (one Bernoulli trial per flow per cycle).
    static std::uint64_t bool_threshold(double p) {
        if (!(p > 0.0)) return 0;
        if (p >= 1.0) return 1ULL << 53;
        return static_cast<std::uint64_t>(
            std::ceil(p * 9007199254740992.0));  // 2^53
    }

    /// One cycle's worth of step() calls — every flow, in flow order —
    /// with the generating flow ids written to `hits` (caller provides
    /// room for num_flows() ints). Returns the hit count. Exactly
    /// equivalent to calling step(f, rng) for f = 0..num_flows()-1, but
    /// the draw loop contains no function calls, so the compiler keeps
    /// the xoshiro state of the local Rng copy in registers across the
    /// whole cycle instead of round-tripping it through the stack between
    /// draws (the serial store-to-load chain costs more than the
    /// generator itself).
    int draw_cycle(Rng& rng, int* hits) {
        const int n = num_flows();
        Rng local = rng;  // state in registers; written back below
        int nh = 0;
        if (inj_.traffic != Traffic::Bursty) {
            const std::uint64_t* thr = thr_.data();
            for (int f = 0; f < n; ++f) {
                const std::uint64_t t = thr[f];
                if (t == 0) continue;  // zero-rate flow: no draw, as ever
                hits[nh] = f;
                nh += (local.next_u64() >> 11) < t ? 1 : 0;
            }
        } else {
            for (int f = 0; f < n; ++f)
                if (step(f, local)) hits[nh++] = f;
        }
        rng = local;
        return nh;
    }

    /// True when flow f generates a packet this cycle. Must be called
    /// exactly once per flow per cycle, in flow order, for determinism:
    /// the number of draws consumed per cycle is part of the replayable
    /// RNG stream. (The simulator itself goes through draw_cycle(), which
    /// batches these per cycle.)
    bool step(int f, Rng& rng) {
        const auto i = static_cast<std::size_t>(f);
        const std::uint64_t thr = thr_[i];
        if (thr == 0) return false;  // zero-rate flow: no draw, as ever
        if (inj_.traffic != Traffic::Bursty)
            return (rng.next_u64() >> 11) < thr;
        // Transition first, then (maybe) generate: a flow entering ON can
        // already emit this cycle, so short ON periods still carry
        // traffic.
        if (burst_on_[i]) {
            if ((rng.next_u64() >> 11) < on_to_off_thr_) burst_on_[i] = 0;
        } else {
            if ((rng.next_u64() >> 11) < off_to_on_thr_) burst_on_[i] = 1;
        }
        return burst_on_[i] && (rng.next_u64() >> 11) < on_thr_[i];
    }

  private:
    InjectionParams inj_;
    std::vector<double> rates_;    ///< mean packet rate per flow
    std::vector<double> on_rate_;  ///< bursty: generation rate while ON
    std::vector<char> burst_on_;   ///< bursty: current Markov state

    // bool_threshold() forms of the rates above (see its comment).
    std::vector<std::uint64_t> thr_;     ///< of rates_ (uniform/hotspot)
    std::vector<std::uint64_t> on_thr_;  ///< of on_rate_ (bursty)
    std::uint64_t on_to_off_thr_ = 0;    ///< of the ON->OFF probability
    std::uint64_t off_to_on_thr_ = 0;    ///< of the OFF->ON probability
};

}  // namespace sunfloor::sim
