#include "sunfloor/sim/injection.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "sunfloor/util/enum_names.h"

namespace sunfloor::sim {

namespace {

constexpr EnumName<Traffic> kTrafficNames[] = {
    {Traffic::Uniform, "uniform"},
    {Traffic::Bursty, "bursty"},
    {Traffic::Hotspot, "hotspot"},
};

}  // namespace

const char* traffic_to_string(Traffic t) {
    return enum_to_string<Traffic>(kTrafficNames, t, "uniform");
}

bool traffic_from_string(const std::string& s, Traffic& out) {
    return enum_from_string<Traffic>(kTrafficNames, s, out);
}

std::string traffic_choices() {
    return enum_choices<Traffic>(kTrafficNames);
}

namespace {

// Bursty traffic's per-cycle Markov transition probabilities. The
// stationary ON fraction (duty cycle) is off_to_on / (off_to_on +
// on_to_off) = 0.2, i.e. 5x peak-to-mean bursts.
constexpr double kBurstOnToOff = 0.05;
constexpr double kBurstOffToOn = 0.0125;

/// Hotspot traffic's rate multiplier for the flows into the busiest sink.
constexpr double kHotspotFactor = 4.0;

/// Core receiving the most aggregate spec bandwidth (lowest id on ties).
int busiest_sink(const DesignSpec& spec) {
    std::vector<double> rx(static_cast<std::size_t>(spec.cores.num_cores()),
                           0.0);
    for (const auto& f : spec.comm.flows())
        rx[static_cast<std::size_t>(f.dst)] += f.bw_mbps;
    int best = 0;
    for (int c = 1; c < spec.cores.num_cores(); ++c)
        if (rx[static_cast<std::size_t>(c)] >
            rx[static_cast<std::size_t>(best)])
            best = c;
    return best;
}

}  // namespace

std::vector<double> flow_packet_rates(const DesignSpec& spec,
                                      const InjectionParams& inj,
                                      const EvalParams& eval) {
    if (inj.packet_length_flits <= 0)
        throw std::invalid_argument("packet_length_flits must be positive");
    // Require finiteness explicitly: a NaN scale passes every ordering
    // check (NaN comparisons are false) and would poison all rates
    // through std::min(1.0, rate).
    if (!(std::isfinite(inj.injection_scale) && inj.injection_scale >= 0.0))
        throw std::invalid_argument(
            "injection_scale must be a finite value >= 0 (got " +
            std::to_string(inj.injection_scale) + ")");
    const int hotspot =
        inj.traffic == Traffic::Hotspot ? busiest_sink(spec) : -1;
    std::vector<double> rates;
    rates.reserve(static_cast<std::size_t>(spec.comm.num_flows()));
    const NocLibrary lib(eval.flit_width_bits);
    for (const auto& f : spec.comm.flows()) {
        const double flits_per_cycle =
            lib.flits_per_second(f.bw_mbps) / eval.freq_hz;
        double rate = inj.injection_scale * flits_per_cycle /
                      inj.packet_length_flits;
        if (f.dst == hotspot) rate *= kHotspotFactor;
        rates.push_back(std::min(1.0, rate));
    }
    return rates;
}

InjectionState::InjectionState(const DesignSpec& spec,
                               const InjectionParams& inj,
                               const EvalParams& eval)
    : inj_(inj), rates_(flow_packet_rates(spec, inj, eval)) {
    if (inj_.traffic == Traffic::Bursty) {
        const double duty = kBurstOffToOn / (kBurstOffToOn + kBurstOnToOff);
        on_rate_.reserve(rates_.size());
        for (double& r : rates_) {
            on_rate_.push_back(std::min(1.0, r / duty));
            // The ON-state rate saturates at one packet/cycle, so a flow
            // demanding more than `duty` packets/cycle can only achieve
            // duty; fold the clamp back so packet_rate() and the offered
            // load report what the process really generates.
            r = on_rate_.back() * duty;
        }
        // Start every flow OFF: the warmup phase absorbs the transient.
        burst_on_.assign(rates_.size(), 0);
        on_thr_.reserve(on_rate_.size());
        for (double r : on_rate_) on_thr_.push_back(bool_threshold(r));
        on_to_off_thr_ = bool_threshold(kBurstOnToOff);
        off_to_on_thr_ = bool_threshold(kBurstOffToOn);
    }
    thr_.reserve(rates_.size());
    for (double r : rates_) thr_.push_back(bool_threshold(r));
}

double InjectionState::offered_flits_per_cycle() const {
    double sum = 0.0;
    for (double r : rates_) sum += r * inj_.packet_length_flits;
    return sum;
}

}  // namespace sunfloor::sim
