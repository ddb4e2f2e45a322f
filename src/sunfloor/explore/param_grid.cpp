#include "sunfloor/explore/param_grid.h"

#include <stdexcept>

#include "sunfloor/util/strings.h"

namespace sunfloor {

namespace {

double phase_value(SynthesisPhase p) {
    switch (p) {
        case SynthesisPhase::Phase1: return 1.0;
        case SynthesisPhase::Phase2: return 2.0;
        case SynthesisPhase::Auto: break;
    }
    return 0.0;
}

SynthesisPhase value_phase(double v) {
    if (v == 1.0) return SynthesisPhase::Phase1;
    if (v == 2.0) return SynthesisPhase::Phase2;
    return SynthesisPhase::Auto;
}

double routing_value(routing::RoutingPolicyId id) {
    return static_cast<double>(static_cast<int>(id));
}

routing::RoutingPolicyId value_routing(double v) {
    if (v == routing_value(routing::RoutingPolicyId::WestFirst))
        return routing::RoutingPolicyId::WestFirst;
    if (v == routing_value(routing::RoutingPolicyId::OddEven))
        return routing::RoutingPolicyId::OddEven;
    return routing::RoutingPolicyId::UpDown;
}

}  // namespace

ParamAxis ParamAxis::frequencies_hz(std::vector<double> hz) {
    return {ParamKind::FrequencyHz, std::move(hz)};
}

ParamAxis ParamAxis::max_tsvs(std::vector<int> budgets) {
    ParamAxis a{ParamKind::MaxTsvs, {}};
    for (int b : budgets) a.values.push_back(b);
    return a;
}

ParamAxis ParamAxis::link_widths_bits(std::vector<int> widths) {
    ParamAxis a{ParamKind::LinkWidthBits, {}};
    for (int w : widths) a.values.push_back(w);
    return a;
}

ParamAxis ParamAxis::phases(std::vector<SynthesisPhase> phases) {
    ParamAxis a{ParamKind::Phase, {}};
    for (SynthesisPhase p : phases) a.values.push_back(phase_value(p));
    return a;
}

ParamAxis ParamAxis::thetas(std::vector<double> thetas) {
    return {ParamKind::Theta, std::move(thetas)};
}

ParamAxis ParamAxis::routing_policies(
    std::vector<routing::RoutingPolicyId> policies) {
    ParamAxis a{ParamKind::Routing, {}};
    for (routing::RoutingPolicyId p : policies)
        a.values.push_back(routing_value(p));
    return a;
}

SynthesisConfig GridPoint::apply(const SynthesisConfig& base) const {
    SynthesisConfig cfg = base;
    cfg.eval.freq_hz = freq_hz;
    cfg.max_ill = max_tsvs;
    cfg.eval.flit_width_bits = link_width_bits;
    if (theta != kSweepTheta) {
        // Pin Algorithm 1's sweep to exactly this theta. theta_max stays
        // the normalization bound of Eq. 1's new-edge weight, so the
        // pinned run reproduces the sweep's theta-th iteration; a step
        // wider than the remaining range keeps the loop to one pass.
        cfg.theta_min = theta;
        if (cfg.theta_max < theta) cfg.theta_max = theta;
        cfg.theta_step = cfg.theta_max - theta + 1.0;
    }
    cfg.routing = routing;
    return cfg;
}

std::string GridPoint::key() const {
    std::string key =
        format("f=%s;tsv=%d;w=%d;ph=%s;th=%s", double_bits(freq_hz).c_str(),
               max_tsvs, link_width_bits, phase_to_string(phase),
               double_bits(theta).c_str());
    // Appended only for non-default policies: default points keep their
    // pre-policy identity (seeds, cross-run cache entries).
    if (routing != routing::RoutingPolicyId::UpDown)
        key += format(";rp=%s", routing::routing_to_string(routing));
    return key;
}

std::string GridPoint::partition_key() const {
    return format("ph=%s;th=%s", phase_to_string(phase),
                  double_bits(theta).c_str());
}

std::string GridPoint::label() const {
    std::string s = format("f=%.0fMHz tsv=%d w=%d phase=%s", freq_hz / 1e6,
                           max_tsvs, link_width_bits, phase_to_string(phase));
    if (theta != kSweepTheta) s += format(" theta=%g", theta);
    if (routing != routing::RoutingPolicyId::UpDown)
        s += format(" routing=%s", routing::routing_to_string(routing));
    return s;
}

ParamGrid::ParamGrid() {
    const GridPoint d;
    axes_ = {
        {ParamKind::FrequencyHz, {d.freq_hz}},
        {ParamKind::MaxTsvs, {static_cast<double>(d.max_tsvs)}},
        {ParamKind::LinkWidthBits, {static_cast<double>(d.link_width_bits)}},
        {ParamKind::Phase, {phase_value(d.phase)}},
        {ParamKind::Theta, {d.theta}},
        {ParamKind::Routing, {routing_value(d.routing)}},
    };
}

void ParamGrid::set_axis(const ParamAxis& axis) {
    if (axis.values.empty())
        throw std::invalid_argument("ParamGrid: empty axis");
    for (double v : axis.values) {
        switch (axis.kind) {
            case ParamKind::FrequencyHz:
                if (v <= 0.0)
                    throw std::invalid_argument("ParamGrid: frequency <= 0");
                break;
            case ParamKind::MaxTsvs:
                if (v < 1.0)
                    throw std::invalid_argument("ParamGrid: max_tsvs < 1");
                break;
            case ParamKind::LinkWidthBits:
                if (v < 1.0)
                    throw std::invalid_argument("ParamGrid: link width < 1");
                break;
            case ParamKind::Phase:
                // Round-trip through the one enum<->double codec: any
                // value outside its range collapses to Auto and fails.
                if (phase_value(value_phase(v)) != v)
                    throw std::invalid_argument("ParamGrid: bad phase");
                break;
            case ParamKind::Theta:
                // theta divides Eq. 1's inter-layer edge weights.
                if (v != kSweepTheta && v <= 0.0)
                    throw std::invalid_argument("ParamGrid: theta <= 0");
                break;
            case ParamKind::Routing:
                // Round-trip through the one enum<->double codec, as the
                // phase axis does.
                if (routing_value(value_routing(v)) != v)
                    throw std::invalid_argument("ParamGrid: bad routing");
                break;
        }
    }
    axes_[static_cast<std::size_t>(axis.kind)] = axis;
}

const ParamAxis& ParamGrid::axis(ParamKind kind) const {
    return axes_[static_cast<std::size_t>(kind)];
}

std::size_t ParamGrid::cartesian_size() const {
    std::size_t n = 1;
    for (const auto& a : axes_) n *= a.values.size();
    return n;
}

std::vector<GridPoint> ParamGrid::enumerate() const {
    std::vector<GridPoint> points;
    points.reserve(cartesian_size());
    for (double f : axis(ParamKind::FrequencyHz).values)
        for (double tsv : axis(ParamKind::MaxTsvs).values)
            for (double w : axis(ParamKind::LinkWidthBits).values)
                for (double ph : axis(ParamKind::Phase).values)
                    for (double th : axis(ParamKind::Theta).values)
                        for (double rp : axis(ParamKind::Routing).values) {
                            GridPoint p;
                            p.freq_hz = f;
                            p.max_tsvs = static_cast<int>(tsv);
                            p.link_width_bits = static_cast<int>(w);
                            p.phase = value_phase(ph);
                            p.theta = th;
                            p.routing = value_routing(rp);
                            p.index = static_cast<int>(points.size());
                            points.push_back(p);
                        }
    return points;
}

}  // namespace sunfloor
