// Injection-parameter validation and the batched draw path.
//
// Regression suite for three input-validation bugs: a NaN (or infinite)
// injection_scale / hotspot_factor used to sail past the bare sign
// checks — NaN comparisons are false — and poison every flow rate
// through the std::min(1.0, rate) clamp; an out-of-range hotspot_core
// silently degraded hotspot traffic to uniform (no flow ever sinks at a
// nonexistent core). All three must now throw std::invalid_argument
// naming the offending parameter. The suite also pins the draw_cycle()
// fast path to the step()-per-flow reference: same hits, same RNG
// stream.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "sunfloor/noc/evaluation.h"
#include "sunfloor/sim/injection.h"
#include "sunfloor/util/strings.h"

namespace sunfloor {
namespace {

using sim::InjectionParams;
using sim::InjectionState;
using sim::Traffic;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Four cores with flows 0->1, 2->1, 3->0 (core 1 is the busiest sink).
DesignSpec small_spec() {
    DesignSpec spec;
    for (int c = 0; c < 4; ++c) {
        Core core;
        core.name = format("c%d", c);
        core.position = {1.1 * c, 0.0};
        spec.cores.add_core(core);
    }
    spec.comm.add_flow({0, 1, 400.0, 0.0, FlowType::Request});
    spec.comm.add_flow({2, 1, 300.0, 0.0, FlowType::Request});
    spec.comm.add_flow({3, 0, 200.0, 0.0, FlowType::Request});
    return spec;
}

/// The invalid_argument thrown by flow_packet_rates for `inj`, or "" if
/// it did not throw.
std::string thrown_message(const InjectionParams& inj) {
    try {
        sim::flow_packet_rates(small_spec(), inj, EvalParams{});
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(InjectionValidation, NonFiniteScaleThrowsNamedError) {
    for (double bad : {kNan, kInf, -kInf, -0.5}) {
        InjectionParams inj;
        inj.injection_scale = bad;
        const std::string msg = thrown_message(inj);
        EXPECT_NE(msg.find("injection_scale"), std::string::npos)
            << "scale=" << bad << " message: " << msg;
    }
    InjectionParams ok;
    ok.injection_scale = 0.0;  // boundary: zero offered load is valid
    EXPECT_EQ(thrown_message(ok), "");
}

TEST(InjectionValidation, NonFiniteHotspotFactorThrowsNamedError) {
    for (double bad : {kNan, kInf, -1.0}) {
        InjectionParams inj;
        inj.traffic = Traffic::Hotspot;
        inj.hotspot_factor = bad;
        const std::string msg = thrown_message(inj);
        EXPECT_NE(msg.find("hotspot_factor"), std::string::npos)
            << "factor=" << bad << " message: " << msg;
    }
}

TEST(InjectionValidation, OutOfRangeHotspotCoreThrowsWithId) {
    InjectionParams inj;
    inj.traffic = Traffic::Hotspot;
    inj.hotspot_core = 7;  // spec has cores 0..3
    const std::string msg = thrown_message(inj);
    EXPECT_NE(msg.find("hotspot_core"), std::string::npos) << msg;
    EXPECT_NE(msg.find("7"), std::string::npos)
        << "message should carry the offending id: " << msg;
    inj.hotspot_core = 4;  // first invalid id
    EXPECT_NE(thrown_message(inj).find("hotspot_core"), std::string::npos);
    inj.hotspot_core = -5;  // only -1 means autoselect
    EXPECT_NE(thrown_message(inj).find("hotspot_core"), std::string::npos);
    inj.hotspot_core = 3;  // last valid id
    EXPECT_EQ(thrown_message(inj), "");
    inj.hotspot_core = -1;  // busiest-sink autoselect
    EXPECT_EQ(thrown_message(inj), "");
}

TEST(InjectionValidation, UniformTrafficIgnoresHotspotKnobs) {
    // The hotspot knobs are dormant outside hotspot traffic; validating
    // them there would reject sweeps that only vary `traffic`.
    InjectionParams inj;
    inj.traffic = Traffic::Uniform;
    inj.hotspot_core = 99;
    inj.hotspot_factor = kNan;
    EXPECT_EQ(thrown_message(inj), "");
}

TEST(InjectionValidation, NonFiniteBurstProbabilitiesThrowNamedError) {
    const DesignSpec spec = small_spec();
    for (double bad : {kNan, 0.0, -0.1, 1.5}) {
        InjectionParams inj;
        inj.traffic = Traffic::Bursty;
        inj.burst_on_to_off = bad;
        EXPECT_THROW(InjectionState(spec, inj, EvalParams{}),
                     std::invalid_argument)
            << "burst_on_to_off=" << bad;
        inj = InjectionParams{};
        inj.traffic = Traffic::Bursty;
        inj.burst_off_to_on = bad;
        EXPECT_THROW(InjectionState(spec, inj, EvalParams{}),
                     std::invalid_argument)
            << "burst_off_to_on=" << bad;
    }
}

TEST(InjectionValidation, HotspotBoostsFlowsIntoHotspotCore) {
    // With the range check in place the boost must actually land on the
    // flows sinking at the chosen core (and only those).
    InjectionParams uni;
    const std::vector<double> base =
        sim::flow_packet_rates(small_spec(), uni, EvalParams{});
    InjectionParams hot;
    hot.traffic = Traffic::Hotspot;
    hot.hotspot_core = 0;  // flow 2 (3->0) sinks there
    hot.hotspot_factor = 3.0;
    const std::vector<double> boosted =
        sim::flow_packet_rates(small_spec(), hot, EvalParams{});
    EXPECT_DOUBLE_EQ(boosted[0], base[0]);
    EXPECT_DOUBLE_EQ(boosted[1], base[1]);
    EXPECT_DOUBLE_EQ(boosted[2], 3.0 * base[2]);
}

TEST(InjectionDraw, BoolThresholdMatchesNextDouble) {
    // (u >> 11) < bool_threshold(p) must decide exactly like
    // next_double() < p for the same draw u (see the proof at the
    // declaration). Replay one RNG twice and compare decision streams.
    for (double p : {0.0, 1e-9, 0.1, 0.5, 0.9999999, 1.0}) {
        const std::uint64_t thr = InjectionState::bool_threshold(p);
        Rng a(7), b(7);
        for (int i = 0; i < 2000; ++i) {
            const bool via_threshold = (a.next_u64() >> 11) < thr;
            const bool via_double = b.next_double() < p;
            ASSERT_EQ(via_threshold, via_double) << "p=" << p;
        }
    }
}

TEST(InjectionDraw, DrawCycleMatchesPerFlowSteps) {
    // draw_cycle batches the per-flow Bernoulli draws of one cycle; it
    // must consume the identical RNG stream and produce the identical
    // hit set as the step()-per-flow reference, for every traffic model
    // (the simulator's replayability rests on this).
    const DesignSpec spec = small_spec();
    for (Traffic t : {Traffic::Uniform, Traffic::Bursty, Traffic::Hotspot}) {
        InjectionParams inj;
        inj.traffic = t;
        inj.injection_scale = 1.3;  // overload: nontrivial hit rates
        InjectionState batched(spec, inj, EvalParams{});
        InjectionState stepped(spec, inj, EvalParams{});
        Rng ra(99), rb(99);
        std::vector<int> hits(
            static_cast<std::size_t>(batched.num_flows()));
        for (int cycle = 0; cycle < 5000; ++cycle) {
            const int nh = batched.draw_cycle(ra, hits.data());
            std::vector<int> expect;
            for (int f = 0; f < stepped.num_flows(); ++f)
                if (stepped.step(f, rb)) expect.push_back(f);
            ASSERT_EQ(std::vector<int>(hits.begin(), hits.begin() + nh),
                      expect)
                << "cycle " << cycle;
            ASSERT_EQ(ra.next_u64(), rb.next_u64()) << "cycle " << cycle;
        }
    }
}

}  // namespace
}  // namespace sunfloor
