// Injection-parameter validation, the hotspot boost and the batched draw
// path.
//
// Regression suite for an input-validation bug: a NaN (or infinite)
// injection_scale used to sail past the bare sign check — NaN
// comparisons are false — and poison every flow rate through the
// std::min(1.0, rate) clamp. It must now throw std::invalid_argument
// naming the parameter. The suite also pins the draw_cycle() fast path
// to the step()-per-flow reference: same hits, same RNG stream.
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

TEST(InjectionValidation, HotspotBoostsFlowsIntoHotspotCore) {
    // The boost must land on the flows sinking at the busiest sink (core
    // 1: flows 0 and 1), fourfold, and only on those.
    InjectionParams uni;
    const std::vector<double> base =
        sim::flow_packet_rates(small_spec(), uni, EvalParams{});
    ASSERT_LT(4.0 * base[0], 1.0);  // below the one-packet clamp
    InjectionParams hot;
    hot.traffic = Traffic::Hotspot;
    const std::vector<double> boosted =
        sim::flow_packet_rates(small_spec(), hot, EvalParams{});
    EXPECT_DOUBLE_EQ(boosted[0], 4.0 * base[0]);
    EXPECT_DOUBLE_EQ(boosted[1], 4.0 * base[1]);
    EXPECT_DOUBLE_EQ(boosted[2], base[2]);
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
