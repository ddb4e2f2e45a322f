// Flit-level simulator: zero-load timing against the analytic model on
// hand-built topologies, wormhole pipelining, contention, backpressure,
// conservation (nothing is ever dropped) and bit-exact determinism.
#include <gtest/gtest.h>

#include <algorithm>

#include "sunfloor/noc/evaluation.h"
#include "sunfloor/sim/simulator.h"

namespace sunfloor {
namespace {

using sim::SimParams;
using sim::SimReport;
using sim::Simulator;
using sim::Traffic;

Core make_core(const std::string& name, double x, double y, int layer = 0) {
    Core c;
    c.name = name;
    c.width = 1.0;
    c.height = 1.0;
    c.position = {x, y};
    c.layer = layer;
    return c;
}

/// Star: every core attaches to one central switch; each requested flow
/// is routed core -> switch -> core. All geometry is compact, so every
/// link is a single pipeline stage at 400 MHz.
struct StarFixture {
    DesignSpec spec;
    Topology topo{CoreSpec{}, 0};
    EvalParams eval{};

    StarFixture(int num_cores, const std::vector<Flow>& flows) {
        for (int c = 0; c < num_cores; ++c)
            spec.cores.add_core(
                make_core("c" + std::to_string(c), 1.1 * c, 0.0));
        for (const Flow& f : flows) spec.comm.add_flow(f);
        topo = Topology(spec.cores, spec.comm.num_flows());
        const int sw = topo.add_switch("sw0", 0, {0.5, 1.0});
        for (int fi = 0; fi < spec.comm.num_flows(); ++fi) {
            const Flow& f = spec.comm.flow(fi);
            const int in = topo.add_link(NodeRef::core(f.src),
                                         NodeRef::sw(sw), f.type);
            const int out = topo.add_link(NodeRef::sw(sw),
                                          NodeRef::core(f.dst), f.type);
            topo.set_flow_path(fi, f, {in, out});
        }
    }
};

/// 0.25 flits/cycle at 400 MHz with 32-bit flits.
constexpr double kBw = 400.0;

SimParams quick_params() {
    SimParams p;
    p.inject.packet_length_flits = 1;
    p.warmup_cycles = 200;
    p.measure_cycles = 2000;
    return p;
}

TEST(Sim, ZeroLoadMatchesAnalyticOnStar) {
    StarFixture fx(2, {{0, 1, kBw, 0.0, FlowType::Request}});
    SimParams p = quick_params();
    const SimReport rep =
        Simulator(fx.topo, fx.spec, fx.eval).run_zero_load(p);
    ASSERT_EQ(rep.flow_avg_latency_cycles.size(), 1u);
    EXPECT_DOUBLE_EQ(rep.flow_avg_latency_cycles[0],
                     flow_latency(fx.topo, 0, fx.eval));
    EXPECT_DOUBLE_EQ(rep.flow_avg_latency_cycles[0], 1.0);  // 1 switch hop
    EXPECT_TRUE(rep.drained);
    EXPECT_EQ(rep.injected_packets, 1);
    EXPECT_EQ(rep.received_packets, 1);
}

TEST(Sim, ZeroLoadCountsPipelineStagesOnLongLinks) {
    // A 10 mm switch-to-switch wire at 400 MHz needs several pipeline
    // stages; the simulator must charge exactly stages - 1 extra cycles,
    // like the analytic model.
    DesignSpec spec;
    spec.cores.add_core(make_core("a", 0.0, 0.0));
    spec.cores.add_core(make_core("b", 12.0, 0.0));
    Flow f{0, 1, kBw, 0.0, FlowType::Request};
    spec.comm.add_flow(f);
    Topology topo(spec.cores, 1);
    const int s0 = topo.add_switch("s0", 0, {1.0, 0.5});
    const int s1 = topo.add_switch("s1", 0, {11.0, 0.5});
    const int l0 = topo.add_link(NodeRef::core(0), NodeRef::sw(s0));
    const int l1 = topo.add_link(NodeRef::sw(s0), NodeRef::sw(s1));
    const int l2 = topo.add_link(NodeRef::sw(s1), NodeRef::core(1));
    topo.set_flow_path(0, f, {l0, l1, l2});

    EvalParams eval;
    ASSERT_GT(eval.wire.pipeline_stages(topo.link_planar_length(l1),
                                        eval.freq_hz),
              1);
    const SimReport rep =
        Simulator(topo, spec, eval).run_zero_load(quick_params());
    EXPECT_DOUBLE_EQ(rep.flow_avg_latency_cycles[0],
                     flow_latency(topo, 0, eval));
}

TEST(Sim, WormholeTailFollowsHeadOneFlitPerCycle) {
    StarFixture fx(2, {{0, 1, kBw, 0.0, FlowType::Request}});
    SimParams p = quick_params();
    p.inject.packet_length_flits = 5;
    p.buffer_depth_flits = 8;
    const SimReport rep =
        Simulator(fx.topo, fx.spec, fx.eval).run_zero_load(p);
    // Head pays the path latency; the tail streams 4 cycles behind.
    EXPECT_DOUBLE_EQ(rep.avg_head_latency_cycles, 1.0);
    EXPECT_DOUBLE_EQ(rep.flow_avg_latency_cycles[0], 5.0);
    EXPECT_EQ(rep.received_flits, 5);
}

TEST(Sim, ConservesAllPacketsUnderLoad) {
    // Four senders into one receiver through one switch: heavy sharing
    // of the ejection link, but credit backpressure must never lose a
    // flit — everything injected is eventually delivered.
    std::vector<Flow> flows;
    for (int s = 0; s < 4; ++s)
        flows.push_back({s, 4, kBw, 0.0, FlowType::Request});
    StarFixture fx(5, flows);
    SimParams p = quick_params();
    p.inject.packet_length_flits = 4;
    p.buffer_depth_flits = 2;  // tight buffers: backpressure is exercised
    const SimReport rep =
        Simulator(fx.topo, fx.spec, fx.eval).run(fx.spec, fx.eval, p);
    EXPECT_TRUE(rep.drained);
    EXPECT_EQ(rep.in_flight_flits_at_end, 0);
    EXPECT_EQ(rep.received_packets, rep.injected_packets);
    EXPECT_EQ(rep.received_flits, rep.injected_flits);
    EXPECT_GT(rep.injected_packets, 0);
}

TEST(Sim, ContentionRaisesLatencyAboveZeroLoad) {
    // Aggregate demand on the shared ejection link is 4 * 0.25 = 1.0
    // flits/cycle — saturation: queueing is guaranteed, so the measured
    // average must exceed the zero-load 1.0 and p99 must exceed the mean.
    std::vector<Flow> flows;
    for (int s = 0; s < 4; ++s)
        flows.push_back({s, 4, kBw, 0.0, FlowType::Request});
    StarFixture fx(5, flows);
    const SimReport rep = Simulator(fx.topo, fx.spec, fx.eval)
                              .run(fx.spec, fx.eval, quick_params());
    EXPECT_GT(rep.avg_latency_cycles, 1.0);
    EXPECT_GE(rep.p99_latency_cycles, rep.avg_latency_cycles);
    EXPECT_LE(rep.max_latency_cycles + 1e-9, 1e9);
    // The shared link saturates but never exceeds one flit per cycle.
    double max_util = 0.0;
    for (double u : rep.link_utilization) max_util = std::max(max_util, u);
    EXPECT_LE(max_util, 1.0 + 1e-12);
    EXPECT_GT(max_util, 0.5);
}

TEST(Sim, AcceptedTracksOfferedBelowSaturation) {
    StarFixture fx(3, {{0, 2, kBw, 0.0, FlowType::Request},
                       {1, 2, kBw, 0.0, FlowType::Request}});
    SimParams p = quick_params();
    p.inject.injection_scale = 0.5;  // shared link at 0.25 flits/cycle
    p.measure_cycles = 20000;
    const SimReport rep =
        Simulator(fx.topo, fx.spec, fx.eval).run(fx.spec, fx.eval, p);
    EXPECT_TRUE(rep.drained);
    EXPECT_NEAR(rep.accepted_flits_per_cycle, rep.offered_flits_per_cycle,
                0.05 * rep.offered_flits_per_cycle);
}

TEST(Sim, DeterministicForEqualSeedsAndSensitiveToSeed) {
    std::vector<Flow> flows;
    for (int s = 0; s < 3; ++s)
        flows.push_back({s, 3, kBw, 0.0, FlowType::Request});
    StarFixture fx(4, flows);
    SimParams p = quick_params();
    p.seed = 7;
    const SimReport a =
        Simulator(fx.topo, fx.spec, fx.eval).run(fx.spec, fx.eval, p);
    const SimReport b =
        Simulator(fx.topo, fx.spec, fx.eval).run(fx.spec, fx.eval, p);
    EXPECT_EQ(a.injected_packets, b.injected_packets);
    EXPECT_EQ(a.received_packets, b.received_packets);
    EXPECT_EQ(a.cycles_run, b.cycles_run);
    EXPECT_DOUBLE_EQ(a.avg_latency_cycles, b.avg_latency_cycles);
    EXPECT_DOUBLE_EQ(a.p99_latency_cycles, b.p99_latency_cycles);
    ASSERT_EQ(a.link_utilization.size(), b.link_utilization.size());
    for (std::size_t l = 0; l < a.link_utilization.size(); ++l)
        EXPECT_DOUBLE_EQ(a.link_utilization[l], b.link_utilization[l]);

    SimParams q = p;
    q.seed = 8;
    const SimReport c =
        Simulator(fx.topo, fx.spec, fx.eval).run(fx.spec, fx.eval, q);
    EXPECT_NE(a.injected_packets, c.injected_packets);
}

TEST(Sim, BurstyKeepsMeanRateButDegradesLatency) {
    std::vector<Flow> flows;
    for (int s = 0; s < 4; ++s)
        flows.push_back({s, 4, kBw, 0.0, FlowType::Request});
    StarFixture fx(5, flows);
    SimParams uni = quick_params();
    uni.inject.injection_scale = 0.6;
    uni.measure_cycles = 30000;
    SimParams bur = uni;
    bur.inject.traffic = Traffic::Bursty;
    const SimReport ru =
        Simulator(fx.topo, fx.spec, fx.eval).run(fx.spec, fx.eval, uni);
    const SimReport rb =
        Simulator(fx.topo, fx.spec, fx.eval).run(fx.spec, fx.eval, bur);
    // Same long-run offered load...
    EXPECT_DOUBLE_EQ(ru.offered_flits_per_cycle, rb.offered_flits_per_cycle);
    EXPECT_NEAR(static_cast<double>(rb.injected_packets),
                static_cast<double>(ru.injected_packets),
                0.25 * static_cast<double>(ru.injected_packets));
    // ... but clustered arrivals queue up: the same mean load hurts more.
    EXPECT_GT(rb.avg_latency_cycles, ru.avg_latency_cycles);
}

TEST(Sim, HotspotBoostsRatesIntoTheHotCore) {
    DesignSpec spec;
    for (int c = 0; c < 4; ++c)
        spec.cores.add_core(make_core("c" + std::to_string(c), 1.1 * c, 0.0));
    spec.comm.add_flow({0, 3, kBw, 0.0, FlowType::Request});
    spec.comm.add_flow({1, 3, kBw, 0.0, FlowType::Request});
    spec.comm.add_flow({1, 2, kBw, 0.0, FlowType::Request});
    sim::InjectionParams inj;
    inj.traffic = Traffic::Hotspot;
    inj.packet_length_flits = 1;
    inj.hotspot_factor = 3.0;  // auto hotspot = core 3 (most inbound bw)
    EvalParams eval;
    const auto rates = sim::flow_packet_rates(spec, inj, eval);
    ASSERT_EQ(rates.size(), 3u);
    EXPECT_DOUBLE_EQ(rates[0], 0.75);  // 0.25 * 3
    EXPECT_DOUBLE_EQ(rates[1], 0.75);
    EXPECT_DOUBLE_EQ(rates[2], 0.25);  // not into the hotspot
}

TEST(Sim, BurstyRateClampIsReportedHonestly) {
    // A flow demanding more than the ON duty cycle (0.2 by default)
    // can only achieve `duty` packets/cycle; the reported rates must be
    // the achievable mean, not the request.
    DesignSpec spec;
    spec.cores.add_core(make_core("a", 0.0, 0.0));
    spec.cores.add_core(make_core("b", 1.1, 0.0));
    spec.comm.add_flow({0, 1, 2 * kBw, 0.0, FlowType::Request});  // 0.5 f/c
    sim::InjectionParams inj;
    inj.traffic = Traffic::Bursty;
    inj.packet_length_flits = 1;
    EvalParams eval;
    sim::InjectionState state(spec, inj, eval);
    EXPECT_DOUBLE_EQ(state.packet_rate(0), 0.2);  // clamped to the duty
    EXPECT_DOUBLE_EQ(state.offered_flits_per_cycle(), 0.2);
    // Below the duty cycle the mean is preserved exactly.
    inj.injection_scale = 0.2;  // 0.1 packets/cycle < duty
    sim::InjectionState low(spec, inj, eval);
    EXPECT_DOUBLE_EQ(low.packet_rate(0), 0.1);
}

TEST(Sim, RejectsUnroutedTopologies) {
    DesignSpec spec;
    spec.cores.add_core(make_core("a", 0.0, 0.0));
    spec.cores.add_core(make_core("b", 1.1, 0.0));
    spec.comm.add_flow({0, 1, kBw, 0.0, FlowType::Request});
    Topology topo(spec.cores, 1);  // no path assigned
    EvalParams eval;
    EXPECT_THROW(Simulator(topo, spec, eval).run(spec, eval, quick_params()),
                 std::invalid_argument);
}

TEST(Sim, RejectsBadParams) {
    StarFixture fx(2, {{0, 1, kBw, 0.0, FlowType::Request}});
    SimParams p = quick_params();
    p.buffer_depth_flits = 0;
    EXPECT_THROW(
        Simulator(fx.topo, fx.spec, fx.eval).run(fx.spec, fx.eval, p),
        std::invalid_argument);
    p = quick_params();
    p.inject.packet_length_flits = 0;
    EXPECT_THROW(
        Simulator(fx.topo, fx.spec, fx.eval).run(fx.spec, fx.eval, p),
        std::invalid_argument);
    p = quick_params();
    p.measure_cycles = 0;
    EXPECT_THROW(
        Simulator(fx.topo, fx.spec, fx.eval).run(fx.spec, fx.eval, p),
        std::invalid_argument);
}

TEST(Sim, TrafficStringsRoundTrip) {
    Traffic t = Traffic::Uniform;
    for (const char* s : {"uniform", "bursty", "hotspot"}) {
        ASSERT_TRUE(sim::traffic_from_string(s, t));
        EXPECT_STREQ(sim::traffic_to_string(t), s);
    }
    EXPECT_FALSE(sim::traffic_from_string("poisson", t));
}

}  // namespace
}  // namespace sunfloor
