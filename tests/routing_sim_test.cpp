// Adaptive in-network output selection: the simulator driven by an
// adaptive RoutingPolicy (west-first / odd-even) must follow the baked
// paths at zero load (tie-break), deviate under contention (that is the
// point of adaptivity), stay bit-deterministic, and always drain — the
// runtime face of the route-set CDG acyclicity proof.
#include <gtest/gtest.h>

#include <cstring>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/routing/policy.h"
#include "sunfloor/sim/simulator.h"
#include "sunfloor/spec/benchmarks.h"

namespace sunfloor {
namespace {

using routing::RoutingPolicyId;

bool bitwise_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Best valid design of a benchmark synthesized under `policy`.
DesignPoint best_design(const DesignSpec& spec, RoutingPolicyId policy,
                        SynthesisConfig& cfg_out) {
    SynthesisConfig cfg;
    cfg.run_floorplan = false;
    cfg.routing = policy;
    const SynthesisResult res = run_synthesis(spec, cfg);
    const int best = res.best_power_index();
    EXPECT_GE(best, 0);
    cfg_out = cfg;
    return res.points[static_cast<std::size_t>(best)];
}

TEST(RoutingSim, AdaptiveMatchesFixedPathAtZeroLoad) {
    // At vanishing load every downstream buffer is empty, so the
    // credit-aware tie-break always picks the baked path's link: the
    // adaptive engine must reproduce the fixed-path latencies exactly.
    const DesignSpec spec = make_benchmark("D_36_4");
    SynthesisConfig cfg;
    const DesignPoint dp =
        best_design(spec, RoutingPolicyId::WestFirst, cfg);

    sim::SimParams p;
    p.inject.injection_scale = 0.02;  // far below saturation
    p.measure_cycles = 4000;
    sim::SimParams fixed = p;  // default: up-down, replays baked paths
    sim::SimParams adaptive = p;
    adaptive.routing = RoutingPolicyId::WestFirst;

    const sim::SimReport a =
        sim::Simulator(dp.topo, spec, cfg.eval).run(spec, cfg.eval, fixed);
    const sim::SimReport b =
        sim::Simulator(dp.topo, spec, cfg.eval, adaptive.routing)
            .run(spec, cfg.eval, adaptive);
    EXPECT_EQ(a.received_packets, b.received_packets);
    EXPECT_TRUE(bitwise_equal(a.avg_latency_cycles, b.avg_latency_cycles));
    EXPECT_TRUE(bitwise_equal(a.p99_latency_cycles, b.p99_latency_cycles));
    EXPECT_TRUE(a.drained);
    EXPECT_TRUE(b.drained);
}

TEST(RoutingSim, AdaptiveShiftsLatencyUnderContention) {
    // Under heavy load the adaptive engine deviates from the baked paths
    // (that is what the enlarged route set buys), so measured latency
    // must differ from the fixed-path replay of the same topology on at
    // least one benchmark.
    int shifted = 0;
    for (const char* name : {"D_36_4", "D_35_bot"}) {
        const DesignSpec spec = make_benchmark(name);
        SynthesisConfig cfg;
        const DesignPoint dp =
            best_design(spec, RoutingPolicyId::OddEven, cfg);

        sim::SimParams p;
        p.inject.injection_scale = 1.5;  // past saturation: real queueing
        p.measure_cycles = 4000;
        sim::SimParams fixed = p;
        sim::SimParams adaptive = p;
        adaptive.routing = RoutingPolicyId::OddEven;

        const sim::SimReport a =
            sim::Simulator(dp.topo, spec, cfg.eval).run(spec, cfg.eval, fixed);
        const sim::SimReport b =
            sim::Simulator(dp.topo, spec, cfg.eval, adaptive.routing)
                .run(spec, cfg.eval, adaptive);
        EXPECT_TRUE(a.drained) << name;
        EXPECT_TRUE(b.drained) << name;
        if (!bitwise_equal(a.avg_latency_cycles, b.avg_latency_cycles))
            ++shifted;
    }
    EXPECT_GT(shifted, 0);
}

TEST(RoutingSim, AdaptiveRunsAreBitDeterministic) {
    const DesignSpec spec = make_benchmark("D_26_media");
    SynthesisConfig cfg;
    const DesignPoint dp =
        best_design(spec, RoutingPolicyId::WestFirst, cfg);

    sim::SimParams p;
    p.routing = RoutingPolicyId::WestFirst;
    p.inject.injection_scale = 1.0;
    p.measure_cycles = 3000;
    const sim::SimReport a = sim::Simulator(dp.topo, spec, cfg.eval, p.routing)
                                 .run(spec, cfg.eval, p);
    const sim::SimReport b = sim::Simulator(dp.topo, spec, cfg.eval, p.routing)
                                 .run(spec, cfg.eval, p);
    EXPECT_EQ(a.received_packets, b.received_packets);
    EXPECT_EQ(a.cycles_run, b.cycles_run);
    EXPECT_TRUE(bitwise_equal(a.avg_latency_cycles, b.avg_latency_cycles));
    EXPECT_TRUE(bitwise_equal(a.max_latency_cycles, b.max_latency_cycles));
    ASSERT_EQ(a.flow_avg_latency_cycles.size(),
              b.flow_avg_latency_cycles.size());
    for (std::size_t f = 0; f < a.flow_avg_latency_cycles.size(); ++f)
        EXPECT_TRUE(bitwise_equal(a.flow_avg_latency_cycles[f],
                                  b.flow_avg_latency_cycles[f]));
}

TEST(RoutingSim, AdaptivePoliciesDrainUnderStress) {
    // Route-set CDG acyclicity promises freedom from deadlock for *every*
    // in-network choice; overdriving the fabric and requiring a full
    // drain is the runtime cross-check.
    for (RoutingPolicyId id :
         {RoutingPolicyId::WestFirst, RoutingPolicyId::OddEven}) {
        const DesignSpec spec = make_benchmark("D_35_bot");
        SynthesisConfig cfg;
        const DesignPoint dp = best_design(spec, id, cfg);

        sim::SimParams p;
        p.routing = id;
        p.inject.injection_scale = 2.0;
        p.inject.traffic = sim::Traffic::Bursty;
        p.measure_cycles = 3000;
        const sim::SimReport rep =
            sim::Simulator(dp.topo, spec, cfg.eval, id).run(spec, cfg.eval, p);
        EXPECT_TRUE(rep.drained) << routing::routing_to_string(id);
        EXPECT_EQ(rep.in_flight_flits_at_end, 0)
            << routing::routing_to_string(id);
        EXPECT_EQ(rep.injected_packets, rep.received_packets)
            << routing::routing_to_string(id);
    }
}

TEST(RoutingSim, MismatchedAdaptivePolicyIsReported) {
    // Simulating a topology under an *adaptive* policy other than the one
    // it was synthesized with is a configuration error: baked paths fall
    // outside the foreign route set, and build_route_sets reports the
    // mismatch instead of letting packets strand.
    const DesignSpec spec = make_benchmark("D_36_4");
    SynthesisConfig cfg;
    const DesignPoint dp = best_design(spec, RoutingPolicyId::UpDown, cfg);
    sim::SimParams p;
    p.routing = RoutingPolicyId::WestFirst;
    p.measure_cycles = 1000;
    try {
        (void)sim::Simulator(dp.topo, spec, cfg.eval, p.routing)
            .run(spec, cfg.eval, p);
        // Permissible: every baked path of this design happens to lie in
        // west-first's route set too (e.g. all single-hop).
    } catch (const std::logic_error& e) {
        EXPECT_NE(std::string(e.what()).find("does not match"),
                  std::string::npos);
    }
}

TEST(RoutingSim, MismatchedDeterministicPolicyStillReplaysBakedPaths) {
    // SimParams.routing with a *deterministic* policy never consults the
    // automaton at run time — it replays whatever paths the topology
    // carries, so simulating a west-first topology under the default
    // up-down params is the fixed-path baseline used above.
    const DesignSpec spec = make_benchmark("D_36_4");
    SynthesisConfig cfg;
    const DesignPoint dp =
        best_design(spec, RoutingPolicyId::WestFirst, cfg);
    sim::SimParams p;  // default up-down
    p.measure_cycles = 2000;
    const sim::SimReport rep =
        sim::Simulator(dp.topo, spec, cfg.eval).run(spec, cfg.eval, p);
    EXPECT_TRUE(rep.drained);
    EXPECT_GT(rep.received_packets, 0);
}

}  // namespace
}  // namespace sunfloor
