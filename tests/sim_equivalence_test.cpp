// Engine-equivalence properties of the CSR/SoA simulator, driven by
// generated specs (specgen) instead of the five paper benchmarks, so
// the invariants are exercised on structurally diverse topologies:
//
//  * bit-exact determinism of repeated runs,
//  * a warmed (reused) Simulator replays a cold one bit-identically —
//    the contract that lets the CLI rate sweep, the throughput bench
//    and the explorer share one engine across runs,
//  * flit conservation: a drained run delivered every measured flit,
//  * accepted throughput never exceeds offered,
//  * the network drains even when driven far past saturation.
//
// Swept over the three traffic models and the three routing policies.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/routing/policy.h"
#include "sunfloor/sim/simulator.h"
#include "sunfloor/specgen/specgen.h"

namespace sunfloor {
namespace {

using routing::RoutingPolicyId;
using sim::SimParams;
using sim::SimReport;
using sim::Traffic;

constexpr RoutingPolicyId kPolicies[] = {RoutingPolicyId::UpDown,
                                         RoutingPolicyId::WestFirst,
                                         RoutingPolicyId::OddEven};
constexpr Traffic kTraffics[] = {Traffic::Uniform, Traffic::Bursty,
                                 Traffic::Hotspot};

bool bitwise_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every field of the report that summarizes the run, compared bit for
/// bit (two identical engine executions must agree on all of them).
void expect_reports_identical(const SimReport& a, const SimReport& b) {
    EXPECT_EQ(a.injected_packets, b.injected_packets);
    EXPECT_EQ(a.received_packets, b.received_packets);
    EXPECT_EQ(a.injected_flits, b.injected_flits);
    EXPECT_EQ(a.received_flits, b.received_flits);
    EXPECT_TRUE(bitwise_equal(a.avg_latency_cycles, b.avg_latency_cycles));
    EXPECT_TRUE(bitwise_equal(a.p99_latency_cycles, b.p99_latency_cycles));
    EXPECT_TRUE(bitwise_equal(a.max_latency_cycles, b.max_latency_cycles));
    EXPECT_TRUE(bitwise_equal(a.avg_head_latency_cycles,
                              b.avg_head_latency_cycles));
    EXPECT_TRUE(bitwise_equal(a.accepted_flits_per_cycle,
                              b.accepted_flits_per_cycle));
    ASSERT_EQ(a.flow_avg_latency_cycles.size(),
              b.flow_avg_latency_cycles.size());
    for (std::size_t f = 0; f < a.flow_avg_latency_cycles.size(); ++f)
        EXPECT_TRUE(bitwise_equal(a.flow_avg_latency_cycles[f],
                                  b.flow_avg_latency_cycles[f]));
    EXPECT_EQ(a.drained, b.drained);
    EXPECT_EQ(a.cycles_run, b.cycles_run);
}

/// One generated spec per family, synthesized under `policy`.
struct Synthesized {
    DesignSpec spec;
    SynthesisConfig cfg;
    DesignPoint point{Topology{CoreSpec{}, 0}};
};

Synthesized synthesize(specgen::GenFamily family, RoutingPolicyId policy) {
    specgen::GenParams gp;
    gp.family = family;
    gp.num_cores = 12;  // small: nine (family x policy) syntheses below
    Synthesized s;
    s.spec = specgen::generate(gp, 17);
    s.cfg.run_floorplan = false;
    s.cfg.routing = policy;
    const SynthesisResult res = run_synthesis(s.spec, s.cfg);
    const int best = res.best_power_index();
    EXPECT_GE(best, 0) << specgen::family_to_string(family);
    s.point = res.points[static_cast<std::size_t>(best)];
    return s;
}

SimParams base_params(RoutingPolicyId policy) {
    SimParams p;
    p.routing = policy;
    p.inject.injection_scale = 0.8;
    p.warmup_cycles = 500;
    p.measure_cycles = 3000;
    return p;
}

TEST(SimEquivalence, WarmSimulatorReplaysColdRunsBitIdentically) {
    for (auto family :
         {specgen::GenFamily::Pipeline, specgen::GenFamily::HubAndSpoke,
          specgen::GenFamily::LayeredDag}) {
        for (RoutingPolicyId policy : kPolicies) {
            const Synthesized s = synthesize(family, policy);
            const SimParams p = base_params(policy);
            // Cold: fresh index and engine per call.
            const SimReport cold =
                sim::Simulator(s.point.topo, s.spec, s.cfg.eval, policy)
                    .run(s.spec, s.cfg.eval, p);
            const SimReport cold2 =
                sim::Simulator(s.point.topo, s.spec, s.cfg.eval, policy)
                    .run(s.spec, s.cfg.eval, p);
            expect_reports_identical(cold, cold2);
            // Warm: one Simulator, three runs over the same arenas. The
            // second and third must not remember the first.
            sim::Simulator warm(s.point.topo, s.spec, s.cfg.eval, policy);
            expect_reports_identical(cold,
                                     warm.run(s.spec, s.cfg.eval, p));
            expect_reports_identical(cold,
                                     warm.run(s.spec, s.cfg.eval, p));
            SimParams stressed = p;
            stressed.inject.injection_scale = 1.5;
            warm.run(s.spec, s.cfg.eval, stressed);  // perturb the arenas
            expect_reports_identical(cold,
                                     warm.run(s.spec, s.cfg.eval, p));
        }
    }
}

TEST(SimEquivalence, WarmZeroLoadMatchesColdZeroLoad) {
    const Synthesized s =
        synthesize(specgen::GenFamily::LayeredDag, RoutingPolicyId::UpDown);
    for (RoutingPolicyId policy : kPolicies) {
        SimParams p;
        p.routing = policy;
        const SimReport cold =
            sim::Simulator(s.point.topo, s.spec, s.cfg.eval, policy)
                .run_zero_load(p);
        sim::Simulator warm(s.point.topo, s.spec, s.cfg.eval, policy);
        warm.run(s.spec, s.cfg.eval, base_params(policy));  // dirty it
        expect_reports_identical(cold, warm.run_zero_load(p));
    }
}

TEST(SimEquivalence, DrainedRunsConserveMeasuredFlits) {
    for (auto family :
         {specgen::GenFamily::Pipeline, specgen::GenFamily::HubAndSpoke}) {
        const Synthesized s = synthesize(family, RoutingPolicyId::UpDown);
        sim::Simulator warm(s.point.topo, s.spec, s.cfg.eval,
                            RoutingPolicyId::UpDown);
        for (Traffic t : kTraffics) {
            SimParams p = base_params(RoutingPolicyId::UpDown);
            p.inject.traffic = t;
            const SimReport rep = warm.run(s.spec, s.cfg.eval, p);
            ASSERT_TRUE(rep.drained) << sim::traffic_to_string(t);
            EXPECT_EQ(rep.in_flight_flits_at_end, 0);
            // Drained means every measured flit was delivered — the
            // engine never drops or duplicates a flit.
            EXPECT_EQ(rep.received_flits, rep.injected_flits)
                << sim::traffic_to_string(t);
            EXPECT_EQ(rep.received_packets, rep.injected_packets);
        }
    }
}

TEST(SimEquivalence, AcceptedThroughputNeverExceedsOffered) {
    const Synthesized s =
        synthesize(specgen::GenFamily::HubAndSpoke, RoutingPolicyId::UpDown);
    sim::Simulator warm(s.point.topo, s.spec, s.cfg.eval,
                        RoutingPolicyId::UpDown);
    for (Traffic t : kTraffics) {
        for (double rate : {0.5, 1.5}) {
            SimParams p = base_params(RoutingPolicyId::UpDown);
            p.inject.traffic = t;
            p.inject.injection_scale = rate;
            p.warmup_cycles = 0;  // measure from cycle 0: no stored
                                  // backlog can inflate the window
            const SimReport rep = warm.run(s.spec, s.cfg.eval, p);
            EXPECT_GT(rep.accepted_flits_per_cycle, 0.0);
            // 1.05: the offered rate is a mean; a finite window can run
            // slightly hot before backpressure binds.
            EXPECT_LE(rep.accepted_flits_per_cycle,
                      rep.offered_flits_per_cycle * 1.05)
                << sim::traffic_to_string(t) << " rate " << rate;
        }
    }
}

TEST(SimEquivalence, DrainsUnderStress) {
    // Far past saturation with minimal buffering: deep injection queues
    // build up, yet once injection stops the network must empty (the
    // drain bound is the runtime face of the deadlock-freedom proof).
    for (RoutingPolicyId policy : kPolicies) {
        const Synthesized s =
            synthesize(specgen::GenFamily::Pipeline, policy);
        SimParams p = base_params(policy);
        p.inject.injection_scale = 1.5;
        p.buffer_depth_flits = 1;
        p.measure_cycles = 2000;
        const SimReport rep =
            sim::Simulator(s.point.topo, s.spec, s.cfg.eval, policy)
                .run(s.spec, s.cfg.eval, p);
        EXPECT_TRUE(rep.drained)
            << routing::routing_to_string(policy);
        EXPECT_EQ(rep.in_flight_flits_at_end, 0);
    }
}

}  // namespace
}  // namespace sunfloor
