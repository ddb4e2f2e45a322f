// Tests for the pluggable routing subsystem: the RoutingPolicy automata,
// route-set enumeration, and the deadlock property tests over the
// enlarged (adaptive) route sets on every paper benchmark.
#include <gtest/gtest.h>

#include <algorithm>

#include "oracle/route_set_cdg.h"
#include "sunfloor/core/path_compute.h"
#include "sunfloor/core/synthesizer.h"
#include "sunfloor/noc/deadlock.h"
#include "sunfloor/routing/policy.h"
#include "sunfloor/routing/route_sets.h"
#include "sunfloor/spec/benchmarks.h"

namespace sunfloor {
namespace {

using routing::RoutingPolicyId;
using routing::SwitchView;

constexpr RoutingPolicyId kAllPolicies[] = {
    RoutingPolicyId::UpDown,
    RoutingPolicyId::WestFirst,
    RoutingPolicyId::OddEven,
};

SwitchView sw(int index, int layer = 0) { return {index, layer}; }

TEST(RoutingPolicy, UpDownAutomatonIsAscendThenDescend) {
    const auto& p = routing::routing_policy(RoutingPolicyId::UpDown);
    EXPECT_EQ(p.num_states(), 2);
    EXPECT_EQ(p.initial_state(), 0);
    EXPECT_FALSE(p.adaptive_in_sim());
    // Ascending keeps the ascent alive; descending turns, once.
    EXPECT_EQ(p.next_state(sw(2), sw(5), 0), 0);
    EXPECT_EQ(p.next_state(sw(5), sw(3), 0), 1);
    EXPECT_EQ(p.next_state(sw(3), sw(1), 1), 1);
    // Down -> up is forbidden.
    EXPECT_EQ(p.next_state(sw(1), sw(4), 1), -1);
}

TEST(RoutingPolicy, WestFirstIsTheMirrorDiscipline) {
    const auto& p = routing::routing_policy(RoutingPolicyId::WestFirst);
    EXPECT_TRUE(p.adaptive_in_sim());
    // All westward (index-decreasing) hops come first.
    EXPECT_EQ(p.next_state(sw(5), sw(2), 0), 0);
    EXPECT_EQ(p.next_state(sw(2), sw(4), 0), 1);
    EXPECT_EQ(p.next_state(sw(4), sw(6), 1), 1);
    // After turning east, west is forbidden.
    EXPECT_EQ(p.next_state(sw(6), sw(3), 1), -1);
}

TEST(RoutingPolicy, OddEvenOrdersByParityThenIndex) {
    const auto& p = routing::routing_policy(RoutingPolicyId::OddEven);
    EXPECT_TRUE(p.adaptive_in_sim());
    // Even-index switches rank below odd-index ones: 2 -> 3 ascends,
    // 3 -> 2 descends, and 4 -> 2 (both even) descends by index.
    EXPECT_EQ(p.next_state(sw(2), sw(3), 0), 0);
    EXPECT_EQ(p.next_state(sw(3), sw(2), 0), 1);
    EXPECT_EQ(p.next_state(sw(4), sw(2), 0), 1);
    // Phase 1 only descends: any ascent (2 -> 5 across groups, 3 -> 5
    // within the odd group) is forbidden after the turn.
    EXPECT_EQ(p.next_state(sw(2), sw(5), 1), -1);
    EXPECT_EQ(p.next_state(sw(3), sw(5), 1), -1);
    EXPECT_EQ(p.next_state(sw(5), sw(3), 1), 1);
}

/// Every shipped policy admits some path between any two switches of a
/// full bidirectional clique (the route-set automaton never makes a pair
/// unreachable; feasibility is the cost model's business).
TEST(RoutingPolicy, TwoPhaseDisciplinesAdmitDirectHops) {
    for (RoutingPolicyId id : kAllPolicies) {
        const auto& p = routing::routing_policy(id);
        for (int u = 0; u < 4; ++u)
            for (int v = 0; v < 4; ++v) {
                if (u == v) continue;
                EXPECT_GE(p.next_state(sw(u), sw(v), p.initial_state()), 0)
                    << routing::routing_to_string(id) << " " << u << "->"
                    << v;
            }
    }
}

TEST(RoutingPolicy, ScheduleFlowsIsDecreasingBandwidthStable) {
    CommSpec comm;
    comm.add_flow({0, 1, 100, 0, FlowType::Request});
    comm.add_flow({1, 2, 300, 0, FlowType::Request});
    comm.add_flow({2, 3, 100, 0, FlowType::Request});
    const auto order = routing::routing_policy(RoutingPolicyId::UpDown)
                           .schedule_flows(comm);
    EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

// --- whole-flow properties on the paper benchmarks ----------------------

CoreAssignment simple_assignment(const DesignSpec& spec) {
    // One switch per layer; enough structure for multi-hop inter-switch
    // routes on every benchmark.
    CoreAssignment assign;
    assign.core_switch.resize(
        static_cast<std::size_t>(spec.cores.num_cores()));
    for (int c = 0; c < spec.cores.num_cores(); ++c)
        assign.core_switch[static_cast<std::size_t>(c)] =
            spec.cores.core(c).layer;
    for (int ly = 0; ly < spec.cores.num_layers(); ++ly)
        assign.switch_layer.push_back(ly);
    return assign;
}

TEST(RoutingPolicy, EveryPolicyRoutesBenchmarksDeadlockFree) {
    for (const auto& name : benchmark_names()) {
        const DesignSpec spec = make_benchmark(name);
        for (RoutingPolicyId id : kAllPolicies) {
            SynthesisConfig cfg;
            cfg.routing = id;
            Topology topo = build_initial_topology(spec,
                                                   simple_assignment(spec));
            compute_paths(topo, spec, cfg);
            // Whatever was routed must pass every baked-path check.
            EXPECT_TRUE(is_routing_deadlock_free(topo))
                << name << " " << routing::routing_to_string(id);
            EXPECT_TRUE(is_message_dependent_deadlock_free(topo, spec.comm))
                << name << " " << routing::routing_to_string(id);
            EXPECT_TRUE(classes_are_separated(topo, spec.comm))
                << name << " " << routing::routing_to_string(id);

            // ... and the *enlarged* adaptive route set must stay acyclic
            // too: the route-set CDG generalizes build_cdg from the baked
            // paths to every admissible path.
            const routing::RouteSets rs = routing::build_route_sets(
                topo, spec, routing::routing_policy(id));
            EXPECT_FALSE(
                has_cycle(oracle::build_route_set_cdg(topo, spec, rs)))
                << name << " " << routing::routing_to_string(id);
            EXPECT_FALSE(has_cycle(
                oracle::build_extended_route_set_cdg(topo, spec, rs)))
                << name << " " << routing::routing_to_string(id);
        }
    }
}

/// Fully synthesized best design under one policy (bounded switch sweep,
/// no floorplan: fast but realistic multi-switch topologies).
Topology best_topology(const DesignSpec& spec, RoutingPolicyId id) {
    SynthesisConfig cfg;
    cfg.run_floorplan = false;
    cfg.max_switches = 6;
    cfg.routing = id;
    const SynthesisResult res = run_synthesis(spec, cfg);
    const int best = res.best_power_index();
    EXPECT_GE(best, 0) << routing::routing_to_string(id);
    return res.points[static_cast<std::size_t>(best)].topo;
}

TEST(RoutingPolicy, RouteSetContainsBakedPathAndEjectsAtDestination) {
    const DesignSpec spec = make_benchmark("D_36_4");
    for (RoutingPolicyId id : kAllPolicies) {
        const Topology topo = best_topology(spec, id);
        ASSERT_TRUE(topo.all_flows_routed());
        // build_route_sets throws if any baked hop is missing from its
        // own route set; returning normally is the containment proof.
        const routing::RouteSets rs = routing::build_route_sets(
            topo, spec, routing::routing_policy(id));
        for (int f = 0; f < topo.num_flows(); ++f) {
            const auto& path = topo.flow_path(f);
            const int ss = topo.link(path.front()).dst.index;
            const int sd = topo.link(path.back()).src.index;
            EXPECT_EQ(rs.first_link(f), path.front());
            // The source node offers at least the baked first hop.
            EXPECT_FALSE(
                rs.options(f, ss, rs.initial_state()).empty());
            // At the destination switch the only option is ejection.
            for (int s = 0; s < rs.num_states(); ++s)
                for (const routing::RouteOption& o : rs.options(f, sd, s))
                    EXPECT_EQ(o.link, path.back());
        }
    }
}

TEST(RoutingPolicy, PoliciesProduceDifferentPathsSomewhere) {
    // The disciplines are genuinely different route sets: on at least one
    // benchmark the synthesized best topologies must differ in links or
    // flow paths.
    int differing = 0;
    for (const char* name : {"D_26_media", "D_36_4"}) {
        const DesignSpec spec = make_benchmark(name);
        const Topology t1 = best_topology(spec, RoutingPolicyId::UpDown);
        const Topology t2 = best_topology(spec, RoutingPolicyId::WestFirst);
        bool differs = t1.num_links() != t2.num_links() ||
                       t1.num_switches() != t2.num_switches();
        for (int f = 0; !differs && f < t1.num_flows(); ++f)
            differs = !std::ranges::equal(t1.flow_path(f), t2.flow_path(f));
        differing += differs ? 1 : 0;
    }
    EXPECT_GT(differing, 0);
}

TEST(RoutingPolicy, OversubscribedSpecReportsCapacityViolations) {
    // One flow heavier than a physical channel can carry: the path
    // computation routes it (marginal cost stays finite) but must flag
    // the oversubscribed links instead of silently accepting them.
    DesignSpec spec;
    for (int i = 0; i < 2; ++i) {
        Core c;
        c.name = "c" + std::to_string(i);
        c.width = 1;
        c.height = 1;
        spec.cores.add_core(c);
    }
    // 50 GB/s >> the ~1.6 GB/s a 32-bit 400 MHz channel carries.
    spec.comm.add_flow({0, 1, 50000, 0, FlowType::Request});
    CoreAssignment assign;
    assign.core_switch = {0, 1};
    assign.switch_layer = {0, 0};
    SynthesisConfig cfg;
    Topology topo = build_initial_topology(spec, assign);
    const auto res = compute_paths(topo, spec, cfg);
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(res.failed_flows.empty());
    EXPECT_FALSE(res.capacity_violations.empty());
}

}  // namespace
}  // namespace sunfloor
