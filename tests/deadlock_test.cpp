// Tests for the channel-dependency-graph deadlock analysis.
#include <gtest/gtest.h>

#include "sunfloor/noc/deadlock.h"
#include "sunfloor/spec/parser.h"
#include "sunfloor/util/strings.h"

namespace sunfloor {
namespace {

// Spec with 4 cores on one layer and a ring-capable switch set.
DesignSpec ring_spec() {
    DesignSpec spec;
    for (int i = 0; i < 4; ++i) {
        Core c;
        c.name = format("c%d", i);
        c.width = 1;
        c.height = 1;
        c.layer = 0;
        spec.cores.add_core(c);
    }
    // Flows around the ring c0->c1->c2->c3->c0.
    for (int i = 0; i < 4; ++i)
        spec.comm.add_flow({i, (i + 1) % 4, 10, 0, FlowType::Request});
    return spec;
}

// Build a 4-switch ring topology; `turn` controls whether the flows are
// routed the cyclic way (deadlock) or each over its own direct hop (free).
Topology ring_topology(const DesignSpec& spec, bool cyclic) {
    Topology t(spec.cores, spec.comm.num_flows());
    for (int i = 0; i < 4; ++i)
        t.add_switch(format("s%d", i), 0, {0, 0});
    std::vector<int> c2s;
    std::vector<int> s2c;
    std::vector<int> ring;
    for (int i = 0; i < 4; ++i) {
        c2s.push_back(t.add_link(NodeRef::core(i), NodeRef::sw(i)));
        s2c.push_back(t.add_link(NodeRef::sw(i), NodeRef::core(i)));
        ring.push_back(t.add_link(NodeRef::sw(i), NodeRef::sw((i + 1) % 4)));
    }
    for (int i = 0; i < 4; ++i) {
        const int j = (i + 1) % 4;
        if (cyclic) {
            // Route around two ring hops: uses consecutive ring links,
            // closing the channel dependency cycle.
            const int k = (i + 2) % 4;
            t.set_flow_path(i, spec.comm.flow(i),
                            {c2s[i], ring[i], ring[j], s2c[k]});
        } else {
            t.set_flow_path(i, spec.comm.flow(i),
                            {c2s[i], ring[i], s2c[j]});
        }
    }
    return t;
}

TEST(Deadlock, SingleHopRingIsFree) {
    const auto spec = ring_spec();
    const auto t = ring_topology(spec, false);
    EXPECT_FALSE(has_cycle(build_cdg(t)));
    EXPECT_TRUE(is_routing_deadlock_free(t));
}

TEST(Deadlock, TwoHopRingDeadlocks) {
    // Classic 4-ring cyclic dependency: each flow holds one ring link and
    // waits for the next.
    auto spec = ring_spec();
    // Flows now go two hops: c_i -> c_{i+2}.
    DesignSpec spec2;
    spec2.cores = spec.cores;
    for (int i = 0; i < 4; ++i)
        spec2.comm.add_flow({i, (i + 2) % 4, 10, 0, FlowType::Request});
    const auto t = ring_topology(spec2, true);
    EXPECT_TRUE(has_cycle(build_cdg(t)));
    EXPECT_FALSE(is_routing_deadlock_free(t));
}

TEST(Deadlock, SeparatedClassesCoupleOnlyAtTheCore) {
    DesignSpec spec;
    for (int i = 0; i < 2; ++i) {
        Core c;
        c.name = format("c%d", i);
        c.width = 1;
        c.height = 1;
        spec.cores.add_core(c);
    }
    spec.comm.add_flow({0, 1, 10, 0, FlowType::Request});
    spec.comm.add_flow({1, 0, 10, 0, FlowType::Response});
    Topology t(spec.cores, 2);
    const int s0 = t.add_switch("s0", 0);
    const int s1 = t.add_switch("s1", 0);
    const int a = t.add_link(NodeRef::core(0), NodeRef::sw(s0));
    const int b = t.add_link(NodeRef::sw(s0), NodeRef::sw(s1));
    const int c = t.add_link(NodeRef::sw(s1), NodeRef::core(1));
    t.set_flow_path(0, spec.comm.flow(0), {a, b, c});
    const int d =
        t.add_link(NodeRef::core(1), NodeRef::sw(s1), FlowType::Response);
    const int e =
        t.add_link(NodeRef::sw(s1), NodeRef::sw(s0), FlowType::Response);
    const int f =
        t.add_link(NodeRef::sw(s0), NodeRef::core(0), FlowType::Response);
    t.set_flow_path(1, spec.comm.flow(1), {d, e, f});

    // Each path chains its own class's links: a -> b -> c, d -> e -> f.
    EXPECT_EQ(build_cdg(t).num_edges(), 4);
    EXPECT_TRUE(is_routing_deadlock_free(t));
    EXPECT_TRUE(classes_are_separated(t, spec.comm));

    // Extended CDG gains the turnaround edge c -> d (request into core 1
    // couples to the response out of core 1) but stays acyclic.
    const auto ext = build_extended_cdg(t, spec.comm);
    EXPECT_TRUE(ext.find_edge(c, d).has_value());
    EXPECT_TRUE(is_message_dependent_deadlock_free(t, spec.comm));
}

TEST(Deadlock, SharedChannelDetected) {
    DesignSpec spec;
    for (int i = 0; i < 2; ++i) {
        Core c;
        c.name = format("x%d", i);
        c.width = 1;
        c.height = 1;
        spec.cores.add_core(c);
    }
    spec.comm.add_flow({0, 1, 10, 0, FlowType::Request});
    Topology t(spec.cores, 1);
    const int s = t.add_switch("s", 0);
    // Route the request over response-class links: separation violated.
    const int a = t.add_link(NodeRef::core(0), NodeRef::sw(s),
                             FlowType::Response);
    const int b = t.add_link(NodeRef::sw(s), NodeRef::core(1),
                             FlowType::Response);
    // set_flow_path itself rejects the class mismatch.
    EXPECT_THROW(t.set_flow_path(0, spec.comm.flow(0), {a, b}),
                 std::invalid_argument);
}

TEST(Deadlock, UnroutedFlowsIgnored) {
    const auto spec = ring_spec();
    Topology t(spec.cores, spec.comm.num_flows());
    EXPECT_TRUE(is_routing_deadlock_free(t));  // no paths, no dependencies
    EXPECT_TRUE(is_message_dependent_deadlock_free(t, spec.comm));
}

// --- negative cases: every check must actually fire ---------------------

TEST(Deadlock, SeededCdgCycleIsCaughtByEveryGraph) {
    // Hand-seed the classic cyclic dependency (each flow holds one ring
    // link while waiting for the next): the plain CDG and the extended
    // CDG must both contain the cycle, and the deadlock-freedom
    // predicates must say no.
    DesignSpec spec;
    spec.cores = ring_spec().cores;
    for (int i = 0; i < 4; ++i)
        spec.comm.add_flow({i, (i + 2) % 4, 10, 0, FlowType::Request});
    const auto t = ring_topology(spec, true);
    EXPECT_TRUE(has_cycle(build_cdg(t)));
    EXPECT_TRUE(has_cycle(build_extended_cdg(t, spec.comm)));
    EXPECT_FALSE(is_routing_deadlock_free(t));
    EXPECT_FALSE(is_message_dependent_deadlock_free(t, spec.comm));
    // The cycle lives entirely in the request class; separation holds.
    EXPECT_TRUE(classes_are_separated(t, spec.comm));
}

TEST(Deadlock, MixedClassLinksCoupleRequestsAndResponses) {
    // Responses routed over request-class channels: the per-path CDG
    // stays acyclic (the two directions never chain), but class
    // separation is violated and the request->response coupling closes a
    // cycle through the shared channels — exactly the failure mode the
    // extended CDG exists to catch.
    DesignSpec spec;
    for (int i = 0; i < 2; ++i) {
        Core c;
        c.name = format("m%d", i);
        c.width = 1;
        c.height = 1;
        spec.cores.add_core(c);
    }
    spec.comm.add_flow({0, 1, 10, 0, FlowType::Request});   // f0
    spec.comm.add_flow({1, 0, 10, 0, FlowType::Response});  // f1 (misrouted)
    spec.comm.add_flow({1, 0, 10, 0, FlowType::Request});   // f2
    spec.comm.add_flow({0, 1, 10, 0, FlowType::Response});  // f3 (misrouted)
    Topology t(spec.cores, 4);
    const int s0 = t.add_switch("s0", 0);
    const int s1 = t.add_switch("s1", 0);
    // Request-class channels only — both directions.
    const int c0s0 = t.add_link(NodeRef::core(0), NodeRef::sw(s0));
    const int f01 = t.add_link(NodeRef::sw(s0), NodeRef::sw(s1));
    const int s1c1 = t.add_link(NodeRef::sw(s1), NodeRef::core(1));
    const int c1s1 = t.add_link(NodeRef::core(1), NodeRef::sw(s1));
    const int f10 = t.add_link(NodeRef::sw(s1), NodeRef::sw(s0));
    const int s0c0 = t.add_link(NodeRef::sw(s0), NodeRef::core(0));
    t.set_flow_path(0, spec.comm.flow(0), {c0s0, f01, s1c1});
    // Route the responses over the request links by lying to
    // set_flow_path about their class (the misconfiguration under test —
    // a correct flow would use disjoint response channels).
    Flow resp10 = spec.comm.flow(1);
    resp10.type = FlowType::Request;
    t.set_flow_path(1, resp10, {c1s1, f10, s0c0});
    t.set_flow_path(2, spec.comm.flow(2), {c1s1, f10, s0c0});
    Flow resp01 = spec.comm.flow(3);
    resp01.type = FlowType::Request;
    t.set_flow_path(3, resp01, {c0s0, f01, s1c1});

    // Paths alone: no cycle (the two directions never chain).
    EXPECT_TRUE(is_routing_deadlock_free(t));
    // Separation check fires on the misrouted responses.
    EXPECT_FALSE(classes_are_separated(t, spec.comm));
    // Extended CDG closes the loop: f0 couples into the responses leaving
    // core 1, which share channels with f2, which couples into the
    // responses leaving core 0, which share channels with f0.
    const Digraph ext = build_extended_cdg(t, spec.comm);
    EXPECT_TRUE(ext.find_edge(s1c1, c1s1).has_value());
    EXPECT_TRUE(ext.find_edge(s0c0, c0s0).has_value());
    EXPECT_TRUE(has_cycle(ext));
    EXPECT_FALSE(is_message_dependent_deadlock_free(t, spec.comm));
}

}  // namespace
}  // namespace sunfloor
