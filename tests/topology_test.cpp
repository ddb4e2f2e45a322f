// Tests for the NoC topology data model.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sunfloor/cas/codec.h"
#include "sunfloor/noc/topology.h"
#include "sunfloor/pipeline/session.h"
#include "sunfloor/spec/benchmarks.h"

namespace sunfloor {
namespace {

// Small 2-layer spec: cores c0(L0), c1(L0), c2(L1).
DesignSpec small_spec() {
    DesignSpec spec;
    auto add = [&](const char* n, int layer, double x) {
        Core c;
        c.name = n;
        c.width = 1;
        c.height = 1;
        c.layer = layer;
        c.position = {x, 0};
        spec.cores.add_core(c);
    };
    add("c0", 0, 0.0);
    add("c1", 0, 2.0);
    add("c2", 1, 1.0);
    spec.comm.add_flow({0, 1, 100, 10, FlowType::Request});
    spec.comm.add_flow({0, 2, 200, 10, FlowType::Request});
    spec.comm.add_flow({2, 0, 200, 10, FlowType::Response});
    return spec;
}

TEST(Topology, SwitchAndLinkBookkeeping) {
    const auto spec = small_spec();
    Topology t(spec.cores, spec.comm.num_flows());
    EXPECT_EQ(t.num_cores(), 3);
    const int s0 = t.add_switch("sw0", 0, {1, 1});
    const int s1 = t.add_switch("sw1", 1, {1, 1});
    EXPECT_EQ(t.num_switches(), 2);
    const int l0 = t.add_link(NodeRef::core(0), NodeRef::sw(s0));
    EXPECT_EQ(t.add_link(NodeRef::core(0), NodeRef::sw(s0)), l0);  // dedup
    const int l0r = t.add_link(NodeRef::core(0), NodeRef::sw(s0),
                               FlowType::Response);
    EXPECT_NE(l0r, l0);  // classes are distinct physical channels
    const int lp = t.add_parallel_link(NodeRef::core(0), NodeRef::sw(s0),
                                       FlowType::Request);
    EXPECT_NE(lp, l0);  // explicit parallel channel
    t.add_link(NodeRef::sw(s0), NodeRef::sw(s1));
    EXPECT_EQ(t.switch_in_degree(s0), 3);
    EXPECT_EQ(t.switch_out_degree(s0), 1);
    EXPECT_EQ(t.switch_in_degree(s1), 1);
}

TEST(Topology, RejectsBadLinks) {
    const auto spec = small_spec();
    Topology t(spec.cores, 0);
    t.add_switch("s", 0);
    EXPECT_THROW(t.add_link(NodeRef::core(0), NodeRef::core(1)),
                 std::invalid_argument);
    EXPECT_THROW(t.add_link(NodeRef::core(9), NodeRef::sw(0)),
                 std::out_of_range);
    EXPECT_THROW(t.add_link(NodeRef::sw(0), NodeRef::sw(0)),
                 std::invalid_argument);
}

TEST(Topology, FlowPathAccumulatesBandwidth) {
    const auto spec = small_spec();
    Topology t(spec.cores, spec.comm.num_flows());
    const int s = t.add_switch("s", 0, {1, 0});
    const int a = t.add_link(NodeRef::core(0), NodeRef::sw(s));
    const int b = t.add_link(NodeRef::sw(s), NodeRef::core(1));
    t.set_flow_path(0, spec.comm.flow(0), {a, b});
    EXPECT_TRUE(t.has_path(0));
    EXPECT_DOUBLE_EQ(t.link(a).bw_mbps, 100.0);
    EXPECT_DOUBLE_EQ(t.link(b).bw_mbps, 100.0);
    EXPECT_FALSE(t.all_flows_routed());
    EXPECT_THROW(t.set_flow_path(0, spec.comm.flow(0), {a, b}),
                 std::invalid_argument);  // already routed
}

TEST(Topology, PathValidation) {
    const auto spec = small_spec();
    Topology t(spec.cores, spec.comm.num_flows());
    const int s0 = t.add_switch("s0", 0);
    const int s1 = t.add_switch("s1", 1);
    const int a = t.add_link(NodeRef::core(0), NodeRef::sw(s0));
    const int b = t.add_link(NodeRef::sw(s1), NodeRef::core(1));
    // Not contiguous: s0 -> s1 link missing.
    EXPECT_THROW(t.set_flow_path(0, spec.comm.flow(0), {a, b}),
                 std::invalid_argument);
    // Wrong class: flow 2 is a response.
    const int c = t.add_link(NodeRef::sw(s0), NodeRef::sw(s1));
    const int d = t.add_link(NodeRef::sw(s1), NodeRef::core(0));
    EXPECT_THROW(t.set_flow_path(2, spec.comm.flow(2), {a, c, d}),
                 std::invalid_argument);
    EXPECT_THROW(t.set_flow_path(0, spec.comm.flow(0), {}),
                 std::invalid_argument);
}

TEST(Topology, GeometryAndLayers) {
    const auto spec = small_spec();
    Topology t(spec.cores, 0);
    const int s0 = t.add_switch("s0", 0, {0.5, 0.5});
    const int s1 = t.add_switch("s1", 1, {2.5, 0.5});
    const int l = t.add_link(NodeRef::sw(s0), NodeRef::sw(s1));
    EXPECT_DOUBLE_EQ(t.link_planar_length(l), 2.0);
    EXPECT_EQ(t.link_layers_crossed(l), 1);
    EXPECT_EQ(t.node_layer(NodeRef::core(2)), 1);
    // Core centers snapshot from the spec.
    EXPECT_EQ(t.node_position(NodeRef::core(1)), (Point{2.5, 0.5}));
    t.set_core_geometry(1, {9, 9}, 0);
    EXPECT_EQ(t.node_position(NodeRef::core(1)), (Point{9, 9}));
}

TEST(Topology, InterLayerLinkCounting) {
    const auto spec = small_spec();
    Topology t(spec.cores, 0);
    const int s0 = t.add_switch("s0", 0);
    const int s2 = t.add_switch("s2", 2);
    t.add_link(NodeRef::sw(s0), NodeRef::sw(s2));      // spans 0-1 and 1-2
    t.add_link(NodeRef::core(0), NodeRef::sw(s0));     // intra-layer
    t.add_link(NodeRef::core(2), NodeRef::sw(s0));     // crosses 0-1
    EXPECT_EQ(t.inter_layer_links(0, 1), 2);
    EXPECT_EQ(t.inter_layer_links(1, 2), 1);
    EXPECT_EQ(t.total_inter_layer_links(), 3);
    EXPECT_EQ(t.max_ill_used(3), 2);
}

TEST(Topology, SwitchThroughBandwidth) {
    const auto spec = small_spec();
    Topology t(spec.cores, spec.comm.num_flows());
    const int s = t.add_switch("s", 0, {1, 0});
    const int a = t.add_link(NodeRef::core(0), NodeRef::sw(s));
    const int b = t.add_link(NodeRef::sw(s), NodeRef::core(1));
    const int c = t.add_link(NodeRef::sw(s), NodeRef::core(2));
    t.set_flow_path(0, spec.comm.flow(0), {a, b});
    t.set_flow_path(1, spec.comm.flow(1), {a, c});
    // Both flows enter via link a: through bandwidth = 300.
    EXPECT_DOUBLE_EQ(t.switch_through_bw(s), 300.0);
}

/// small_spec()'s topology with two switches and a path for every flow
/// listed in `order`, set in that order.
Topology routed_in_order(const DesignSpec& spec,
                         const std::vector<int>& order) {
    Topology t(spec.cores, spec.comm.num_flows());
    const int s0 = t.add_switch("s0", 0, {1, 0});
    const int s1 = t.add_switch("s1", 1, {1, 0});
    const FlowType req = FlowType::Request;
    const FlowType rsp = FlowType::Response;
    const int c0s0 = t.add_link(NodeRef::core(0), NodeRef::sw(s0), req);
    const int s0c1 = t.add_link(NodeRef::sw(s0), NodeRef::core(1), req);
    const int s0s1 = t.add_link(NodeRef::sw(s0), NodeRef::sw(s1), req);
    const int s1c2 = t.add_link(NodeRef::sw(s1), NodeRef::core(2), req);
    const int c2s1 = t.add_link(NodeRef::core(2), NodeRef::sw(s1), rsp);
    const int s1s0 = t.add_link(NodeRef::sw(s1), NodeRef::sw(s0), rsp);
    const int s0c0 = t.add_link(NodeRef::sw(s0), NodeRef::core(0), rsp);
    const std::vector<std::vector<int>> paths = {
        {c0s0, s0c1}, {c0s0, s0s1, s1c2}, {c2s1, s1s0, s0c0}};
    for (const int f : order)
        t.set_flow_path(f, spec.comm.flow(f),
                        paths[static_cast<std::size_t>(f)]);
    return t;
}

TEST(Topology, PathsReadByFlowIdWhateverOrderTheyWereSetIn) {
    // Flow paths share one array in the order they were set: path
    // computation sets them out of flow order, the CAS decoder in flow
    // order. Content identity, the hash and the codec (the topology's
    // bytes in a store address and in an artifact) read them by flow id,
    // so the order never shows.
    const auto spec = small_spec();
    const Topology in_order = routed_in_order(spec, {0, 1, 2});
    const Topology shuffled = routed_in_order(spec, {2, 0, 1});
    EXPECT_TRUE(in_order.same_content(shuffled));
    EXPECT_TRUE(shuffled.same_content(in_order));
    EXPECT_EQ(in_order.content_hash(), shuffled.content_hash());
    EXPECT_EQ(cas::encode_routing(pipeline::RoutingArtifact(in_order)),
              cas::encode_routing(pipeline::RoutingArtifact(shuffled)));
    for (int f = 0; f < spec.comm.num_flows(); ++f)
        EXPECT_TRUE(
            std::ranges::equal(in_order.flow_path(f), shuffled.flow_path(f)))
            << "flow " << f;
    EXPECT_EQ(shuffled.flow_path(1).size(), 3u);
    EXPECT_EQ(shuffled.flow_path(1).back(), 3);

    // A flow left unrouted reads as an empty path, and is content.
    const Topology partial = routed_in_order(spec, {2, 0});
    EXPECT_FALSE(partial.has_path(1));
    EXPECT_TRUE(partial.flow_path(1).empty());
    EXPECT_FALSE(partial.all_flows_routed());
    EXPECT_FALSE(partial.same_content(in_order));
    EXPECT_NE(partial.content_hash(), in_order.content_hash());

    // Setting a path twice still throws.
    Topology twice = routed_in_order(spec, {1, 0, 2});
    EXPECT_THROW(twice.set_flow_path(0, spec.comm.flow(0), {0, 1}),
                 std::invalid_argument);
    EXPECT_TRUE(twice.same_content(in_order));
}

TEST(Topology, RejectedPathLeavesNoTrace) {
    // set_flow_path appends only once every check passed: a rejected
    // path changes no bandwidth and no path, and the flow can still be
    // routed afterwards.
    const auto spec = small_spec();
    Topology t = routed_in_order(spec, {2, 0});
    const Topology before = t;
    const Flow& flow = spec.comm.flow(1);
    EXPECT_THROW(t.set_flow_path(1, flow, {0, 2}),  // ends at a switch
                 std::invalid_argument);
    EXPECT_THROW(t.set_flow_path(1, flow, {0, 3}),  // not contiguous
                 std::invalid_argument);
    EXPECT_THROW(t.set_flow_path(1, flow, {0, 2, 99}),  // no link 99
                 std::out_of_range);
    EXPECT_THROW(t.set_flow_path(9, flow, {0, 2, 3}), std::out_of_range);
    EXPECT_TRUE(t.same_content(before));
    EXPECT_TRUE(t.flow_path(1).empty());
    t.set_flow_path(1, flow, {0, 2, 3});
    EXPECT_TRUE(t.same_content(routed_in_order(spec, {0, 1, 2})));
}

TEST(Topology, SharedTopologyIsOneObject) {
    // Copies of a SharedTopology point at one topology; it converts to
    // const Topology& wherever one is taken.
    const auto spec = small_spec();
    const SharedTopology a(routed_in_order(spec, {0, 1, 2}));
    const SharedTopology b = a;
    EXPECT_EQ(&*a, &*b);
    EXPECT_EQ(a.operator->(), &*b);
    const Topology& ref = b;
    EXPECT_EQ(&ref, &*a);
    EXPECT_TRUE(a->all_flows_routed());
    // Changing a design means copying its topology out first.
    Topology copy = *a;
    copy.switch_at(0).position = {5, 5};
    EXPECT_FALSE(copy.same_content(*a));
    EXPECT_EQ(a->switch_at(0).position, (Point{1, 0}));
}

}  // namespace
}  // namespace sunfloor
