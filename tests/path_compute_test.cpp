// Tests for the path computation (Section VI, Algorithm 3).
#include <gtest/gtest.h>

#include "sunfloor/core/path_compute.h"
#include "sunfloor/noc/deadlock.h"
#include "sunfloor/spec/benchmarks.h"

namespace sunfloor {
namespace {

// 2 layers x 2 cores, one switch per layer pair of cores.
DesignSpec two_layer_spec() {
    DesignSpec spec;
    auto add = [&](const char* n, int layer, double x, double y) {
        Core c;
        c.name = n;
        c.width = 1;
        c.height = 1;
        c.layer = layer;
        c.position = {x, y};
        spec.cores.add_core(c);
    };
    add("a0", 0, 0, 0);
    add("a1", 0, 2, 0);
    add("b0", 1, 0, 0);
    add("b1", 1, 2, 0);
    spec.comm.add_flow({0, 1, 100, 0, FlowType::Request});  // intra L0
    spec.comm.add_flow({0, 2, 200, 0, FlowType::Request});  // L0 -> L1
    spec.comm.add_flow({2, 0, 200, 0, FlowType::Response});
    spec.comm.add_flow({3, 1, 150, 0, FlowType::Request});  // L1 -> L0
    return spec;
}

CoreAssignment per_layer_assignment() {
    CoreAssignment a;
    a.core_switch = {0, 0, 1, 1};
    a.switch_layer = {0, 1};
    return a;
}

TEST(PathCompute, RoutesAllFlows) {
    const auto spec = two_layer_spec();
    SynthesisConfig cfg;
    Topology topo = build_initial_topology(spec, per_layer_assignment());
    const auto res = compute_paths(topo, spec, cfg);
    EXPECT_TRUE(res.ok) << res.failed_flows.size();
    EXPECT_TRUE(topo.all_flows_routed());
    EXPECT_TRUE(is_routing_deadlock_free(topo));
    EXPECT_TRUE(is_message_dependent_deadlock_free(topo, spec.comm));
    EXPECT_TRUE(classes_are_separated(topo, spec.comm));
}

TEST(PathCompute, IntraSwitchFlowIsTwoLinks) {
    const auto spec = two_layer_spec();
    SynthesisConfig cfg;
    Topology topo = build_initial_topology(spec, per_layer_assignment());
    compute_paths(topo, spec, cfg);
    // Flow 0 (a0->a1) stays on switch 0: path = c2s + s2c.
    EXPECT_EQ(topo.flow_path(0).size(), 2u);
}

TEST(PathCompute, MaxIllZeroForbidsVerticalLinks) {
    const auto spec = two_layer_spec();
    SynthesisConfig cfg;
    cfg.max_ill = 0;
    Topology topo = build_initial_topology(spec, per_layer_assignment());
    const auto res = compute_paths(topo, spec, cfg);
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.failed_flows.empty());
}

TEST(PathCompute, AdjacentOnlyRestrictsSpans) {
    // 3-layer chain with a flow from layer 0 to layer 2: with multilayer
    // links forbidden, the path must hop through the middle layer switch.
    DesignSpec spec;
    auto add = [&](const char* n, int layer) {
        Core c;
        c.name = n;
        c.width = 1;
        c.height = 1;
        c.layer = layer;
        spec.cores.add_core(c);
    };
    add("x0", 0);
    add("x1", 1);
    add("x2", 2);
    spec.comm.add_flow({0, 2, 100, 0, FlowType::Request});
    CoreAssignment assign;
    assign.core_switch = {0, 1, 2};
    assign.switch_layer = {0, 1, 2};

    SynthesisConfig cfg;
    cfg.allow_multilayer_links = false;
    Topology topo = build_initial_topology(spec, assign);
    const auto res = compute_paths(topo, spec, cfg);
    ASSERT_TRUE(res.ok);
    // Path: c2s, s0->s1, s1->s2, s2c -> latency 3 switches.
    EXPECT_EQ(topo.flow_path(0).size(), 4u);
    for (int l = 0; l < topo.num_links(); ++l)
        EXPECT_LE(topo.link_layers_crossed(l), 1);

    // With multilayer links allowed the direct 2-span link wins.
    SynthesisConfig cfg2;
    cfg2.allow_multilayer_links = true;
    Topology topo2 = build_initial_topology(spec, assign);
    ASSERT_TRUE(compute_paths(topo2, spec, cfg2).ok);
    EXPECT_EQ(topo2.flow_path(0).size(), 3u);
}

TEST(PathCompute, CapacitySplitsTrafficOverParallelLinks) {
    // Two heavy flows between the same switch pair exceed one channel:
    // the path computation must open a parallel link.
    DesignSpec spec;
    auto add = [&](const char* n, int layer) {
        Core c;
        c.name = n;
        c.width = 1;
        c.height = 1;
        c.layer = layer;
        spec.cores.add_core(c);
    };
    add("p0", 0);
    add("p1", 0);
    add("m0", 0);
    add("m1", 0);
    // 2 x 1000 MB/s > 1600 MB/s channel capacity.
    spec.comm.add_flow({0, 2, 1000, 0, FlowType::Request});
    spec.comm.add_flow({1, 3, 1000, 0, FlowType::Request});
    CoreAssignment assign;
    assign.core_switch = {0, 0, 1, 1};
    assign.switch_layer = {0, 0};
    SynthesisConfig cfg;
    Topology topo = build_initial_topology(spec, assign);
    const auto res = compute_paths(topo, spec, cfg);
    ASSERT_TRUE(res.ok);
    int s2s = 0;
    for (int l = 0; l < topo.num_links(); ++l) {
        const auto& lk = topo.link(l);
        if (lk.src.is_switch() && lk.dst.is_switch()) {
            ++s2s;
            EXPECT_LE(lk.bw_mbps, 1600.0 + 1e-9);
        }
    }
    EXPECT_EQ(s2s, 2);  // parallel request channels
}

TEST(PathCompute, UpDownDisciplineKeepsCdgAcyclicOnBenchmarks) {
    for (const char* name : {"D_26_media", "D_38_tvopd"}) {
        const auto spec = make_benchmark(name);
        SynthesisConfig cfg;
        // Simple assignment: one switch per layer.
        const int layers = spec.cores.num_layers();
        CoreAssignment assign;
        assign.core_switch.resize(spec.cores.num_cores());
        for (int c = 0; c < spec.cores.num_cores(); ++c)
            assign.core_switch[c] = spec.cores.core(c).layer;
        for (int ly = 0; ly < layers; ++ly) assign.switch_layer.push_back(ly);
        Topology topo = build_initial_topology(spec, assign);
        const auto res = compute_paths(topo, spec, cfg);
        // Whatever was routed must be deadlock free.
        EXPECT_TRUE(is_routing_deadlock_free(topo)) << name;
        EXPECT_TRUE(is_message_dependent_deadlock_free(topo, spec.comm))
            << name;
        (void)res;
    }
}

TEST(PathCompute, IndirectSwitchesHelpWhenPortsRunOut) {
    // A hub core talking to many leaves with a tiny max switch size is the
    // scenario indirect switches exist for. We force it by running at a
    // frequency where max_switch_size is small.
    DesignSpec spec;
    auto add = [&](const std::string& n, int layer) {
        Core c;
        c.name = n;
        c.width = 1;
        c.height = 1;
        c.layer = layer;
        spec.cores.add_core(c);
    };
    const int kLeaves = 8;
    add("hub", 0);
    for (int i = 0; i < kLeaves; ++i) add("leaf" + std::to_string(i), 0);
    for (int i = 0; i < kLeaves; ++i)
        spec.comm.add_flow({0, 1 + i, 50, 0, FlowType::Request});
    // One switch per core: the hub's switch needs kLeaves out-links.
    CoreAssignment assign;
    for (int c = 0; c < spec.cores.num_cores(); ++c) {
        assign.core_switch.push_back(c);
        assign.switch_layer.push_back(0);
    }
    SynthesisConfig cfg;
    cfg.eval.freq_hz = 900e6;  // max switch size ~4 at this speed
    Topology topo = build_initial_topology(spec, assign);
    const auto res = compute_paths(topo, spec, cfg);
    // Either the router chains through leaf switches within the size
    // budget, or it inserts indirect switches; both must end with every
    // flow routed and every switch legal.
    EXPECT_TRUE(res.ok);
    EXPECT_GE(res.indirect_switches_added, 0);
    const int max_sw = NocLibrary::max_switch_size(cfg.eval.freq_hz);
    for (int s = 0; s < topo.num_switches(); ++s) {
        EXPECT_LE(topo.switch_in_degree(s), max_sw);
        EXPECT_LE(topo.switch_out_degree(s), max_sw);
    }
}

}  // namespace
}  // namespace sunfloor
