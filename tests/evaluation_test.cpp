// Tests for the topology evaluator: power split, latency convention, TSVs.
#include <gtest/gtest.h>

#include "sunfloor/noc/evaluation.h"

namespace sunfloor {
namespace {

// c0 --- sw0(L0) --- sw1(L1) --- c1, c0 on layer 0 at (0,0), c1 on layer 1.
struct Fixture {
    DesignSpec spec;
    Topology topo{CoreSpec{}, 0};
    EvalParams params;

    Fixture() {
        Core a;
        a.name = "c0";
        a.width = 1;
        a.height = 1;
        a.layer = 0;
        a.position = {0, 0};
        Core b;
        b.name = "c1";
        b.width = 1;
        b.height = 1;
        b.layer = 1;
        b.position = {4, 0};
        spec.cores.add_core(a);
        spec.cores.add_core(b);
        spec.comm.add_flow({0, 1, 400, 0, FlowType::Request});
        topo = Topology(spec.cores, spec.comm.num_flows());
        const int s0 = topo.add_switch("s0", 0, {1.5, 0.5});
        const int s1 = topo.add_switch("s1", 1, {3.5, 0.5});
        const int l0 = topo.add_link(NodeRef::core(0), NodeRef::sw(s0));
        const int l1 = topo.add_link(NodeRef::sw(s0), NodeRef::sw(s1));
        const int l2 = topo.add_link(NodeRef::sw(s1), NodeRef::core(1));
        topo.set_flow_path(0, spec.comm.flow(0), {l0, l1, l2});
    }
};

TEST(Evaluation, PowerSplitsAreSensible) {
    Fixture f;
    const auto rep = evaluate_topology(f.topo, f.spec, f.params);
    EXPECT_TRUE(rep.all_flows_routed);
    EXPECT_GT(rep.power.switch_mw, 0.0);
    EXPECT_GT(rep.power.c2s_link_mw, 0.0);
    EXPECT_GT(rep.power.s2s_link_mw, 0.0);
    EXPECT_GT(rep.power.ni_mw, 0.0);
    EXPECT_NEAR(rep.power.total_mw(),
                rep.power.switch_mw + rep.power.link_mw() + rep.power.ni_mw,
                1e-12);
    EXPECT_NEAR(rep.power.noc_mw(),
                rep.power.switch_mw + rep.power.link_mw(), 1e-12);
}

TEST(Evaluation, LatencyConvention) {
    // Two switches, short links -> zero-load latency exactly 2 cycles.
    Fixture f;
    const auto rep = evaluate_topology(f.topo, f.spec, f.params);
    EXPECT_DOUBLE_EQ(rep.flow_latency_cycles[0], 2.0);
    EXPECT_DOUBLE_EQ(rep.avg_latency_cycles, 2.0);
    EXPECT_EQ(rep.latency_violations, 0);
}

TEST(Evaluation, SingleSwitchPathHasLatencyOne) {
    // The Section VIII-A observation: cores on different layers attached
    // to the same switch still see a one-cycle zero-load latency.
    DesignSpec spec;
    Core a;
    a.name = "a";
    a.width = 1;
    a.height = 1;
    a.layer = 0;
    Core b;
    b.name = "b";
    b.width = 1;
    b.height = 1;
    b.layer = 1;
    spec.cores.add_core(a);
    spec.cores.add_core(b);
    spec.comm.add_flow({0, 1, 100, 0, FlowType::Request});
    Topology t(spec.cores, 1);
    const int s = t.add_switch("s", 0, {0.5, 0.5});
    const int l0 = t.add_link(NodeRef::core(0), NodeRef::sw(s));
    const int l1 = t.add_link(NodeRef::sw(s), NodeRef::core(1));
    t.set_flow_path(0, spec.comm.flow(0), {l0, l1});
    EvalParams p;
    EXPECT_DOUBLE_EQ(flow_latency(t, 0, p), 1.0);
}

TEST(Evaluation, LongLinksAddPipelineStages) {
    Fixture f;
    // Stretch the switch apart so the s2s link needs extra stages.
    f.topo.switch_at(1).position = {30.0, 0.5};
    const auto rep = evaluate_topology(f.topo, f.spec, f.params);
    EXPECT_GT(rep.flow_latency_cycles[0], 2.0);
}

TEST(Evaluation, LatencyViolationCounted) {
    Fixture f;
    // Tighten the flow's constraint below the achievable 2 cycles.
    DesignSpec tight = f.spec;
    tight.comm = CommSpec{};
    tight.comm.add_flow({0, 1, 400, 1.0, FlowType::Request});
    const auto rep = evaluate_topology(f.topo, tight, f.params);
    EXPECT_EQ(rep.latency_violations, 1);
}

TEST(Evaluation, TsvAccounting) {
    Fixture f;
    const auto rep = evaluate_topology(f.topo, f.spec, f.params);
    // Two links cross the 0-1 boundary? Only the s2s link and the s2c
    // link... s1 is on layer 1, c1 on layer 1: only s0->s1 crosses.
    EXPECT_EQ(rep.max_ill_used, 1);
    EXPECT_EQ(rep.total_tsvs,
              TsvModel::tsvs_per_link(f.params.flit_width_bits));
    EXPECT_GT(rep.tsv_macro_area_mm2, 0.0);
}

TEST(Evaluation, UnusedSwitchIgnored) {
    Fixture f;
    f.topo.add_switch("orphan", 0, {0, 0});
    const auto with_orphan = evaluate_topology(f.topo, f.spec, f.params);
    Fixture g;
    const auto base = evaluate_topology(g.topo, g.spec, g.params);
    EXPECT_NEAR(with_orphan.power.switch_mw, base.power.switch_mw, 1e-12);
    EXPECT_NEAR(with_orphan.switch_area_mm2, base.switch_area_mm2, 1e-12);
}

TEST(Evaluation, WireLengthsReported) {
    Fixture f;
    const auto rep = evaluate_topology(f.topo, f.spec, f.params);
    EXPECT_EQ(rep.wire_lengths_mm.size(), 3u);  // one per link
    for (double len : rep.wire_lengths_mm) EXPECT_GE(len, 0.0);
}

TEST(Evaluation, MorePowerAtHigherFrequency) {
    Fixture f;
    EvalParams slow = f.params;
    slow.freq_hz = 200e6;
    EvalParams fast = f.params;
    fast.freq_hz = 800e6;
    const auto a = evaluate_topology(f.topo, f.spec, slow);
    const auto b = evaluate_topology(f.topo, f.spec, fast);
    EXPECT_LT(a.power.switch_mw, b.power.switch_mw);
}

}  // namespace
}  // namespace sunfloor
