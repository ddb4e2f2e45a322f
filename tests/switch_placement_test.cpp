// Tests for the switch-position solve and floorplan legalization.
#include <gtest/gtest.h>

#include "sunfloor/core/path_compute.h"
#include "sunfloor/core/switch_placement.h"
#include "sunfloor/core/synthesizer.h"
#include "sunfloor/spec/benchmarks.h"

namespace sunfloor {
namespace {

DesignSpec line_spec() {
    DesignSpec spec;
    auto add = [&](const char* n, double x) {
        Core c;
        c.name = n;
        c.width = 1;
        c.height = 1;
        c.layer = 0;
        c.position = {x, 0};
        spec.cores.add_core(c);
    };
    add("a", 0);
    add("b", 4);
    add("c", 8);
    spec.comm.add_flow({0, 1, 100, 0, FlowType::Request});
    spec.comm.add_flow({1, 2, 100, 0, FlowType::Request});
    return spec;
}

// The placement stage's position step: solve Eq. 2-5 for `topo`'s
// switches and write the positions back.
bool place_switches(Topology& topo, const DesignSpec& spec) {
    bool lp_ok = false;
    const PlacementResult r =
        solve_switch_placement(build_switch_placement_problem(topo, spec),
                               lp_ok);
    for (int s = 0; s < topo.num_switches(); ++s)
        topo.switch_at(s).position = r.positions[static_cast<std::size_t>(s)];
    return lp_ok;
}

// A routed (but not yet placed/legalized) D_26_media topology.
struct RoutedFixture {
    DesignSpec spec = make_d26_media();
    SynthesisConfig cfg;
    Topology topo{CoreSpec{}, 0};

    RoutedFixture() {
        cfg.run_floorplan = false;
        cfg.max_switches = 8;
        auto points =
            run_synthesis(spec, cfg, SynthesisPhase::Phase1).points;
        const int bp = best_power_point(points);
        EXPECT_GE(bp, 0);
        topo = points[static_cast<std::size_t>(bp)].topo;
    }
};

TEST(SwitchPlacement, LpPutsSwitchOnMedianCore) {
    const auto spec = line_spec();
    CoreAssignment assign;
    assign.core_switch = {0, 0, 0};
    assign.switch_layer = {0};
    Topology topo = build_initial_topology(spec, assign);
    SynthesisConfig cfg;
    ASSERT_TRUE(compute_paths(topo, spec, cfg).ok);
    ASSERT_TRUE(place_switches(topo, spec));
    // The L1 optimum for equal pulls from (0.5), (4.5), (8.5) is the
    // median: x = 4.5.
    EXPECT_NEAR(topo.switch_at(0).position.x, 4.5, 1e-6);
    EXPECT_NEAR(topo.switch_at(0).position.y, 0.5, 1e-6);
}

TEST(SwitchPlacement, LpReducesWeightedWireLength) {
    RoutedFixture f;
    // Scatter the switches to a deliberately bad placement first.
    for (int s = 0; s < f.topo.num_switches(); ++s)
        f.topo.switch_at(s).position = {0.0, 0.0};
    auto weighted_length = [&](const Topology& t) {
        double total = 0.0;
        for (int l = 0; l < t.num_links(); ++l)
            total += t.link(l).bw_mbps * t.link_planar_length(l);
        return total;
    };
    const double before = weighted_length(f.topo);
    ASSERT_TRUE(place_switches(f.topo, f.spec));
    EXPECT_LT(weighted_length(f.topo), before);
}

TEST(SwitchPlacement, LegalizationRemovesOverlaps) {
    RoutedFixture f;
    place_switches(f.topo, f.spec);
    Rng rng(3);
    const auto fp = legalize_floorplan(f.topo, f.spec, f.cfg, false, rng);
    EXPECT_EQ(fp.layer_area_mm2.size(), 3u);
    for (double a : fp.layer_area_mm2) EXPECT_GT(a, 0.0);
    // Die area stays in the same ballpark as the input floorplan.
    for (int ly = 0; ly < 3; ++ly) {
        const double input = f.spec.cores.layer_bounding_box(ly).area();
        EXPECT_LT(fp.layer_area_mm2[static_cast<std::size_t>(ly)],
                  input * 1.8)
            << "layer " << ly;
    }
}

TEST(SwitchPlacement, StandardInserterAlsoWorks) {
    RoutedFixture f;
    place_switches(f.topo, f.spec);
    Rng rng(4);
    const auto fp = legalize_floorplan(f.topo, f.spec, f.cfg, true, rng);
    EXPECT_TRUE(fp.used_standard_inserter);
    for (double a : fp.layer_area_mm2) EXPECT_GT(a, 0.0);
}

TEST(SwitchPlacement, TsvMacrosPlacedForVerticalLinks) {
    RoutedFixture f;
    place_switches(f.topo, f.spec);
    // Count links spanning two or more layers: each needs free-standing
    // intermediate macros.
    int multi_span = 0;
    for (int l = 0; l < f.topo.num_links(); ++l)
        if (f.topo.link_layers_crossed(l) >= 2) ++multi_span;
    Rng rng(5);
    const auto fp = legalize_floorplan(f.topo, f.spec, f.cfg, false, rng);
    EXPECT_GE(fp.tsv_macros_placed, multi_span);
}

TEST(SwitchPlacement, EmptyTopologyIsFine) {
    const auto spec = line_spec();
    Topology topo(spec.cores, spec.comm.num_flows());
    EXPECT_TRUE(place_switches(topo, spec));
}

}  // namespace
}  // namespace sunfloor
