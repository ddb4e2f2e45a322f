// Tests for DOT / SVG / report exports.
#include <gtest/gtest.h>

#include <sstream>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/io/dot.h"
#include "sunfloor/io/floorplan_dump.h"
#include "sunfloor/io/report.h"
#include "sunfloor/spec/benchmarks.h"

namespace sunfloor {
namespace {

SynthesisResult small_result() {
    DesignSpec spec = make_d38_tvopd();
    SynthesisConfig cfg;
    cfg.partition.num_starts = 2;
    cfg.run_floorplan = false;
    cfg.max_switches = 5;
    return run_synthesis(spec, cfg, SynthesisPhase::Phase1);
}

TEST(IoDot, TopologyDotWellFormed) {
    DesignSpec spec = make_d38_tvopd();
    const auto res = small_result();
    const int bp = res.best_power_index();
    ASSERT_GE(bp, 0);
    std::ostringstream os;
    write_topology_dot(os, res.points[bp].topo, spec);
    const std::string dot = os.str();
    EXPECT_NE(dot.find("digraph noc {"), std::string::npos);
    EXPECT_NE(dot.find("cluster_layer0"), std::string::npos);
    EXPECT_NE(dot.find("cluster_layer2"), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
    EXPECT_EQ(dot.back(), '\n');
    // Balanced braces.
    EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
              std::count(dot.begin(), dot.end(), '}'));
}

TEST(IoDot, OptionsRespected) {
    DesignSpec spec = make_d38_tvopd();
    const auto res = small_result();
    const auto& topo = res.points[res.best_power_index()].topo;
    DotOptions opts;
    opts.cluster_by_layer = false;
    opts.show_bandwidth = false;
    std::ostringstream os;
    write_topology_dot(os, topo, spec, opts);
    EXPECT_EQ(os.str().find("cluster_layer"), std::string::npos);
    EXPECT_EQ(os.str().find("label=\"4"), std::string::npos);
}

TEST(IoSvg, LayerSvgWellFormed) {
    DesignSpec spec = make_d38_tvopd();
    const auto res = small_result();
    const auto& topo = res.points[res.best_power_index()].topo;
    std::ostringstream os;
    write_layer_svg(os, topo, spec, 0);
    const std::string svg = os.str();
    EXPECT_NE(svg.find("<svg"), std::string::npos);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
    EXPECT_NE(svg.find("<rect"), std::string::npos);
}

TEST(IoReport, DesignPointsTable) {
    const auto res = small_result();
    const Table t = design_points_table(res.points);
    EXPECT_EQ(t.num_rows(), res.points.size());
    EXPECT_EQ(t.columns().front(), "phase");
}

TEST(IoReport, SynthesisReportMentionsBestPoints) {
    const auto res = small_result();
    std::ostringstream os;
    write_synthesis_report(os, res);
    EXPECT_NE(os.str().find("best power point"), std::string::npos);
    EXPECT_NE(os.str().find("pareto front"), std::string::npos);
}

TEST(IoReport, WirelengthHistogram) {
    const Table t = wirelength_histogram({0.1, 0.4, 1.2, 5.0, 99.0}, 0.5, 4);
    EXPECT_EQ(t.num_rows(), 4u);
    // First bin [0, 0.5) holds two samples; overflow clamps to last bin.
    EXPECT_EQ(std::get<long long>(t.row(0)[2]), 2);
    EXPECT_EQ(std::get<long long>(t.row(3)[2]), 2);
}

}  // namespace
}  // namespace sunfloor
