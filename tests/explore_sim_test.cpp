// Simulated evaluation backend of the Explorer: thread-count
// determinism of the SimReports (extending PR 1's per-point-seeding
// guarantee to the simulator), measured-latency Pareto ranking, reruns
// served from the stage caches and seed derivation.
#include <gtest/gtest.h>

#include <cstring>

#include "sunfloor/explore/explorer.h"
#include "sunfloor/explore/export.h"
#include "sunfloor/spec/benchmarks.h"

namespace sunfloor {
namespace {

SynthesisConfig fast_cfg() {
    SynthesisConfig cfg;
    cfg.run_floorplan = false;
    cfg.max_switches = 5;
    return cfg;
}

ExploreOptions sim_opts(int threads) {
    ExploreOptions opts;
    opts.num_threads = threads;
    opts.backend = EvalBackend::Simulated;
    opts.sim.warmup_cycles = 200;
    opts.sim.measure_cycles = 1500;
    opts.sim.inject.packet_length_flits = 2;
    return opts;
}

ParamGrid small_grid() {
    ParamGrid grid;
    grid.set_axis(ParamAxis::max_tsvs({15, 25}));
    grid.set_axis(ParamAxis::thetas({4.0}));
    return grid;
}

bool bitwise_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_sim_reports(const ExploreResult& a, const ExploreResult& b) {
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const auto& pa = a.points[i];
        const auto& pb = b.points[i];
        ASSERT_EQ(pa.sim_reports.size(), pb.sim_reports.size());
        for (std::size_t d = 0; d < pa.sim_reports.size(); ++d) {
            const sim::SimReport& ra = pa.sim_reports[d];
            const sim::SimReport& rb = pb.sim_reports[d];
            EXPECT_EQ(ra.injected_packets, rb.injected_packets);
            EXPECT_EQ(ra.received_packets, rb.received_packets);
            EXPECT_EQ(ra.injected_flits, rb.injected_flits);
            EXPECT_EQ(ra.received_flits, rb.received_flits);
            EXPECT_EQ(ra.cycles_run, rb.cycles_run);
            EXPECT_EQ(ra.drained, rb.drained);
            EXPECT_TRUE(bitwise_equal(ra.avg_latency_cycles,
                                      rb.avg_latency_cycles));
            EXPECT_TRUE(bitwise_equal(ra.p99_latency_cycles,
                                      rb.p99_latency_cycles));
            EXPECT_TRUE(bitwise_equal(ra.max_latency_cycles,
                                      rb.max_latency_cycles));
            EXPECT_TRUE(bitwise_equal(ra.accepted_flits_per_cycle,
                                      rb.accepted_flits_per_cycle));
            ASSERT_EQ(ra.flow_avg_latency_cycles.size(),
                      rb.flow_avg_latency_cycles.size());
            for (std::size_t f = 0; f < ra.flow_avg_latency_cycles.size();
                 ++f)
                EXPECT_TRUE(
                    bitwise_equal(ra.flow_avg_latency_cycles[f],
                                  rb.flow_avg_latency_cycles[f]));
            ASSERT_EQ(ra.link_utilization.size(),
                      rb.link_utilization.size());
            for (std::size_t l = 0; l < ra.link_utilization.size(); ++l)
                EXPECT_TRUE(bitwise_equal(ra.link_utilization[l],
                                          rb.link_utilization[l]));
        }
    }
    ASSERT_EQ(a.pareto.size(), b.pareto.size());
    for (std::size_t i = 0; i < a.pareto.size(); ++i) {
        EXPECT_EQ(a.pareto[i].point_index, b.pareto[i].point_index);
        EXPECT_EQ(a.pareto[i].design_index, b.pareto[i].design_index);
    }
}

TEST(ExploreSim, SimReportsBitIdenticalAcrossThreadCounts) {
    const DesignSpec spec = make_benchmark("D_36_4");
    const ParamGrid grid = small_grid();
    const ExploreResult ref =
        Explorer(spec, fast_cfg(), sim_opts(1)).run(grid);
    EXPECT_EQ(ref.stats.backend, EvalBackend::Simulated);
    EXPECT_GT(ref.stats.simulated_designs, 0);
    for (int threads : {2, 8}) {
        const ExploreResult got =
            Explorer(spec, fast_cfg(), sim_opts(threads)).run(grid);
        expect_same_sim_reports(ref, got);
    }
}

TEST(ExploreSim, CacheHitsStillCarrySimReports) {
    const DesignSpec spec = make_benchmark("D_36_4");
    const Explorer explorer(spec, fast_cfg(), sim_opts(2));
    const ParamGrid grid = small_grid();
    const ExploreResult first = explorer.run(grid);
    // Every stage of the rerun is a session cache hit; the simulator
    // still runs, and reproduces the first run's reports.
    const ExploreResult second = explorer.run(grid);
    EXPECT_EQ(second.stats.stage.evaluation.misses, 0);
    EXPECT_GT(second.stats.stage.evaluation.hits, 0);
    EXPECT_EQ(second.stats.simulated_designs, first.stats.simulated_designs);
    expect_same_sim_reports(first, second);
}

TEST(ExploreSim, EverySimulatedDesignIsValidAndRouted) {
    const DesignSpec spec = make_benchmark("D_36_4");
    const ExploreResult res =
        Explorer(spec, fast_cfg(), sim_opts(2)).run(small_grid());
    int simulated = 0;
    for (const auto& pr : res.points) {
        ASSERT_EQ(pr.sim_reports.size(), pr.result.points.size());
        for (std::size_t d = 0; d < pr.sim_reports.size(); ++d) {
            const auto* sr = pr.sim_report(static_cast<int>(d));
            const DesignPoint& dp = pr.result.points[d];
            if (!dp.valid) {
                EXPECT_EQ(sr, nullptr);
                continue;
            }
            ASSERT_NE(sr, nullptr);
            ++simulated;
            EXPECT_TRUE(sr->drained);
            EXPECT_GT(sr->received_packets, 0);
            // Measured latency under load can only exceed zero load.
            EXPECT_GE(sr->avg_latency_cycles,
                      dp.report.avg_latency_cycles - 1e-9);
        }
    }
    EXPECT_GT(simulated, 0);
    // Duplicated keys aside, every simulated design was a simulator run.
    EXPECT_EQ(res.stats.simulated_designs, simulated);
}

TEST(ExploreSim, MeasuredParetoUsesOnlyValidDesigns) {
    const DesignSpec spec = make_benchmark("D_36_4");
    const ExploreResult res =
        Explorer(spec, fast_cfg(), sim_opts(2)).run(small_grid());
    EXPECT_GT(res.pareto.size(), 0u);
    for (const auto& e : res.pareto) {
        EXPECT_TRUE(res.design(e).valid);
        EXPECT_NE(res.points[static_cast<std::size_t>(e.point_index)]
                      .sim_report(e.design_index),
                  nullptr);
    }
}

TEST(ExploreSim, MeasuredFrontFallsBackToAnalyticWithoutReports) {
    // global_pareto_measured on analytic results (no sim reports) must
    // reduce to the analytic front.
    const DesignSpec spec = make_benchmark("D_36_4");
    ExploreOptions opts;
    opts.num_threads = 1;
    const ExploreResult res =
        Explorer(spec, fast_cfg(), opts).run(small_grid());
    const auto measured = global_pareto_measured(res.points);
    ASSERT_EQ(measured.size(), res.pareto.size());
    for (std::size_t i = 0; i < measured.size(); ++i) {
        EXPECT_EQ(measured[i].point_index, res.pareto[i].point_index);
        EXPECT_EQ(measured[i].design_index, res.pareto[i].design_index);
    }
}

TEST(ExploreSim, TableCarriesSimLatencyColumn) {
    const DesignSpec spec = make_benchmark("D_36_4");
    const ExploreResult res =
        Explorer(spec, fast_cfg(), sim_opts(2)).run(small_grid());
    const Table t = explore_table(res);
    ASSERT_EQ(t.columns()[11], "sim_latency_cycles");
    bool any_simulated = false;
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
        const double v = std::get<double>(t.row(r)[11]);
        if (v >= 0.0) any_simulated = true;
    }
    EXPECT_TRUE(any_simulated);
}

TEST(ExploreSim, SeedDerivationMixesAllInputs) {
    const std::uint64_t a = explore_sim_seed(1, 2, 0);
    EXPECT_EQ(a, explore_sim_seed(1, 2, 0));
    EXPECT_NE(a, explore_sim_seed(2, 2, 0));
    EXPECT_NE(a, explore_sim_seed(1, 3, 0));
    EXPECT_NE(a, explore_sim_seed(1, 2, 1));
}

TEST(ExploreSim, BackendStringsRoundTrip) {
    EvalBackend b = EvalBackend::Analytic;
    ASSERT_TRUE(backend_from_string("sim", b));
    EXPECT_EQ(b, EvalBackend::Simulated);
    ASSERT_TRUE(backend_from_string("analytic", b));
    EXPECT_EQ(b, EvalBackend::Analytic);
    EXPECT_STREQ(backend_to_string(EvalBackend::Simulated), "sim");
    EXPECT_FALSE(backend_from_string("magic", b));
}

}  // namespace
}  // namespace sunfloor
