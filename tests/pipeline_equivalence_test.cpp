// Property test for incremental re-synthesis: the explorer driving a
// shared SynthesisSession is bit-identical to from-scratch run_synthesis
// at every grid point, under both evaluation backends and multiple thread
// counts — and on a frequency-only grid the sharing is visible as
// stage-cache hits.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

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

ParamGrid full_grid() {
    // Two theta values on purpose: points then carry two distinct
    // synthesis seeds, so the shared session mixes artifacts from
    // different RNG streams — the region where stale-RNG leaks between
    // points would show up as divergence from the stateless runs.
    ParamGrid grid;
    grid.set_axis(ParamAxis::frequencies_hz({350e6, 450e6}));
    grid.set_axis(ParamAxis::link_widths_bits({32, 64}));
    grid.set_axis(ParamAxis::thetas({1.0, 4.0}));
    return grid;
}

bool bitwise_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_results(const SynthesisResult& a, const SynthesisResult& b) {
    EXPECT_EQ(a.phase_used, b.phase_used);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t d = 0; d < a.points.size(); ++d) {
        const auto& da = a.points[d];
        const auto& db = b.points[d];
        EXPECT_EQ(da.valid, db.valid);
        EXPECT_EQ(da.switch_count, db.switch_count);
        EXPECT_EQ(da.phase, db.phase);
        EXPECT_TRUE(bitwise_equal(da.theta, db.theta));
        EXPECT_EQ(da.fail_reason, db.fail_reason);
        EXPECT_EQ(da.topo->num_links(), db.topo->num_links());
        EXPECT_TRUE(bitwise_equal(da.report.power.total_mw(),
                                  db.report.power.total_mw()));
        EXPECT_TRUE(bitwise_equal(da.report.avg_latency_cycles,
                                  db.report.avg_latency_cycles));
        EXPECT_TRUE(bitwise_equal(da.report.noc_area_mm2(),
                                  db.report.noc_area_mm2()));
    }
}

/// Explorer results (synthesis outcomes, sim reports, merged front) must
/// be bit-identical between two runs, whatever their thread count.
void expect_same_explore(const ExploreResult& a, const ExploreResult& b) {
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].seed, b.points[i].seed);
        EXPECT_EQ(a.points[i].synth_seed, b.points[i].synth_seed);
        expect_same_results(a.points[i].result, b.points[i].result);
        ASSERT_EQ(a.points[i].sim_reports.size(),
                  b.points[i].sim_reports.size());
        for (std::size_t d = 0; d < a.points[i].sim_reports.size(); ++d) {
            const auto& ra = a.points[i].sim_reports[d];
            const auto& rb = b.points[i].sim_reports[d];
            EXPECT_EQ(ra.cycles_run, rb.cycles_run);
            EXPECT_EQ(ra.received_packets, rb.received_packets);
            EXPECT_TRUE(bitwise_equal(ra.avg_latency_cycles,
                                      rb.avg_latency_cycles));
            EXPECT_TRUE(bitwise_equal(ra.p99_latency_cycles,
                                      rb.p99_latency_cycles));
        }
    }
    ASSERT_EQ(a.pareto.size(), b.pareto.size());
    for (std::size_t i = 0; i < a.pareto.size(); ++i) {
        EXPECT_EQ(a.pareto[i].point_index, b.pareto[i].point_index);
        EXPECT_EQ(a.pareto[i].design_index, b.pareto[i].design_index);
    }
    std::ostringstream ca, cb;
    explore_table(a).write_csv(ca);
    explore_table(b).write_csv(cb);
    EXPECT_EQ(ca.str(), cb.str());
}

TEST(PipelineEquivalence, SessionMatchesFromScratchAtEveryGridPoint) {
    const DesignSpec spec = make_benchmark("D_36_4");
    std::vector<SynthesisResult> scratch;
    for (const GridPoint& p : full_grid().enumerate()) {
        SynthesisConfig cfg = p.apply(fast_cfg());
        cfg.seed = explore_point_seed(ExploreOptions{}.base_seed,
                                      p.partition_key());
        scratch.push_back(run_synthesis(spec, cfg, p.phase));
    }
    for (int threads : {1, 4}) {
        ExploreOptions opts;
        opts.num_threads = threads;
        const ExploreResult res =
            Explorer(spec, fast_cfg(), opts).run(full_grid());
        EXPECT_GT(res.stats.valid_designs, 0);
        ASSERT_EQ(res.points.size(), scratch.size());
        for (std::size_t i = 0; i < scratch.size(); ++i)
            expect_same_results(res.points[i].result, scratch[i]);
    }
}

TEST(PipelineEquivalence, ThreadCountsAgreeAnalytic) {
    const DesignSpec spec = make_benchmark("D_36_4");
    ExploreOptions serial;
    serial.num_threads = 1;
    const ExploreResult ref =
        Explorer(spec, fast_cfg(), serial).run(full_grid());

    for (int threads : {2, 4}) {
        ExploreOptions par;
        par.num_threads = threads;
        expect_same_explore(
            ref, Explorer(spec, fast_cfg(), par).run(full_grid()));
    }
}

TEST(PipelineEquivalence, ThreadCountsAgreeSimulated) {
    const DesignSpec spec = make_benchmark("D_36_4");
    auto opts = [](int threads) {
        ExploreOptions o;
        o.num_threads = threads;
        o.backend = EvalBackend::Simulated;
        o.sim.warmup_cycles = 200;
        o.sim.measure_cycles = 1000;
        return o;
    };
    ParamGrid grid;
    grid.set_axis(ParamAxis::frequencies_hz({350e6, 450e6}));
    grid.set_axis(ParamAxis::thetas({4.0}));

    const ExploreResult ref = Explorer(spec, fast_cfg(), opts(1)).run(grid);
    EXPECT_GT(ref.stats.simulated_designs, 0);
    for (int threads : {2, 4})
        expect_same_explore(
            ref, Explorer(spec, fast_cfg(), opts(threads)).run(grid));
}

TEST(PipelineEquivalence, FrequencyOnlyGridReusesStages) {
    const DesignSpec spec = make_benchmark("D_36_4");
    ParamGrid grid;
    grid.set_axis(ParamAxis::frequencies_hz(
        {300e6, 350e6, 400e6, 450e6, 500e6, 550e6}));

    ExploreOptions serial;
    serial.num_threads = 1;
    const Explorer explorer(spec, fast_cfg(), serial);
    const ExploreResult res = explorer.run(grid);

    // All six points share the partition inputs (auto phase, theta
    // sweep), so every one after the first reuses the base partitions.
    const auto& sg = res.stats.stage;
    EXPECT_GT(sg.partition.hits, 0);
    EXPECT_GT(sg.partition.misses, 0);
    EXPECT_EQ(sg.partition.calls(), sg.partition.hits + sg.partition.misses);
    for (std::size_t i = 1; i < res.points.size(); ++i)
        EXPECT_EQ(res.points[i].synth_seed, res.points[0].synth_seed);

    // A parallel run still reuses (counters are a lower bound there) and
    // stays bit-identical.
    ExploreOptions par;
    par.num_threads = 3;
    const ExploreResult par_res =
        Explorer(spec, fast_cfg(), par).run(grid);
    expect_same_explore(res, par_res);
    EXPECT_GT(par_res.stats.stage.partition.hits, 0);
}

}  // namespace
}  // namespace sunfloor
