// Exploration engine: determinism across thread counts, repeated points,
// Pareto merge and exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "sunfloor/cas/codec.h"
#include "sunfloor/dist/coordinator.h"
#include "sunfloor/explore/explorer.h"
#include "sunfloor/explore/export.h"
#include "sunfloor/spec/benchmarks.h"

namespace sunfloor {
namespace {

/// Cheap but real synthesis setup: no floorplan legalization and a capped
/// switch-count sweep.
SynthesisConfig fast_cfg() {
    SynthesisConfig cfg;
    cfg.run_floorplan = false;
    cfg.max_switches = 5;
    return cfg;
}

ParamGrid small_grid() {
    ParamGrid grid;
    grid.set_axis(ParamAxis::frequencies_hz({350e6, 450e6}));
    grid.set_axis(ParamAxis::max_tsvs({15, 25}));
    grid.set_axis(ParamAxis::thetas({4.0}));
    return grid;
}

bool bitwise_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Bit-exact equality of the synthesis outcomes and the merged Pareto
/// front.
void expect_same_results(const ExploreResult& a, const ExploreResult& b) {
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const auto& pa = a.points[i];
        const auto& pb = b.points[i];
        EXPECT_EQ(pa.point.key(), pb.point.key());
        EXPECT_EQ(pa.seed, pb.seed);
        EXPECT_EQ(pa.result.phase_used, pb.result.phase_used);
        ASSERT_EQ(pa.result.points.size(), pb.result.points.size());
        for (std::size_t d = 0; d < pa.result.points.size(); ++d) {
            const auto& da = pa.result.points[d];
            const auto& db = pb.result.points[d];
            EXPECT_EQ(da.valid, db.valid);
            EXPECT_EQ(da.switch_count, db.switch_count);
            EXPECT_EQ(da.fail_reason, db.fail_reason);
            EXPECT_TRUE(bitwise_equal(da.report.power.total_mw(),
                                      db.report.power.total_mw()));
            EXPECT_TRUE(bitwise_equal(da.report.avg_latency_cycles,
                                      db.report.avg_latency_cycles));
            EXPECT_TRUE(bitwise_equal(da.report.noc_area_mm2(),
                                      db.report.noc_area_mm2()));
        }
    }
    ASSERT_EQ(a.pareto.size(), b.pareto.size());
    for (std::size_t i = 0; i < a.pareto.size(); ++i) {
        EXPECT_EQ(a.pareto[i].point_index, b.pareto[i].point_index);
        EXPECT_EQ(a.pareto[i].design_index, b.pareto[i].design_index);
    }
}

/// expect_same_results plus byte-identical exported artifacts (the CSV
/// carries no timing or thread-count information, so two runs of the
/// same points must serialize identically).
void expect_identical(const ExploreResult& a, const ExploreResult& b) {
    expect_same_results(a, b);
    std::ostringstream ca, cb;
    explore_table(a).write_csv(ca);
    explore_table(b).write_csv(cb);
    EXPECT_EQ(ca.str(), cb.str());
}

/// Every byte of every design (cas::encode_evaluation serializes the
/// complete DesignPoint, doubles as bit patterns).
void expect_bit_identical(const SynthesisResult& a, const SynthesisResult& b) {
    const auto bytes = [](const DesignPoint& dp) {
        return cas::encode_evaluation(pipeline::EvaluatedDesign(dp));
    };
    EXPECT_EQ(a.phase_used, b.phase_used);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t d = 0; d < a.points.size(); ++d)
        EXPECT_EQ(bytes(a.points[d]), bytes(b.points[d])) << "design " << d;
}

TEST(Explorer, ParallelRunsBitIdenticalToSerial) {
    for (const char* name : {"D_36_4", "D_35_bot"}) {
        const DesignSpec spec = make_benchmark(name);
        const ParamGrid grid = small_grid();

        ExploreOptions serial;
        serial.num_threads = 1;
        const ExploreResult ref = Explorer(spec, fast_cfg(), serial).run(grid);
        EXPECT_EQ(ref.stats.num_threads, 1);
        EXPECT_GT(ref.stats.valid_designs, 0) << name;

        for (int threads : {2, 4, 8}) {
            ExploreOptions par;
            par.num_threads = threads;
            const ExploreResult got =
                Explorer(spec, fast_cfg(), par).run(grid);
            expect_identical(ref, got);
            // Never more workers than the grid's 4 points.
            EXPECT_EQ(got.stats.num_threads, std::min(threads, 4));
        }
    }
}

TEST(Explorer, SeedChangesResultsDeterministically) {
    const DesignSpec spec = make_benchmark("D_36_4");
    ParamGrid grid;
    grid.set_axis(ParamAxis::thetas({4.0}));

    ExploreOptions a;
    a.base_seed = 1;
    ExploreOptions b;
    b.base_seed = 2;
    const ExploreResult ra1 = Explorer(spec, fast_cfg(), a).run(grid);
    const ExploreResult ra2 = Explorer(spec, fast_cfg(), a).run(grid);
    const ExploreResult rb = Explorer(spec, fast_cfg(), b).run(grid);
    expect_identical(ra1, ra2);
    EXPECT_NE(ra1.points[0].seed, rb.points[0].seed);
}

TEST(Explorer, DuplicateAxisValuesYieldIdenticalCopies) {
    // Three copies of one architectural point. Each copy runs through the
    // shared session, which serves the later ones from its stage caches.
    const DesignSpec spec = make_benchmark("D_36_4");
    constexpr int kCopies = 3;
    ParamGrid grid;
    grid.set_axis(ParamAxis::max_tsvs({25, 25, 25}));
    grid.set_axis(ParamAxis::thetas({4.0}));

    ExploreOptions serial;
    serial.num_threads = 1;
    const Explorer explorer(spec, fast_cfg(), serial);
    const ExploreResult res = explorer.run(grid);
    ASSERT_EQ(res.stats.total_points, kCopies);
    ASSERT_GT(res.stats.unique_valid_designs, 0);
    // Every copy, in every run below, carries the first copy's bytes.
    const auto expect_copies = [&](const ExploreResult& r) {
        ASSERT_EQ(r.points.size(), res.points.size());
        for (const ExplorePointResult& pr : r.points) {
            EXPECT_EQ(pr.seed, res.points[0].seed);
            expect_bit_identical(res.points[0].result, pr.result);
        }
    };
    expect_copies(res);

    // Copies must not inflate the global front with tied designs: it
    // names only the first occurrence, and is the single point's front.
    ParamGrid single;
    single.set_axis(ParamAxis::thetas({4.0}));
    const ExploreResult one = Explorer(spec, fast_cfg(), serial).run(single);
    EXPECT_EQ(res.pareto.size(), one.pareto.size());
    for (const auto& e : res.pareto) EXPECT_EQ(e.point_index, 0);
    EXPECT_EQ(res.points[0].pareto_survivors, res.stats.pareto_size);
    // Dominance stats count unique architectures, not the copies.
    EXPECT_EQ(res.stats.valid_designs,
              kCopies * res.stats.unique_valid_designs);
    EXPECT_EQ(res.stats.dominated_designs,
              res.stats.unique_valid_designs - res.stats.pareto_size);

    // Four threads race on the copies (one worker per point at most) ...
    ExploreOptions par;
    par.num_threads = 4;
    const ExploreResult threaded = Explorer(spec, fast_cfg(), par).run(grid);
    EXPECT_EQ(threaded.stats.num_threads, kCopies);
    expect_copies(threaded);
    expect_identical(res, threaded);

    // ... and two shards split them (copies 0-1 and copy 2).
    const std::vector<std::shared_ptr<dist::ShardTransport>> workers = {
        std::make_shared<dist::InprocTransport>(),
        std::make_shared<dist::InprocTransport>(),
    };
    dist::DistOptions dopts;
    dopts.shards = 2;
    const ExploreResult sharded = dist::distribute_explore(
        spec, fast_cfg(), serial, grid.enumerate(), workers, dopts);
    expect_copies(sharded);
    expect_identical(res, sharded);

    // A rerun on the same Explorer recomputes no stage at all.
    const ExploreResult rerun = explorer.run(grid);
    expect_copies(rerun);
    expect_identical(res, rerun);
    const pipeline::SessionStats& sg = rerun.stats.stage;
    EXPECT_GT(sg.partition.hits, 0);
    EXPECT_EQ(sg.partition.misses, 0);
    EXPECT_EQ(sg.routing.misses, 0);
    EXPECT_EQ(sg.placement.misses, 0);
    EXPECT_EQ(sg.position_lp.misses, 0);
    EXPECT_EQ(sg.evaluation.misses, 0);
}

TEST(Explorer, ThetaPinnedBeyondTwoToThe53RunsOneSweepPass) {
    // A pinned theta steps by 1, which a theta >= 2^53 absorbs: the
    // sweep must still end after its one pass, exactly as it does at
    // 1e15 — one SPG cut per switch count the PG sweep left unmet.
    const DesignSpec spec = make_benchmark("D_36_4");
    SynthesisConfig cfg;
    cfg.run_floorplan = false;
    ExploreOptions serial;
    serial.num_threads = 1;
    for (double theta : {1e15, 1e16}) {
        GridPoint p;
        p.max_tsvs = 1;
        p.phase = SynthesisPhase::Phase1;
        p.theta = theta;
        const ExploreResult r =
            Explorer(spec, cfg, serial).run(std::vector<GridPoint>{p});
        const auto& points = r.points[0].result.points;
        ASSERT_EQ(points.size(), 36u) << theta;
        long long unmet = 0;
        for (const auto& dp : points)
            if (!dp.valid || dp.theta > 0.0) ++unmet;
        EXPECT_EQ(unmet, 36) << theta;
        EXPECT_EQ(r.stats.stage.partition.misses, 36 + unmet) << theta;
    }
}

TEST(Explorer, StatsAndDominanceAreConsistent) {
    const DesignSpec spec = make_benchmark("D_36_4");
    const Explorer explorer(spec, fast_cfg());
    const ExploreResult res = explorer.run(small_grid());

    const auto& st = res.stats;
    EXPECT_EQ(st.total_points, 4);
    EXPECT_GE(st.total_designs, st.valid_designs);
    EXPECT_EQ(st.unique_valid_designs, st.valid_designs);  // no duplicates
    EXPECT_EQ(st.pareto_size, static_cast<int>(res.pareto.size()));
    EXPECT_EQ(st.dominated_designs, st.valid_designs - st.pareto_size);
    EXPECT_GT(st.pareto_size, 0);

    int survivors = 0;
    for (const auto& pr : res.points) survivors += pr.pareto_survivors;
    EXPECT_EQ(survivors, st.pareto_size);
    for (const auto& e : res.pareto) EXPECT_TRUE(res.design(e).valid);

    const ParetoEntry bp = res.best_power();
    ASSERT_GE(bp.point_index, 0);
    for (const auto& e : res.pareto)
        EXPECT_LE(res.design(bp).report.power.total_mw(),
                  res.design(e).report.power.total_mw());
}

TEST(Explorer, GlobalParetoDominatesAcrossPoints) {
    // A point with a generous TSV budget can dominate a tight-budget
    // point's designs; the global front must filter across points, so it
    // is no larger than the sum of the per-point fronts.
    const DesignSpec spec = make_benchmark("D_36_4");
    const Explorer explorer(spec, fast_cfg());
    const ExploreResult res = explorer.run(small_grid());
    int per_point_front = 0;
    for (const auto& pr : res.points)
        per_point_front +=
            static_cast<int>(pr.result.pareto_indices().size());
    EXPECT_LE(static_cast<int>(res.pareto.size()), per_point_front);
}

TEST(ExploreExport, TableHasOneRowPerDesign) {
    const DesignSpec spec = make_benchmark("D_36_4");
    const Explorer explorer(spec, fast_cfg());
    const ExploreResult res = explorer.run(small_grid());

    const Table t = explore_table(res);
    EXPECT_EQ(t.num_rows(), static_cast<std::size_t>(res.stats.total_designs));
    EXPECT_EQ(t.num_cols(), 16u);
    std::ostringstream os;
    t.write_csv(os);
    EXPECT_NE(os.str().find("freq_mhz"), std::string::npos);
}

TEST(ExploreExport, JsonIsWellFormedEnoughToGrep) {
    const DesignSpec spec = make_benchmark("D_36_4");
    const Explorer explorer(spec, fast_cfg());
    const ExploreResult res = explorer.run(small_grid());

    std::ostringstream os;
    write_explore_json(os, res, spec.name);
    const std::string json = os.str();
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"design\": \"D_36_4\""), std::string::npos);
    EXPECT_NE(json.find("\"total_points\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"pareto\""), std::string::npos);
    // Balanced braces and brackets.
    int braces = 0;
    int brackets = 0;
    for (char c : json) {
        braces += c == '{' ? 1 : c == '}' ? -1 : 0;
        brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

TEST(ExploreExport, JsonQuoteEscapes) {
    EXPECT_EQ(json_quote("plain"), "\"plain\"");
    EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(json_quote("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(json_quote("a\nb"), "\"a\\nb\"");
}

TEST(ExploreSeed, MixesBaseAndKey) {
    const std::uint64_t s1 = explore_point_seed(1, "k");
    const std::uint64_t s2 = explore_point_seed(2, "k");
    const std::uint64_t s3 = explore_point_seed(1, "k2");
    EXPECT_NE(s1, s2);
    EXPECT_NE(s1, s3);
    EXPECT_EQ(s1, explore_point_seed(1, "k"));
}

}  // namespace
}  // namespace sunfloor
