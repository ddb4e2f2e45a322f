// Exactness and minimality of the switch-position solver against the
// simplex oracle, on the placement problems synthesis produces (every
// routed design of the seven paper specs under the Section VIII setup, and
// of generated specs of all three families) and on random instances with
// the corner cases synthesis never produces: box bounds, zero weights,
// unanchored switches, self-loops and duplicate connections.
//
// Per instance: the objective equals the oracle's to 1e-9 relative; no
// coordinate exceeds the oracle's (the componentwise-minimal optimum lies
// below every optimum); every coordinate is an anchor clamped into the box
// or the box's lower edge; and a second solve is bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "oracle/placement_simplex.h"
#include "sunfloor/core/switch_placement.h"
#include "sunfloor/core/synthesizer.h"
#include "sunfloor/floorplan/annealer.h"
#include "sunfloor/spec/benchmarks.h"
#include "sunfloor/specgen/specgen.h"
#include "sunfloor/util/rng.h"
#include "sunfloor/util/thread_pool.h"

namespace sunfloor {
namespace {

bool bit_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
}

// Empty when `p` passes every check, otherwise what failed.
std::string check_instance(const PlacementProblem& p) {
    std::ostringstream err;
    const PlacementResult got = solve_placement_lp(p);
    const PlacementResult ref = oracle::solve_placement_simplex(p);
    if (!got.ok) err << "solver reported failure; ";
    if (!ref.ok) return err.str() + "oracle stopped short of optimality";

    const double scale = std::max(1.0, std::abs(ref.cost));
    if (std::abs(got.cost - ref.cost) > 1e-9 * scale)
        err << "cost " << got.cost << " vs oracle " << ref.cost << "; ";

    const bool bounded = p.bounds.w > 0.0 && p.bounds.h > 0.0;
    const double inf = std::numeric_limits<double>::infinity();
    for (const bool x_axis : {true, false}) {
        const double lo =
            bounded ? std::max(0.0, x_axis ? p.bounds.x : p.bounds.y) : 0.0;
        const double hi =
            bounded ? (x_axis ? p.bounds.right() : p.bounds.top()) : inf;
        std::vector<double> candidates{lo};
        for (const auto& c : p.fixed_conns) {
            const Point& f = p.fixed_points[static_cast<std::size_t>(c.fixed)];
            candidates.push_back(std::clamp(x_axis ? f.x : f.y, lo, hi));
        }
        for (int i = 0; i < p.num_movable; ++i) {
            const auto& pt = got.positions[static_cast<std::size_t>(i)];
            const auto& rf = ref.positions[static_cast<std::size_t>(i)];
            const double v = x_axis ? pt.x : pt.y;
            const double r = x_axis ? rf.x : rf.y;
            const char axis = x_axis ? 'x' : 'y';
            if (v > r + 1e-9)
                err << "switch " << i << ' ' << axis << '=' << v
                    << " above the oracle's " << r << "; ";
            if (std::find(candidates.begin(), candidates.end(), v) ==
                candidates.end())
                err << "switch " << i << ' ' << axis << '=' << v
                    << " is no clamped anchor or lower edge; ";
        }
    }

    const PlacementResult again = solve_placement_lp(p);
    bool same = again.positions.size() == got.positions.size() &&
                bit_equal(again.cost, got.cost);
    for (std::size_t i = 0; same && i < got.positions.size(); ++i)
        same = bit_equal(again.positions[i].x, got.positions[i].x) &&
               bit_equal(again.positions[i].y, got.positions[i].y);
    if (!same) err << "second solve differs; ";
    return err.str();
}

// Checks every instance across a thread pool; reports on this thread.
void check_all(const std::vector<PlacementProblem>& problems,
               const std::string& what) {
    std::vector<std::string> failures(problems.size());
    ThreadPool pool;
    pool.parallel_for(problems.size(), [&](std::size_t i) {
        failures[i] = check_instance(problems[i]);
    });
    int failed = 0;
    for (std::size_t i = 0; i < problems.size(); ++i) {
        if (failures[i].empty()) continue;
        if (++failed <= 10)
            ADD_FAILURE() << what << " instance " << i << ": " << failures[i];
    }
    EXPECT_EQ(failed, 0) << what << ": " << failed << " of "
                         << problems.size() << " instances failed";
}

// The placement problem of every routed design of one synthesis run.
std::vector<PlacementProblem> routed_problems(const DesignSpec& spec,
                                              const SynthesisConfig& cfg) {
    std::vector<PlacementProblem> out;
    for (const DesignPoint& dp : run_synthesis(spec, cfg).points)
        if (dp.report.all_flows_routed)
            out.push_back(build_switch_placement_problem(dp.topo, spec));
    return out;
}

std::vector<PlacementProblem> synthesized_problems(
    const std::vector<DesignSpec>& specs, const SynthesisConfig& cfg) {
    std::vector<std::vector<PlacementProblem>> per_spec(specs.size());
    ThreadPool pool;
    pool.parallel_for(specs.size(), [&](std::size_t i) {
        per_spec[i] = routed_problems(specs[i], cfg);
    });
    std::vector<PlacementProblem> all;
    for (auto& ps : per_spec)
        all.insert(all.end(), ps.begin(), ps.end());
    return all;
}

TEST(PositionSolver, PaperDesignsMatchTheOracle) {
    // Section VIII: annealed input placement, 400 MHz, max_ill 25,
    // floorplan on (the benches' prepared_benchmark and paper_cfg).
    std::vector<DesignSpec> specs;
    for (const char* name : {"D_26_media", "D_36_4", "D_36_6", "D_36_8",
                             "D_35_bot", "D_65_pipe", "D_38_tvopd"}) {
        DesignSpec spec = make_benchmark(name);
        AnnealOptions fopts;
        fopts.wirelength_weight = 5e-4;
        Rng rng(42);
        floorplan_design_layers(spec.cores, spec.comm, fopts, rng);
        specs.push_back(std::move(spec));
    }
    SynthesisConfig cfg;
    cfg.eval.freq_hz = 400e6;
    cfg.max_ill = 25;
    const auto problems = synthesized_problems(specs, cfg);
    EXPECT_GE(problems.size(), 150u);
    check_all(problems, "paper");
}

TEST(PositionSolver, GeneratedDesignsMatchTheOracle) {
    std::vector<DesignSpec> specs;
    for (const auto family : {specgen::GenFamily::Pipeline,
                              specgen::GenFamily::HubAndSpoke,
                              specgen::GenFamily::LayeredDag}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            specgen::GenParams gp;
            gp.family = family;
            gp.num_cores = 14 + 2 * static_cast<int>(seed);
            gp.bw_skew = 0.5 * static_cast<double>(seed % 3);
            specs.push_back(specgen::generate(gp, seed));
        }
    }
    SynthesisConfig cfg;
    cfg.run_floorplan = false;
    const auto problems = synthesized_problems(specs, cfg);
    EXPECT_GE(problems.size(), 300u);
    check_all(problems, "specgen");
}

// A random instance; quantized weights and coordinates make exact ties,
// continuous ones make near-ties, both of which a minimal solver must
// break downward.
PlacementProblem random_problem(Rng& rng) {
    auto below = [&](int n) {
        return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    };
    const bool quantized = rng.next_bool(0.5);
    auto draw = [&](double lo, double hi) {
        const double v = lo + rng.next_double() * (hi - lo);
        return quantized ? std::round(v * 2.0) / 2.0 : v;
    };
    auto weight = [&] {
        if (rng.next_bool(0.2)) return 0.0;
        return quantized ? (1 + below(8)) / 4.0 : rng.next_double() * 4.0;
    };

    PlacementProblem p;
    p.num_movable = 1 + below(8);
    const int nfixed = below(9);
    for (int f = 0; f < nfixed; ++f)
        p.fixed_points.push_back({draw(-4.0, 20.0), draw(-4.0, 20.0)});
    if (nfixed > 0) {
        // Switches from `anchored` up get no fixed connection.
        const int anchored = 1 + below(p.num_movable);
        const int nconn = below(2 * p.num_movable + 2);
        for (int k = 0; k < nconn; ++k)
            p.fixed_conns.push_back({below(anchored), below(nfixed), weight()});
    }
    const int nmov = below(2 * p.num_movable + 1);
    for (int k = 0; k < nmov; ++k) {
        // Self-loops and repeated pairs, either orientation, on purpose.
        const int a = below(p.num_movable);
        const int b = rng.next_bool(0.15) ? a : below(p.num_movable);
        p.movable_conns.push_back({a, b, weight()});
        if (rng.next_bool(0.15)) {
            const bool flip = rng.next_bool(0.5);
            p.movable_conns.push_back({flip ? b : a, flip ? a : b, weight()});
        }
    }
    switch (rng.next_below(3)) {
        case 0:  // unbounded beyond x,y >= 0
            break;
        case 1:  // a box inside the quadrant
            p.bounds = {draw(0.0, 10.0), draw(0.0, 10.0), draw(1.0, 10.0),
                        draw(1.0, 10.0)};
            break;
        default:  // a box straddling the axes
            p.bounds = {draw(-5.0, 0.0), draw(-5.0, 0.0), draw(6.0, 15.0),
                        draw(6.0, 15.0)};
            break;
    }
    return p;
}

TEST(PositionSolver, RandomInstancesMatchTheOracle) {
    Rng rng(20260417);
    std::vector<PlacementProblem> problems;
    for (int i = 0; i < 1200; ++i) problems.push_back(random_problem(rng));
    check_all(problems, "random");
}

TEST(PositionSolver, TiesBreakToTheLowerCandidate) {
    // Equal pulls from x = 2 and x = 6 make every x in [2, 6] optimal; the
    // canonical optimum is the lowest. Two switches tied to each other and
    // to nothing else sit at the box's lower edge.
    PlacementProblem p;
    p.num_movable = 3;
    p.fixed_points = {{2, 5}, {6, 5}};
    p.fixed_conns = {{0, 0, 1.5}, {0, 1, 1.5}};
    p.movable_conns = {{1, 2, 3.0}};
    p.bounds = {1, 1, 10, 10};
    const PlacementResult r = solve_placement_lp(p);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.positions[0].x, 2.0);
    EXPECT_EQ(r.positions[0].y, 5.0);
    EXPECT_EQ(r.positions[1].x, 1.0);
    EXPECT_EQ(r.positions[2].y, 1.0);
    EXPECT_EQ(r.cost, 6.0);
}

}  // namespace
}  // namespace sunfloor
