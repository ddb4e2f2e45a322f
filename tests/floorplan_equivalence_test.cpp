// The floorplanning kernels against the transcriptions of
// tests/oracle/floorplan_reference.h: for every case both sides start from
// the same inputs and generator state, and every coordinate, size, cost
// and move counter must be equal bit for bit, the RNG state afterwards
// too.
//
// Cases cover what the synthesis flow floorplans and the corners of each
// kernel:
//   * pack: random sequence pairs of 0 to 100 blocks with real, integer
//     (tied) and all-equal dims, through one reused Packing and PackBuffers;
//   * the annealer: every layer of the seven paper specs as
//     floorplan_design_layers anneals them (seed 42, every pass), the 2-D
//     flattenings of D_26_media and D_65_pipe, random small instances
//     with nets, weighted and unweighted targets and explicit schedules,
//     and the constrained mode through the standard inserter;
//   * the NoC inserter: the per-layer inputs legalize_floorplan builds for
//     the routed designs of the seven paper specs, ideals near the origin
//     (clamped and skipped candidates), abutting rects (the strict-overlap
//     boundary), an empty fixed set and random scenes that force
//     displacement.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "oracle/floorplan_reference.h"
#include "sunfloor/core/switch_placement.h"
#include "sunfloor/floorplan/standard_inserter.h"
#include "sunfloor/pipeline/session.h"
#include "sunfloor/spec/benchmarks.h"
#include "sunfloor/util/thread_pool.h"

namespace sunfloor {
namespace {

using Check = std::function<std::string()>;

// Runs every check across a thread pool; each returns "" when the two
// sides agree. Reports on this thread.
void check_all(const std::vector<Check>& checks) {
    std::vector<std::string> diffs(checks.size());
    ThreadPool pool;
    pool.parallel_for(checks.size(),
                      [&](std::size_t i) { diffs[i] = checks[i](); });
    int mismatched = 0;
    for (const std::string& diff : diffs)
        if (!diff.empty() && ++mismatched <= 10) ADD_FAILURE() << diff;
    EXPECT_EQ(mismatched, 0) << mismatched << " of " << checks.size()
                             << " cases differ from the reference";
}

bool same_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void diff_double(std::ostringstream& d, const char* what, double got,
                 double ref) {
    if (!same_bits(got, ref)) d << what << " " << got << " vs " << ref << "; ";
}

void diff_rects(std::ostringstream& d, const char* what,
                const std::vector<Rect>& got, const std::vector<Rect>& ref) {
    if (got.size() != ref.size()) {
        d << what << " count " << got.size() << " vs " << ref.size() << "; ";
        return;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
        const Rect& g = got[i];
        const Rect& r = ref[i];
        if (!same_bits(g.x, r.x) || !same_bits(g.y, r.y) ||
            !same_bits(g.w, r.w) || !same_bits(g.h, r.h)) {
            d << what << " " << i << " differs; ";
            return;
        }
    }
}

void diff_packing(std::ostringstream& d, const Packing& got,
                  const Packing& ref) {
    if (got.positions.size() != ref.positions.size()) {
        d << "block count " << got.positions.size() << " vs "
          << ref.positions.size() << "; ";
        return;
    }
    for (std::size_t i = 0; i < got.positions.size(); ++i) {
        if (!same_bits(got.positions[i].x, ref.positions[i].x) ||
            !same_bits(got.positions[i].y, ref.positions[i].y)) {
            d << "position of block " << i << " differs; ";
            break;
        }
    }
    diff_double(d, "width", got.width, ref.width);
    diff_double(d, "height", got.height, ref.height);
}

void diff_anneal(std::ostringstream& d, const AnnealResult& got,
                 const AnnealResult& ref) {
    diff_packing(d, got.packing, ref.packing);
    diff_double(d, "cost", got.cost, ref.cost);
    if (got.accepted_moves != ref.accepted_moves)
        d << "accepted " << got.accepted_moves << " vs " << ref.accepted_moves
          << "; ";
    if (got.total_moves != ref.total_moves)
        d << "moves " << got.total_moves << " vs " << ref.total_moves << "; ";
}

void diff_insertion(std::ostringstream& d, const InsertionResult& got,
                    const InsertionResult& ref) {
    diff_rects(d, "fixed rect", got.fixed_rects, ref.fixed_rects);
    diff_rects(d, "inserted rect", got.inserted_rects, ref.inserted_rects);
    diff_double(d, "die width", got.die_width, ref.die_width);
    diff_double(d, "die height", got.die_height, ref.die_height);
    diff_double(d, "displacement", got.total_displacement,
                ref.total_displacement);
    diff_double(d, "deviation", got.total_deviation, ref.total_deviation);
}

std::string labelled(const std::string& label, const std::ostringstream& d) {
    return d.str().empty() ? std::string() : label + ": " + d.str();
}

// --------------------------------------------------------------- annealer

struct AnnealCase {
    std::vector<BlockDim> dims;
    std::vector<FloorplanNet> nets;
    AnnealOptions opts;
    std::vector<Point> targets;         // empty: none passed
    std::vector<double> target_weights;  // empty: none passed
    bool has_initial = false;
    SequencePair initial{0};
    std::vector<char> movable;  // empty: none passed
    RngState rng;
};

std::string check_anneal(const AnnealCase& c, const std::string& label) {
    const auto* targets = c.targets.empty() ? nullptr : &c.targets;
    const auto* weights =
        c.target_weights.empty() ? nullptr : &c.target_weights;
    const auto* initial = c.has_initial ? &c.initial : nullptr;
    const auto* movable = c.movable.empty() ? nullptr : &c.movable;
    Rng got_rng(c.rng);
    Rng ref_rng(c.rng);
    const AnnealResult got = anneal_floorplan(
        c.dims, c.nets, c.opts, got_rng, initial, movable, targets, weights);
    const AnnealResult ref = oracle::anneal_floorplan_reference(
        c.dims, c.nets, c.opts, ref_rng, initial, movable, targets, weights);
    std::ostringstream d;
    diff_anneal(d, got, ref);
    if (!(got_rng.state() == ref_rng.state())) d << "rng state differs; ";
    return labelled(label, d);
}

// A design's cores as floorplan_design_layers_reference leaves them
// (seed 42), the generator afterwards, and every anneal it ran.
struct ReferenceLayers {
    std::string label;
    DesignSpec spec;
    CoreSpec cores;
    RngState rng_after;
    std::vector<oracle::AnnealCall> calls;
};

TEST(FloorplanEquivalence, PaperSpecLayers) {
    std::vector<ReferenceLayers> refs;
    for (const auto& name : benchmark_names())
        refs.push_back({name, make_benchmark(name), {}, {}, {}});
    for (const char* name : {"D_26_media", "D_65_pipe"})
        refs.push_back({std::string(name) + " 2-D",
                        to_2d(make_benchmark(name)), {}, {}, {}});
    AnnealOptions fopts;
    fopts.wirelength_weight = 5e-4;
    ThreadPool pool;
    pool.parallel_for(refs.size(), [&](std::size_t i) {
        ReferenceLayers& r = refs[i];
        r.cores = r.spec.cores;
        Rng rng(42);
        oracle::floorplan_design_layers_reference(r.cores, r.spec.comm, fopts,
                                                  rng, &r.calls);
        r.rng_after = rng.state();
    });

    // floorplan_design_layers against the reference driver (final
    // positions and generator), then every anneal the driver ran, replayed
    // from its recorded generator state.
    std::vector<Check> checks;
    for (const ReferenceLayers& r : refs) {
        checks.push_back([&r, fopts] {
            CoreSpec cores = r.spec.cores;
            Rng rng(42);
            floorplan_design_layers(cores, r.spec.comm, fopts, rng);
            std::ostringstream d;
            for (int c = 0; c < cores.num_cores(); ++c) {
                const Point g = cores.core(c).position;
                const Point e = r.cores.core(c).position;
                if (!same_bits(g.x, e.x) || !same_bits(g.y, e.y)) {
                    d << "core " << c << " placed differently; ";
                    break;
                }
            }
            if (!(rng.state() == r.rng_after)) d << "rng state differs; ";
            return labelled(r.label + " layers", d);
        });
        for (std::size_t i = 0; i < r.calls.size(); ++i) {
            checks.push_back([&r, i] {
                const oracle::AnnealCall& call = r.calls[i];
                const auto* targets =
                    call.targets.empty() ? nullptr : &call.targets;
                const auto* weights = call.target_weights.empty()
                                          ? nullptr
                                          : &call.target_weights;
                Rng rng(call.rng_before);
                const AnnealResult got = anneal_floorplan(
                    call.dims, call.nets, call.opts, rng, nullptr, nullptr,
                    targets, weights);
                std::ostringstream d;
                diff_anneal(d, got, call.result);
                if (!(rng.state() == call.rng_after))
                    d << "rng state differs; ";
                return labelled(r.label + " anneal #" + std::to_string(i), d);
            });
        }
    }
    // Three passes over every layer of nine designs.
    EXPECT_GT(checks.size(), 60u);
    check_all(checks);
}

std::vector<BlockDim> random_dims(Rng& rng, int n, int style) {
    std::vector<BlockDim> dims;
    const BlockDim same{0.5 + rng.next_double(), 0.5 + rng.next_double()};
    for (int i = 0; i < n; ++i) {
        if (style == 0)
            dims.push_back({0.1 + 3.0 * rng.next_double(),
                            0.1 + 3.0 * rng.next_double()});
        else if (style == 1)  // integers: many tied coordinates
            dims.push_back({static_cast<double>(rng.next_int(1, 3)),
                            static_cast<double>(rng.next_int(1, 3))});
        else
            dims.push_back(same);
    }
    return dims;
}

TEST(FloorplanEquivalence, PackOnRandomSequencePairs) {
    Rng rng(2001);
    // One Packing and PackBuffers across all sizes, growing and shrinking, as
    // the annealer reuses them.
    Packing out;
    SequencePair::PackBuffers buffers;
    int cases = 0;
    for (int round = 0; round < 2; ++round) {
        for (int n = 0; n <= 100; n += (n < 12 ? 1 : 11)) {
            const int size = round == 0 ? n : 100 - n;
            for (int trial = 0; trial < 12; ++trial) {
                std::vector<int> gp(static_cast<std::size_t>(size));
                std::vector<int> gn(static_cast<std::size_t>(size));
                for (int i = 0; i < size; ++i)
                    gp[static_cast<std::size_t>(i)] =
                        gn[static_cast<std::size_t>(i)] = i;
                rng.shuffle(gp);
                if (trial % 4 != 3) rng.shuffle(gn);  // else a single row
                const SequencePair sp(gp, gn);
                const auto dims = random_dims(rng, size, trial % 3);
                const Packing ref = oracle::pack_reference(sp, dims);
                std::ostringstream d;
                diff_packing(d, sp.pack(dims), ref);
                sp.pack(dims, out, buffers);
                diff_packing(d, out, ref);
                EXPECT_TRUE(d.str().empty())
                    << "n=" << size << " trial " << trial << ": " << d.str();
                ++cases;
            }
        }
    }
    EXPECT_GT(cases, 500);
}

TEST(FloorplanEquivalence, RandomAnneals) {
    std::vector<Check> checks;
    Rng rng(2002);
    for (int i = 0; i < 60; ++i) {
        const int n = i < 12 ? i / 4 : rng.next_int(3, 14);
        AnnealCase c;
        c.dims = random_dims(rng, n, i % 3);
        for (int e = 0; n >= 2 && e < n; ++e) {
            const int a = rng.next_int(0, n - 1);
            const int b = rng.next_int(0, n - 1);
            if (a != b)
                c.nets.push_back({a, b, 1.0 + 99.0 * rng.next_double()});
        }
        c.opts.wirelength_weight = (i % 4) * 0.05;
        c.opts.cooling = 0.8;
        if (i % 2 == 1 && n > 0) {
            c.opts.target_weight = 0.3;
            for (int b = 0; b < n; ++b)
                c.targets.push_back(
                    {6.0 * rng.next_double(), 6.0 * rng.next_double()});
            if (i % 4 == 3)
                for (int b = 0; b < n; ++b)
                    c.target_weights.push_back(b % 3 == 0 ? 0.0
                                                          : rng.next_double());
        }
        if (i % 6 == 5 && n >= 2) {
            // Constrained: some blocks frozen in a random initial order.
            std::vector<int> gp(static_cast<std::size_t>(n));
            std::vector<int> gn(static_cast<std::size_t>(n));
            for (int b = 0; b < n; ++b)
                gp[static_cast<std::size_t>(b)] =
                    gn[static_cast<std::size_t>(b)] = b;
            rng.shuffle(gp);
            rng.shuffle(gn);
            c.has_initial = true;
            c.initial = SequencePair(gp, gn);
            for (int b = 0; b < n; ++b)
                c.movable.push_back(i % 12 == 11 ? 0 : (b % 2 ? 1 : 0));
        }
        c.rng = Rng(splitmix64(static_cast<std::uint64_t>(i))).state();
        checks.push_back([c, i] {
            return check_anneal(c, "random anneal #" + std::to_string(i));
        });
    }
    check_all(checks);
}

// ---------------------------------------------------------------- inserter

// One layer of one routed design, as legalize_floorplan hands it to the
// inserter.
struct PaperLayer {
    std::string spec;
    std::size_t point = 0;  // index into the run's points
    std::size_t layer = 0;
    bool end_point = false;  // the spec's first or last routed design
    LayerInsertion in;

    std::string label() const {
        return spec + " point " + std::to_string(point) + " layer " +
               std::to_string(layer);
    }
};

struct PaperLayers {
    std::vector<PaperLayer> layers;
    std::vector<std::string> problems;  // specs whose filter failed
};

// The per-layer inserter inputs of the routed designs of the seven paper
// specs (annealed with seed 42, the paper configuration). Designs come
// from a floorplan-off run, whose placed topologies are exactly what a
// floorplan-on run legalizes. The run returns every routed design except
// those Algorithm 1's theta sweep drops from its result (3 of D_65_pipe's
// 63; none of the other specs').
const PaperLayers& paper_layers() {
    static const PaperLayers layers = [] {
        const auto names = benchmark_names();
        std::vector<std::vector<PaperLayer>> per_spec(names.size());
        std::vector<std::string> problems(names.size());
        ThreadPool pool;
        pool.parallel_for(names.size(), [&](std::size_t s) {
            DesignSpec spec = make_benchmark(names[s]);
            AnnealOptions fopts;
            fopts.wirelength_weight = 5e-4;
            Rng rng(42);
            floorplan_design_layers(spec.cores, spec.comm, fopts, rng);
            SynthesisConfig cfg;
            cfg.eval.freq_hz = 400e6;
            cfg.max_ill = 25;
            cfg.run_floorplan = false;
            pipeline::SynthesisSession session(spec);
            const SynthesisResult res = session.run(cfg);
            long long routed = 0;
            for (std::size_t p = 0; p < res.points.size(); ++p) {
                const DesignPoint& dp = res.points[p];
                // Routing failures never reach the position stage.
                const std::string& why = dp.fail_reason;
                if (why.rfind("path computation failed", 0) == 0 ||
                    why.rfind("core links need", 0) == 0 ||
                    why.rfind("switch ", 0) == 0)
                    continue;
                ++routed;
                auto inputs = layer_insertions(dp.topo, spec, cfg);
                for (std::size_t ly = 0; ly < inputs.size(); ++ly)
                    per_spec[s].push_back(
                        {names[s], p, ly, false, std::move(inputs[ly])});
            }
            // The filter above may keep placed designs only.
            const long long placed = session.stats().placement.calls();
            if (routed > placed)
                problems[s] = names[s] + ": " + std::to_string(routed) +
                              " designs kept, " + std::to_string(placed) +
                              " placed";
            for (PaperLayer& l : per_spec[s])
                l.end_point = l.point == per_spec[s].front().point ||
                              l.point == per_spec[s].back().point;
        });
        PaperLayers all;
        for (std::size_t s = 0; s < names.size(); ++s) {
            all.layers.insert(all.layers.end(), per_spec[s].begin(),
                              per_spec[s].end());
            if (!problems[s].empty()) all.problems.push_back(problems[s]);
        }
        return all;
    }();
    for (const std::string& problem : layers.problems) ADD_FAILURE() << problem;
    return layers;
}

TEST(FloorplanEquivalence, InserterOnPaperDesigns) {
    std::vector<Check> checks;
    std::size_t blocks = 0;
    for (const PaperLayer& l : paper_layers().layers) {
        blocks += l.in.blocks.size();
        checks.push_back([&l] {
            std::ostringstream d;
            diff_insertion(
                d, insert_blocks_custom(l.in.fixed, l.in.blocks),
                oracle::insert_blocks_custom_reference(l.in.fixed,
                                                       l.in.blocks));
            return labelled(l.label(), d);
        });
    }
    // A cold pass over the seven specs legalizes a few hundred layers
    // holding a few thousand blocks.
    EXPECT_GT(checks.size(), 300u);
    EXPECT_GT(blocks, 2000u);
    check_all(checks);
}

std::string check_insertion(const std::vector<Rect>& fixed,
                            const std::vector<InsertBlock>& blocks,
                            const std::string& label) {
    std::ostringstream d;
    diff_insertion(d, insert_blocks_custom(fixed, blocks),
                   oracle::insert_blocks_custom_reference(fixed, blocks));
    return labelled(label, d);
}

/// A die fully tiled by nx x ny abutting w x h rects.
std::vector<Rect> tiled_die(int nx, int ny, double w, double h) {
    std::vector<Rect> tiles;
    for (int i = 0; i < nx; ++i)
        for (int j = 0; j < ny; ++j) tiles.push_back({i * w, j * h, w, h});
    return tiles;
}

TEST(FloorplanEquivalence, InserterEdgeCases) {
    std::vector<Check> checks;
    auto add = [&](std::vector<Rect> fixed, std::vector<InsertBlock> blocks,
                   std::string label) {
        checks.push_back(
            [=] { return check_insertion(fixed, blocks, label); });
    };

    // Ideals at and near the origin: candidates left of or below it are
    // clamped, those beyond both axes skipped. On the 8 mm tiled die the
    // search radius (0.35 of the half perimeter) ends inside the die, so
    // the first block finds no free spot and displaces.
    const std::vector<Rect> corner{{0, 0, 2, 2}, {2, 0, 1, 3}};
    const std::vector<Rect> tiled8 = tiled_die(8, 8, 1.0, 1.0);
    for (const Point ideal : {Point{0, 0}, Point{0.1, 0.05}, Point{1, 0.2},
                              Point{0.2, 1.9}, Point{-0.3, 0.4}}) {
        const std::vector<InsertBlock> pair{{0.6, 0.4, ideal},
                                            {0.3, 0.3, ideal}};
        add(corner, pair, "near origin");
        add(tiled8, pair, "near origin, tiled die");
    }

    // Abutting rects on a dyadic grid: candidates land exactly on block
    // edges, where touching is not overlapping. With every tile present
    // the early blocks find no free spot.
    std::vector<Rect> grid;
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            if ((i + j) % 3 != 0) grid.push_back({i * 1.0, j * 1.0, 1.0, 1.0});
    std::vector<InsertBlock> unit_blocks;
    for (int b = 0; b < 6; ++b)
        unit_blocks.push_back({1.0, 0.5 + 0.25 * (b % 3),
                               {0.5 + 0.5 * b, 0.5 + 0.25 * b}});
    add(grid, unit_blocks, "abutting grid");
    add(tiled8, unit_blocks, "abutting grid, tiled die");
    // A fully tiled 3x3 die: the free spot beyond its edge costs more than
    // displacing at the ideal.
    add(tiled_die(3, 3, 2.0, 2.0),
        {{1.0, 1.0, {3.0, 3.0}}, {0.5, 0.5, {2.0, 4.0}}}, "tiled die");

    // No fixed blocks at all.
    add({}, {{0.5, 0.5, {1.0, 1.0}}, {0.5, 0.5, {1.0, 1.0}},
             {0.25, 0.75, {0.0, 0.0}}},
        "empty fixed set");
    add({}, {}, "nothing at all");

    // Random scenes, some overlapping.
    Rng rng(2003);
    for (int s = 0; s < 80; ++s) {
        std::vector<Rect> fixed;
        const int nf = rng.next_int(0, 12);
        for (int i = 0; i < nf; ++i)
            fixed.push_back({rng.next_int(0, 8) * 0.5, rng.next_int(0, 8) * 0.5,
                             0.5 + rng.next_int(0, 4) * 0.5,
                             0.5 + rng.next_int(0, 4) * 0.5});
        std::vector<InsertBlock> blocks;
        const int nb = rng.next_int(1, 8);
        for (int i = 0; i < nb; ++i) {
            const double side = 0.2 + 0.6 * rng.next_double();
            blocks.push_back({side, side * (0.5 + rng.next_double()),
                              {5.0 * rng.next_double(),
                               5.0 * rng.next_double()}});
        }
        add(fixed, blocks, "random scene #" + std::to_string(s));
    }
    // Random fully tiled square dies with ideals in their lower-left
    // quarter. On all but the smallest the search radius ends inside the
    // die, so the first block finds no free spot; the gaps its
    // displacement leaves serve some later ones.
    Rng tiled_rng(2004);
    for (int s = 0; s < 40; ++s) {
        const int n = tiled_rng.next_int(3, 10);
        const double tile = 0.5 + tiled_rng.next_int(0, 3) * 0.5;
        const double quarter = n * tile / 4.0;
        std::vector<InsertBlock> blocks;
        const int nb = tiled_rng.next_int(1, 8);
        for (int i = 0; i < nb; ++i) {
            const double side = 0.2 + 0.6 * tiled_rng.next_double();
            blocks.push_back({side, side * (0.5 + tiled_rng.next_double()),
                              {quarter * tiled_rng.next_double(),
                               quarter * tiled_rng.next_double()}});
        }
        add(tiled_die(n, n, tile, tile), blocks,
            "random tiled die #" + std::to_string(s));
    }
    check_all(checks);
}

// ------------------------------------------------- constrained annealing

// insert_blocks_standard's construction on the reference annealer.
InsertionResult insert_blocks_standard_reference(
    const std::vector<Rect>& fixed, const std::vector<InsertBlock>& blocks,
    Rng& rng) {
    const int nf = static_cast<int>(fixed.size());
    const int n = nf + static_cast<int>(blocks.size());
    std::vector<BlockDim> dims;
    std::vector<Rect> initial;
    std::vector<Point> targets;
    for (const auto& r : fixed) {
        dims.push_back({r.w, r.h});
        initial.push_back(r);
        targets.push_back(r.center());
    }
    for (const auto& b : blocks) {
        dims.push_back({b.w, b.h});
        initial.push_back(
            {b.ideal.x - b.w / 2.0, b.ideal.y - b.h / 2.0, b.w, b.h});
        targets.push_back(b.ideal);
    }
    const SequencePair sp0 = SequencePair::from_placement(initial);
    std::vector<char> movable(static_cast<std::size_t>(n), 0);
    for (int i = nf; i < n; ++i) movable[static_cast<std::size_t>(i)] = 1;
    const AnnealResult ar = oracle::anneal_floorplan_reference(
        dims, {}, kStandardInsertAnneal, rng, &sp0, &movable, &targets);

    InsertionResult res;
    for (int i = 0; i < nf; ++i)
        res.fixed_rects.push_back(ar.packing.block_rect(i, dims));
    for (int i = nf; i < n; ++i)
        res.inserted_rects.push_back(ar.packing.block_rect(i, dims));
    for (int i = 0; i < nf; ++i)
        res.total_displacement +=
            manhattan(res.fixed_rects[static_cast<std::size_t>(i)].center(),
                      fixed[static_cast<std::size_t>(i)].center());
    for (std::size_t i = 0; i < blocks.size(); ++i)
        res.total_deviation +=
            manhattan(res.inserted_rects[i].center(), blocks[i].ideal);
    res.die_width = ar.packing.width;
    res.die_height = ar.packing.height;
    return res;
}

TEST(FloorplanEquivalence, ConstrainedModeThroughStandardInserter) {
    // Every layer with blocks to insert of the first and last routed
    // design of each paper spec.
    const auto& layers = paper_layers().layers;
    std::vector<Check> checks;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const PaperLayer& l = layers[i];
        if (l.in.blocks.empty() || !l.end_point) continue;
        checks.push_back([&l, i] {
            const RngState seed =
                Rng(splitmix64(static_cast<std::uint64_t>(i))).state();
            Rng got_rng(seed);
            Rng ref_rng(seed);
            std::ostringstream d;
            diff_insertion(
                d, insert_blocks_standard(l.in.fixed, l.in.blocks, got_rng),
                insert_blocks_standard_reference(l.in.fixed, l.in.blocks,
                                                 ref_rng));
            if (!(got_rng.state() == ref_rng.state()))
                d << "rng state differs; ";
            return labelled(l.label() + " (standard)", d);
        });
    }
    EXPECT_GE(checks.size(), 14u);
    check_all(checks);
}

}  // namespace
}  // namespace sunfloor
