// Tests for the simulated-annealing floorplanner (Parquet substitute).
#include <gtest/gtest.h>

#include "oracle/placement_checks.h"
#include "sunfloor/floorplan/annealer.h"
#include "sunfloor/spec/benchmarks.h"

namespace sunfloor {
namespace {

TEST(Annealer, ImprovesAreaOverIdentity) {
    // Mixed sizes: the identity row layout is far from optimal.
    std::vector<BlockDim> dims{{1, 4}, {4, 1}, {1, 4}, {4, 1},
                               {2, 2}, {1, 1}, {1, 1}, {2, 2}};
    double total = 0.0;
    for (const auto& d : dims) total += d.w * d.h;
    const double identity_area = SequencePair(8).pack(dims).area();
    Rng rng(5);
    AnnealOptions opts;
    opts.wirelength_weight = 0.0;
    const auto res = anneal_floorplan(dims, {}, opts, rng);
    EXPECT_LT(res.packing.area(), identity_area);
    EXPECT_GE(res.packing.area(), total - 1e-9);
    // A decent anneal should reach within 40% of the area lower bound.
    EXPECT_LT(res.packing.area(), total * 1.4);
}

TEST(Annealer, WirelengthPullsConnectedBlocksTogether) {
    // 8 unit blocks; blocks 0 and 7 are heavily connected.
    std::vector<BlockDim> dims(8, BlockDim{1, 1});
    std::vector<FloorplanNet> nets{{0, 7, 100.0}};
    AnnealOptions opts;
    opts.wirelength_weight = 0.5;
    Rng rng(6);
    const auto res = anneal_floorplan(dims, nets, opts, rng);
    const Rect r0 = res.packing.block_rect(0, dims);
    const Rect r7 = res.packing.block_rect(7, dims);
    EXPECT_LE(manhattan(r0.center(), r7.center()), 2.5);
}

TEST(Annealer, EmptyAndSingleBlock) {
    Rng rng(7);
    const auto empty = anneal_floorplan({}, {}, {}, rng);
    EXPECT_EQ(empty.packing.positions.size(), 0u);
    const auto single = anneal_floorplan({{2, 3}}, {}, {}, rng);
    EXPECT_DOUBLE_EQ(single.packing.area(), 6.0);
}

TEST(Annealer, ConstrainedModePreservesImmovableOrder) {
    // Blocks 0..3 immovable (a row), block 4 movable. The relative x-order
    // of the immovable blocks must survive any number of moves.
    std::vector<BlockDim> dims{{1, 1}, {1, 1}, {1, 1}, {1, 1}, {0.5, 0.5}};
    std::vector<Rect> initial{{0, 0, 1, 1},
                              {1.5, 0, 1, 1},
                              {3, 0, 1, 1},
                              {4.5, 0, 1, 1},
                              {2, 2, 0.5, 0.5}};
    const auto sp0 = SequencePair::from_placement(initial);
    std::vector<char> movable{0, 0, 0, 0, 1};
    Rng rng(8);
    const auto res = anneal_floorplan(dims, {}, {}, rng, &sp0, &movable);
    for (int i = 0; i + 1 < 4; ++i)
        EXPECT_LT(res.packing.positions[i].x, res.packing.positions[i + 1].x);
}

TEST(Annealer, TargetWeightKeepsBlocksNearTargets) {
    std::vector<BlockDim> dims{{1, 1}, {1, 1}, {1, 1}, {1, 1}};
    std::vector<Point> targets{{0.5, 0.5}, {3.5, 0.5}, {0.5, 3.5}, {3.5, 3.5}};
    AnnealOptions opts;
    opts.target_weight = 50.0;  // dominate area
    Rng rng(9);
    const auto res = anneal_floorplan(dims, {}, opts, rng, nullptr, nullptr,
                                      &targets);
    // With targets at the 4 corners of a 4x4 region, the anneal must
    // spread the blocks rather than pack them (a 2x2 packing at the origin
    // would cost ~12 mm of deviation).
    double dev = 0.0;
    for (int i = 0; i < 4; ++i)
        dev += manhattan(res.packing.block_rect(i, dims).center(),
                         targets[static_cast<std::size_t>(i)]);
    EXPECT_LT(dev, 9.0);
}

TEST(Annealer, FloorplanDesignLayersLegalizes) {
    DesignSpec spec = make_d26_media();
    AnnealOptions opts;
    opts.wirelength_weight = 5e-4;
    Rng rng(10);
    floorplan_design_layers(spec.cores, spec.comm, opts, rng);
    EXPECT_TRUE(oracle::placement_is_legal(spec.cores));
    // Area utilization must stay sane (no exploded layout).
    for (int ly = 0; ly < spec.cores.num_layers(); ++ly) {
        const double core_area = oracle::layer_area(spec.cores, ly);
        const double bbox = spec.cores.layer_bounding_box(ly).area();
        EXPECT_LT(bbox, core_area * 1.6) << "layer " << ly;
    }
}

TEST(Annealer, CostFunctionComponents) {
    std::vector<BlockDim> dims{{1, 1}, {1, 1}};
    Packing p;
    p.positions = {{0, 0}, {5, 0}};
    p.width = 6;
    p.height = 1;
    AnnealOptions opts;
    opts.area_weight = 1.0;
    opts.wirelength_weight = 2.0;
    const std::vector<FloorplanNet> nets{{0, 1, 3.0}};
    // area 6 + 2 * 3 * 5 = 36.
    EXPECT_DOUBLE_EQ(floorplan_cost(p, dims, nets, opts), 36.0);
    opts.target_weight = 1.0;
    const std::vector<Point> targets{{0.5, 0.5}, {5.5, 0.5}};
    EXPECT_DOUBLE_EQ(floorplan_cost(p, dims, nets, opts, &targets), 36.0);
}

}  // namespace
}  // namespace sunfloor
