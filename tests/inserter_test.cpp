// Tests for the custom NoC-insertion routine and the standard baseline.
#include <gtest/gtest.h>

#include "oracle/placement_checks.h"
#include "sunfloor/floorplan/inserter.h"
#include "sunfloor/floorplan/standard_inserter.h"

namespace sunfloor {
namespace {

double overlap_of(const InsertionResult& r) {
    std::vector<Rect> all = r.fixed_rects;
    all.insert(all.end(), r.inserted_rects.begin(), r.inserted_rects.end());
    return oracle::total_overlap(all);
}

TEST(Inserter, PlacesIntoFreeSpaceAtIdeal) {
    // Empty floorplan around the ideal: block goes exactly there.
    const std::vector<Rect> fixed{{0, 0, 2, 2}};
    const std::vector<InsertBlock> blocks{{0.5, 0.5, {5.0, 5.0}}};
    const auto r = insert_blocks_custom(fixed, blocks);
    EXPECT_NEAR(r.inserted_rects[0].center().x, 5.0, 1e-9);
    EXPECT_NEAR(r.inserted_rects[0].center().y, 5.0, 1e-9);
    EXPECT_DOUBLE_EQ(r.total_displacement, 0.0);
    EXPECT_DOUBLE_EQ(overlap_of(r), 0.0);
}

TEST(Inserter, FindsNearbyGap) {
    // Ideal sits on a core; a gap exists just right of it.
    const std::vector<Rect> fixed{{0, 0, 2, 2}, {3, 0, 2, 2}};
    const std::vector<InsertBlock> blocks{{0.8, 0.8, {1.0, 1.0}}};
    const auto r = insert_blocks_custom(fixed, blocks);
    EXPECT_DOUBLE_EQ(overlap_of(r), 0.0);
    // Should use the gap (2..3) x or space above, not displace anything.
    EXPECT_DOUBLE_EQ(r.total_displacement, 0.0);
    EXPECT_LT(r.total_deviation, 2.5);
}

TEST(Inserter, DisplacesWhenDenseAndStaysLegal) {
    // A 3x3 grid of abutting cores, so blocks must shift. From the corner
    // core's center the search radius (0.35 of the die's half perimeter)
    // ends inside the die: no free space within reach. From the center
    // core's it reaches past the die's edge, but that spot costs more
    // than displacing at the ideal.
    std::vector<Rect> fixed;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            fixed.push_back({i * 2.0, j * 2.0, 2.0, 2.0});
    for (const Point ideal : {Point{1.0, 1.0}, Point{3.0, 3.0}}) {
        SCOPED_TRACE(ideal.x);
        const std::vector<InsertBlock> blocks{{1.0, 1.0, ideal}};
        const auto r = insert_blocks_custom(fixed, blocks);
        EXPECT_DOUBLE_EQ(overlap_of(r), 0.0);
        EXPECT_GT(r.total_displacement, 0.0);
        // Die grows by about the inserted width, not more than a couple mm.
        EXPECT_LE(r.die_width * r.die_height, 6.0 * 6.0 * 1.4 + 3);
    }
}

TEST(Inserter, ManyInsertionsReuseGaps) {
    std::vector<Rect> fixed;
    for (int i = 0; i < 4; ++i) fixed.push_back({i * 2.0, 0.0, 2.0, 2.0});
    std::vector<InsertBlock> blocks;
    for (int b = 0; b < 6; ++b)
        blocks.push_back({0.4, 0.4, {1.0 + b * 1.0, 1.0}});
    const auto r = insert_blocks_custom(fixed, blocks);
    EXPECT_DOUBLE_EQ(overlap_of(r), 0.0);
    EXPECT_EQ(r.inserted_rects.size(), 6u);
}

TEST(Inserter, EmptyBlocksListKeepsFloorplan) {
    const std::vector<Rect> fixed{{0, 0, 2, 2}, {2, 0, 2, 2}};
    const auto r = insert_blocks_custom(fixed, {});
    EXPECT_EQ(r.fixed_rects, fixed);
    EXPECT_DOUBLE_EQ(r.die_width, 4.0);
}

TEST(Inserter, EmptyFloorplanAcceptsBlocks) {
    const std::vector<InsertBlock> blocks{{1.0, 1.0, {2.0, 2.0}},
                                          {1.0, 1.0, {2.0, 2.0}}};
    const auto r = insert_blocks_custom({}, blocks);
    EXPECT_DOUBLE_EQ(overlap_of(r), 0.0);
    EXPECT_EQ(r.inserted_rects.size(), 2u);
}

TEST(StandardInserter, ProducesLegalFloorplan) {
    std::vector<Rect> fixed;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            fixed.push_back({i * 2.0, j * 2.0, 2.0, 2.0});
    std::vector<InsertBlock> blocks{{0.5, 0.5, {3.0, 3.0}},
                                    {0.5, 0.5, {1.0, 5.0}}};
    Rng rng(11);
    const auto r = insert_blocks_standard(fixed, blocks, rng);
    EXPECT_DOUBLE_EQ(overlap_of(r), 0.0);
    EXPECT_EQ(r.inserted_rects.size(), 2u);
    EXPECT_GT(r.die_width, 0.0);
}

TEST(StandardInserter, CoreRelativeOrderMaintained) {
    // Cores in a strict left-to-right row: the constrained annealer may
    // not swap them (the paper's "maintaining the relative positions").
    std::vector<Rect> fixed{{0, 0, 1, 1}, {2, 0, 1, 1}, {4, 0, 1, 1}};
    std::vector<InsertBlock> blocks{{0.4, 0.4, {2.5, 0.5}}};
    Rng rng(12);
    const auto r = insert_blocks_standard(fixed, blocks, rng);
    EXPECT_LT(r.fixed_rects[0].center().x, r.fixed_rects[1].center().x);
    EXPECT_LT(r.fixed_rects[1].center().x, r.fixed_rects[2].center().x);
}

TEST(InserterComparison, CustomTracksIdealsBetter) {
    // With gaps available near the ideals, the custom routine's deviation
    // should be small in absolute terms.
    std::vector<Rect> fixed;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            fixed.push_back({i * 2.5, j * 2.5, 2.0, 2.0});  // 0.5 mm streets
    std::vector<InsertBlock> blocks;
    for (int b = 0; b < 4; ++b)
        blocks.push_back({0.4, 0.4, {2.2 + b * 0.8, 2.2}});
    const auto custom = insert_blocks_custom(fixed, blocks);
    EXPECT_DOUBLE_EQ(overlap_of(custom), 0.0);
    EXPECT_LT(custom.total_deviation / 4.0, 1.5);  // avg < 1.5 mm
}

}  // namespace
}  // namespace sunfloor
