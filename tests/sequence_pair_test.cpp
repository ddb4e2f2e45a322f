// Tests for the sequence-pair floorplan representation.
#include <gtest/gtest.h>

#include "oracle/placement_checks.h"
#include "sunfloor/floorplan/sequence_pair.h"
#include "sunfloor/util/rng.h"

namespace sunfloor {
namespace {

bool packing_is_legal(const Packing& p, const std::vector<BlockDim>& dims) {
    std::vector<Rect> rects;
    for (std::size_t i = 0; i < dims.size(); ++i)
        rects.push_back(p.block_rect(static_cast<int>(i), dims));
    return oracle::total_overlap(rects) < 1e-12;
}

TEST(SequencePair, IdentityPacksInARow) {
    SequencePair sp(3);
    const std::vector<BlockDim> dims{{1, 1}, {2, 1}, {1, 2}};
    const Packing p = sp.pack(dims);
    // Identity sequence pair: every earlier block is left of later ones.
    EXPECT_DOUBLE_EQ(p.positions[0].x, 0.0);
    EXPECT_DOUBLE_EQ(p.positions[1].x, 1.0);
    EXPECT_DOUBLE_EQ(p.positions[2].x, 3.0);
    EXPECT_DOUBLE_EQ(p.height, 2.0);
    EXPECT_TRUE(packing_is_legal(p, dims));
}

TEST(SequencePair, ReversedGammaPosStacksVertically) {
    // G+ = (2,1,0), G- = (0,1,2): every earlier G- block is below.
    SequencePair sp({2, 1, 0}, {0, 1, 2});
    const std::vector<BlockDim> dims{{1, 1}, {1, 1}, {1, 1}};
    const Packing p = sp.pack(dims);
    EXPECT_DOUBLE_EQ(p.width, 1.0);
    EXPECT_DOUBLE_EQ(p.height, 3.0);
    EXPECT_TRUE(packing_is_legal(p, dims));
}

TEST(SequencePair, ValidationRejectsBadPermutations) {
    EXPECT_THROW(SequencePair({0, 0}, {0, 1}), std::invalid_argument);
    EXPECT_THROW(SequencePair({0, 1}, {0}), std::invalid_argument);
    EXPECT_THROW(SequencePair({0, 2}, {0, 1}), std::invalid_argument);
}

TEST(SequencePair, FromPlacementReproducesRelativeOrder) {
    // Two blocks side by side and one above: derived sequence pair must
    // pack them without overlap and preserve left-of / above-of relations.
    const std::vector<Rect> rects{{0, 0, 2, 2}, {3, 0, 2, 2}, {0, 3, 2, 2}};
    const auto sp = SequencePair::from_placement(rects);
    std::vector<BlockDim> dims;
    for (const auto& r : rects) dims.push_back({r.w, r.h});
    const Packing p = sp.pack(dims);
    EXPECT_TRUE(packing_is_legal(p, dims));
    EXPECT_LT(p.positions[0].x, p.positions[1].x);   // 0 left of 1
    EXPECT_LT(p.positions[0].y, p.positions[2].y);   // 0 below 2
}

TEST(SequencePair, PackNeverOverlapsRandom) {
    Rng rng(17);
    for (int trial = 0; trial < 30; ++trial) {
        const int n = 2 + static_cast<int>(rng.next_below(10));
        std::vector<int> gp(n);
        std::vector<int> gn(n);
        for (int i = 0; i < n; ++i) gp[i] = gn[i] = i;
        rng.shuffle(gp);
        rng.shuffle(gn);
        SequencePair sp(gp, gn);
        std::vector<BlockDim> dims;
        for (int i = 0; i < n; ++i)
            dims.push_back(
                {0.5 + rng.next_double() * 2.0, 0.5 + rng.next_double() * 2.0});
        const Packing p = sp.pack(dims);
        EXPECT_TRUE(packing_is_legal(p, dims)) << "trial " << trial;
        // Bounding box consistent.
        double w = 0.0;
        double h = 0.0;
        for (int i = 0; i < n; ++i) {
            w = std::max(w, p.positions[i].x + dims[i].w);
            h = std::max(h, p.positions[i].y + dims[i].h);
        }
        EXPECT_DOUBLE_EQ(p.width, w);
        EXPECT_DOUBLE_EQ(p.height, h);
    }
}

TEST(SequencePair, MovesPreserveLegality) {
    Rng rng(23);
    SequencePair sp(6);
    const std::vector<BlockDim> dims{{1, 1}, {2, 1}, {1, 3},
                                     {2, 2}, {1, 1}, {3, 1}};
    for (int move = 0; move < 50; ++move) {
        const int kind = rng.next_int(0, 3);
        const int i = rng.next_int(0, 5);
        int j = rng.next_int(0, 4);
        if (j >= i) ++j;
        switch (kind) {
            case 0: sp.swap_pos(i, j); break;
            case 1: sp.swap_neg(i, j); break;
            case 2: sp.swap_both(i, j); break;
            default: sp.reinsert(i, rng.next_int(0, 5), rng.next_int(0, 5));
        }
        EXPECT_TRUE(packing_is_legal(sp.pack(dims), dims));
    }
}

TEST(SequencePair, AreaLowerBoundRespected) {
    Rng rng(29);
    std::vector<BlockDim> dims{{2, 1}, {1, 2}, {1, 1}, {2, 2}};
    double total = 0.0;
    for (const auto& d : dims) total += d.w * d.h;
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<int> gp{0, 1, 2, 3};
        std::vector<int> gn{0, 1, 2, 3};
        rng.shuffle(gp);
        rng.shuffle(gn);
        const Packing p = SequencePair(gp, gn).pack(dims);
        EXPECT_GE(p.area(), total - 1e-9);
    }
}

}  // namespace
}  // namespace sunfloor
