// Tests for TSV macro generation (Section III).
#include <gtest/gtest.h>

#include "sunfloor/floorplan/tsv_macros.h"

namespace sunfloor {
namespace {

TEST(TsvMacros, IntraLayerLinkNeedsNoMacros) {
    EXPECT_TRUE(tsv_macros_for_link(1, {0, 0}, 1, {3, 3}, 0.01).empty());
}

TEST(TsvMacros, AdjacentLayersOneEmbeddedMacro) {
    const auto m = tsv_macros_for_link(0, {0, 0}, 1, {2, 2}, 0.01);
    ASSERT_EQ(m.size(), 1u);
    EXPECT_EQ(m[0].layer, 1);
    EXPECT_TRUE(m[0].embedded);  // lives in the destination port
    EXPECT_DOUBLE_EQ(m[0].area_mm2, 0.01);
    EXPECT_NEAR(m[0].preferred.x, 2.0, 1e-12);
}

TEST(TsvMacros, MultiLayerLinkGetsIntermediateMacros) {
    // Layer 0 to layer 3: macros on layers 1, 2 (free-standing) and 3
    // (embedded), positions interpolated along the span (Fig. 2).
    const auto m = tsv_macros_for_link(0, {0, 0}, 3, {6, 3}, 0.02);
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m[0].layer, 1);
    EXPECT_FALSE(m[0].embedded);
    EXPECT_NEAR(m[0].preferred.x, 2.0, 1e-12);
    EXPECT_NEAR(m[0].preferred.y, 1.0, 1e-12);
    EXPECT_EQ(m[1].layer, 2);
    EXPECT_FALSE(m[1].embedded);
    EXPECT_NEAR(m[1].preferred.x, 4.0, 1e-12);
    EXPECT_EQ(m[2].layer, 3);
    EXPECT_TRUE(m[2].embedded);
    EXPECT_NEAR(m[2].preferred.x, 6.0, 1e-12);
}

TEST(TsvMacros, EndpointOrderIrrelevant) {
    const auto up = tsv_macros_for_link(0, {0, 0}, 2, {4, 0}, 0.01);
    const auto down = tsv_macros_for_link(2, {4, 0}, 0, {0, 0}, 0.01);
    ASSERT_EQ(up.size(), down.size());
    for (std::size_t i = 0; i < up.size(); ++i) {
        EXPECT_EQ(up[i].layer, down[i].layer);
        EXPECT_NEAR(up[i].preferred.x, down[i].preferred.x, 1e-12);
    }
}

}  // namespace
}  // namespace sunfloor
