// Tests for the balanced k-way min-cut partitioner (Algorithm 1/2 substrate).
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "sunfloor/graph/partition.h"

namespace sunfloor {
namespace {

// Two dense clusters joined by one light edge: k=2 must cut the light edge.
Digraph two_clusters(double light_weight) {
    Digraph g(8);
    for (int i = 0; i < 4; ++i)
        for (int j = i + 1; j < 4; ++j) g.add_edge(i, j, 10.0);
    for (int i = 4; i < 8; ++i)
        for (int j = i + 1; j < 8; ++j) g.add_edge(i, j, 10.0);
    g.add_edge(0, 4, light_weight);
    return g;
}

TEST(Partition, TwoClustersCutLightEdge) {
    Rng rng(1);
    const auto g = two_clusters(1.0);
    const auto res = partition_kway(g, 2, rng);
    EXPECT_DOUBLE_EQ(res.cut_weight, 1.0);
    // Blocks must be exactly the clusters.
    EXPECT_EQ(res.block[0], res.block[1]);
    EXPECT_EQ(res.block[0], res.block[3]);
    EXPECT_EQ(res.block[4], res.block[7]);
    EXPECT_NE(res.block[0], res.block[4]);
}

TEST(Partition, BalanceRespected) {
    Rng rng(2);
    Digraph g(10);
    for (int i = 0; i < 10; ++i)
        for (int j = i + 1; j < 10; ++j) g.add_edge(i, j, 1.0);
    for (int k = 2; k <= 5; ++k) {
        const auto res = partition_kway(g, k, rng);
        std::vector<int> sizes(k, 0);
        for (int b : res.block) {
            ASSERT_GE(b, 0);
            ASSERT_LT(b, k);
            ++sizes[b];
        }
        const int max_allowed = (10 + k - 1) / k;
        for (int s : sizes) {
            EXPECT_LE(s, max_allowed);
            EXPECT_GE(s, 1);  // no empty blocks
        }
    }
}

TEST(Partition, CustomMaxBlockSize) {
    Rng rng(3);
    Digraph g(9);
    for (int i = 0; i + 1 < 9; ++i) g.add_edge(i, i + 1, 1.0);
    PartitionOptions opts;
    opts.max_block_size = 3;
    const auto res = partition_kway(g, 3, rng, opts);
    std::vector<int> sizes(3, 0);
    for (int b : res.block) ++sizes[b];
    for (int s : sizes) EXPECT_LE(s, 3);
}

TEST(Partition, KEqualsOneAndN) {
    Rng rng(4);
    Digraph g(4);
    g.add_edge(0, 1, 5.0);
    const auto one = partition_kway(g, 1, rng);
    EXPECT_DOUBLE_EQ(one.cut_weight, 0.0);
    const auto all = partition_kway(g, 4, rng);
    std::set<int> blocks(all.block.begin(), all.block.end());
    EXPECT_EQ(blocks.size(), 4u);  // singletons
    EXPECT_DOUBLE_EQ(all.cut_weight, 5.0);
}

TEST(Partition, InvalidArguments) {
    Rng rng(5);
    Digraph g(3);
    EXPECT_THROW(partition_kway(g, 0, rng), std::invalid_argument);
    EXPECT_THROW(partition_kway(g, 4, rng), std::invalid_argument);
    PartitionOptions opts;
    opts.max_block_size = 1;
    EXPECT_THROW(partition_kway(g, 2, rng, opts), std::invalid_argument);
}

TEST(Partition, WeightsItCannotOrderAreRejected) {
    // A NaN or negative weight leaves growth with no block to pick, and
    // an infinite one makes every start's cut infinite.
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(), -1.0}) {
        for (const bool self_loop : {false, true}) {
            Digraph g = two_clusters(1.0);
            g.add_edge(2, self_loop ? 2 : 5, bad);
            Rng rng(5);
            EXPECT_THROW(partition_kway(g, 2, rng), std::invalid_argument)
                << bad << (self_loop ? " on a self-loop" : "");
        }
    }
}

TEST(Partition, HugeCutStillAssignsEveryVertex) {
    // Every cut here is at least 1e306, above any sentinel a "best so
    // far" could start from; the result must still cover every vertex.
    Digraph g(4);
    for (int u = 0; u < 4; ++u)
        for (int v = u + 1; v < 4; ++v) g.add_edge(u, v, 1e306);
    Rng rng(6);
    const auto res = partition_kway(g, 2, rng);
    ASSERT_EQ(res.block.size(), 4u);
    std::vector<int> sizes(2, 0);
    for (int b : res.block) ++sizes.at(static_cast<std::size_t>(b));
    EXPECT_EQ(sizes, (std::vector<int>{2, 2}));
    EXPECT_EQ(res.cut_weight, cut_weight(g, res.block));
    EXPECT_GT(res.cut_weight, 3e306);
}

TEST(Partition, CutWeightConsistent) {
    Rng rng(6);
    const auto g = two_clusters(2.5);
    const auto res = partition_kway(g, 2, rng);
    EXPECT_DOUBLE_EQ(cut_weight(g, res.block), res.cut_weight);
}

TEST(Partition, RefinementImprovesOrMatchesGreedy) {
    Rng rng1(7);
    Rng rng2(7);
    Digraph g(12);
    Rng grng(8);
    for (int i = 0; i < 12; ++i)
        for (int j = i + 1; j < 12; ++j)
            if (grng.next_bool(0.5))
                g.add_edge(i, j, 1.0 + grng.next_double() * 4.0);
    PartitionOptions with;
    PartitionOptions without;
    without.refine = false;
    const auto a = partition_kway(g, 3, rng1, with);
    const auto b = partition_kway(g, 3, rng2, without);
    EXPECT_LE(a.cut_weight, b.cut_weight + 1e-9);
}

TEST(Partition, DirectedCutCountsEachEdge) {
    Digraph g(4);
    g.add_edge(0, 2, 1.0);
    g.add_edge(2, 0, 2.0);
    const std::vector<int> block{0, 0, 1, 1};
    EXPECT_DOUBLE_EQ(cut_weight(g, block), 3.0);
}

// Property sweep: partitions stay legal for many seeds and k values.
class PartitionSweep : public ::testing::TestWithParam<int> {};

TEST_P(PartitionSweep, AlwaysLegalPartitions) {
    const int seed = GetParam();
    Rng grng(static_cast<std::uint64_t>(seed) * 977 + 1);
    const int n = 6 + seed % 11;
    Digraph g(n);
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (grng.next_bool(0.4)) g.add_edge(i, j, grng.next_double() * 10);
    for (int k = 1; k <= n; k += 2) {
        Rng rng(static_cast<std::uint64_t>(seed));
        const auto res = partition_kway(g, k, rng);
        ASSERT_EQ(static_cast<int>(res.block.size()), n);
        std::vector<int> sizes(k, 0);
        for (int b : res.block) {
            ASSERT_GE(b, 0);
            ASSERT_LT(b, k);
            ++sizes[b];
        }
        for (int s : sizes) EXPECT_LE(s, (n + k - 1) / k);
        EXPECT_GE(res.cut_weight, 0.0);
        EXPECT_DOUBLE_EQ(res.cut_weight, cut_weight(g, res.block));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace sunfloor
