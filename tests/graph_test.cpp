// Unit tests for the digraph container and its cycle check.
#include <gtest/gtest.h>

#include "sunfloor/graph/digraph.h"

namespace sunfloor {
namespace {

TEST(Digraph, AddVerticesAndEdges) {
    Digraph g(4);
    EXPECT_EQ(g.num_vertices(), 4);
    const int e = g.add_edge(0, 3, 2.5);
    EXPECT_EQ(g.edge(e).src, 0);
    EXPECT_EQ(g.edge(e).dst, 3);
    EXPECT_DOUBLE_EQ(g.edge(e).weight, 2.5);
    EXPECT_EQ(g.out_degree(0), 1);
    EXPECT_EQ(g.in_degree(3), 1);
    EXPECT_THROW(g.add_edge(0, 99), std::out_of_range);
}

TEST(Digraph, MergeEdgeAccumulates) {
    Digraph g(2);
    g.merge_edge(0, 1, 1.0);
    g.merge_edge(0, 1, 2.0);
    EXPECT_EQ(g.num_edges(), 1);
    EXPECT_DOUBLE_EQ(g.edge(0).weight, 3.0);
    g.add_edge(0, 1, 5.0);  // explicit parallel edge allowed
    EXPECT_EQ(g.num_edges(), 2);
}

TEST(Digraph, FindEdge) {
    Digraph g(3);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 2.0);
    EXPECT_TRUE(g.find_edge(0, 1).has_value());
    EXPECT_FALSE(g.find_edge(1, 0).has_value());
}

TEST(Cycles, DetectsCycle) {
    Digraph g(3);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    EXPECT_FALSE(has_cycle(g));
    g.add_edge(2, 0);
    EXPECT_TRUE(has_cycle(g));
}

TEST(Cycles, SelfLoopIsCycle) {
    Digraph g(2);
    g.add_edge(0, 0);
    EXPECT_TRUE(has_cycle(g));
}

}  // namespace
}  // namespace sunfloor
