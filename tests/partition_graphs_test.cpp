// Tests for PG / SPG / LPG construction (Definitions 3-5, Eq. 1).
#include <gtest/gtest.h>

#include "sunfloor/core/partition_graphs.h"
#include "sunfloor/util/strings.h"

namespace sunfloor {
namespace {

TEST(PgWeight, Formula) {
    // h = alpha * bw/max_bw + (1-alpha) * min_lat/lat.
    EXPECT_DOUBLE_EQ(pg_edge_weight(50, 10, 100, 5, 1.0), 0.5);
    EXPECT_DOUBLE_EQ(pg_edge_weight(50, 10, 100, 5, 0.0), 0.5);
    EXPECT_DOUBLE_EQ(pg_edge_weight(50, 10, 100, 5, 0.5), 0.5);
    // Unconstrained latency contributes nothing.
    EXPECT_DOUBLE_EQ(pg_edge_weight(50, 0, 100, 5, 0.5), 0.25);
}

TEST(Pg, BuildFromCommSpec) {
    CommSpec comm;
    comm.add_flow({0, 1, 100, 4, FlowType::Request});
    comm.add_flow({1, 2, 50, 8, FlowType::Request});
    const Digraph pg = build_partition_graph(comm, 3, 1.0);
    EXPECT_EQ(pg.num_vertices(), 3);
    EXPECT_EQ(pg.num_edges(), 2);
    EXPECT_DOUBLE_EQ(pg.edge(*pg.find_edge(0, 1)).weight, 1.0);
    EXPECT_DOUBLE_EQ(pg.edge(*pg.find_edge(1, 2)).weight, 0.5);
}

TEST(Pg, AlphaBlendsLatency) {
    CommSpec comm;
    comm.add_flow({0, 1, 100, 4, FlowType::Request});   // max bw, min lat
    comm.add_flow({1, 2, 50, 8, FlowType::Request});
    const Digraph pg = build_partition_graph(comm, 3, 0.5);
    // Edge (1,2): 0.5*0.5 + 0.5*(4/8) = 0.5.
    EXPECT_DOUBLE_EQ(pg.edge(*pg.find_edge(1, 2)).weight, 0.5);
    // Edge (0,1): 0.5*1 + 0.5*1 = 1.
    EXPECT_DOUBLE_EQ(pg.edge(*pg.find_edge(0, 1)).weight, 1.0);
}

TEST(Spg, InterLayerEdgesScaledDown) {
    CommSpec comm;
    comm.add_flow({0, 1, 100, 0, FlowType::Request});  // cross-layer
    comm.add_flow({2, 3, 100, 0, FlowType::Request});  // same layer
    const Digraph pg = build_partition_graph(comm, 4, 1.0);
    const std::vector<int> layer{0, 1, 0, 0};
    const double theta = 10.0;
    const Digraph spg = build_scaled_partition_graph(pg, layer, theta, 15.0);
    // Cross-layer edge: 1.0 / (10 * 1) = 0.1.
    EXPECT_NEAR(spg.edge(*spg.find_edge(0, 1)).weight, 0.1, 1e-12);
    // Same-layer PG edge keeps its weight.
    EXPECT_NEAR(spg.edge(*spg.find_edge(2, 3)).weight, 1.0, 1e-12);
}

TEST(Spg, NewSameLayerEdgesBounded) {
    // Eq. 1: new edges weigh theta * max_wt / (10 * theta_max) — at most
    // one tenth of PG's max weight.
    CommSpec comm;
    comm.add_flow({0, 1, 100, 0, FlowType::Request});
    const Digraph pg = build_partition_graph(comm, 4, 1.0);
    const std::vector<int> layer{0, 0, 0, 0};
    for (double theta : {1.0, 7.0, 15.0}) {
        const Digraph spg =
            build_scaled_partition_graph(pg, layer, theta, 15.0);
        const auto e23 = spg.find_edge(2, 3);
        ASSERT_TRUE(e23.has_value()) << "theta " << theta;
        const double expected = theta * 1.0 / (10.0 * 15.0);
        EXPECT_NEAR(spg.edge(*e23).weight, expected, 1e-12);
        EXPECT_LE(spg.edge(*e23).weight, 0.1 + 1e-12);
    }
}

TEST(Spg, NoNewEdgesAcrossLayers) {
    CommSpec comm;
    comm.add_flow({0, 1, 100, 0, FlowType::Request});
    const Digraph pg = build_partition_graph(comm, 4, 1.0);
    const std::vector<int> layer{0, 0, 1, 1};
    const Digraph spg = build_scaled_partition_graph(pg, layer, 10.0, 15.0);
    // 0 and 2 are on different layers, never connected in PG -> no edge.
    EXPECT_FALSE(spg.find_edge(0, 2).has_value());
    EXPECT_FALSE(spg.find_edge(2, 0).has_value());
}

TEST(Lpg, PerLayerSubgraph) {
    CoreSpec cores;
    auto add = [&](const char* n, int layer) {
        Core c;
        c.name = n;
        c.width = 1;
        c.height = 1;
        c.layer = layer;
        cores.add_core(c);
    };
    add("a", 0);
    add("b", 0);
    add("c", 1);
    add("d", 0);
    CommSpec comm;
    comm.add_flow({0, 1, 100, 4, FlowType::Request});  // intra layer 0
    comm.add_flow({0, 2, 200, 4, FlowType::Request});  // inter layer
    const LayerGraph lg = build_layer_partition_graph(comm, cores, 0, 1.0);
    EXPECT_EQ(lg.core_ids, (std::vector<int>{0, 1, 3}));
    // a-b edge present with weight 100/200 = 0.5 (global max_bw = 200).
    EXPECT_NEAR(lg.g.edge(*lg.g.find_edge(0, 1)).weight, 0.5, 1e-12);
}

TEST(Lpg, IsolatedVerticesGetTinyEdges) {
    CoreSpec cores;
    for (int i = 0; i < 3; ++i) {
        Core c;
        c.name = format("c%d", i);
        c.width = 1;
        c.height = 1;
        c.layer = 0;
        cores.add_core(c);
    }
    CommSpec comm;
    comm.add_flow({0, 1, 100, 0, FlowType::Request});
    // Core 2 talks to nobody in this layer: Definition 5 adds low-weight
    // edges so the partitioner can still place it.
    const LayerGraph lg = build_layer_partition_graph(comm, cores, 0, 1.0);
    EXPECT_GT(lg.g.out_degree(2), 0);
    for (int ei : lg.g.out_edges(2))
        EXPECT_LT(lg.g.edge(ei).weight,
                  lg.g.edge(*lg.g.find_edge(0, 1)).weight * 0.01);
}

TEST(Lpg, EmptyLayer) {
    CoreSpec cores;
    Core c;
    c.name = "only";
    c.width = 1;
    c.height = 1;
    c.layer = 0;
    cores.add_core(c);
    CommSpec comm;
    const LayerGraph lg = build_layer_partition_graph(comm, cores, 3, 1.0);
    EXPECT_TRUE(lg.core_ids.empty());
    EXPECT_EQ(lg.g.num_vertices(), 0);
}

}  // namespace
}  // namespace sunfloor
