// Tests for the optimized-mesh baseline (Section VIII-E).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "sunfloor/noc/deadlock.h"
#include "sunfloor/noc/evaluation.h"
#include "sunfloor/noc/mesh.h"
#include "sunfloor/spec/benchmarks.h"

namespace sunfloor {
namespace {

TEST(Mesh, RoutesAllFlowsOnD26) {
    const auto spec = make_d26_media();
    Rng rng(1);
    const auto mesh = build_mesh_baseline(spec, rng);
    EXPECT_TRUE(mesh.ok);
    EXPECT_TRUE(mesh.topo.all_flows_routed());
    EXPECT_GT(mesh.grid_w, 0);
    EXPECT_GT(mesh.grid_h, 0);
}

TEST(Mesh, DimensionOrderedRoutingIsDeadlockFree) {
    for (const char* name : {"D_26_media", "D_35_bot", "D_38_tvopd"}) {
        const auto spec = make_benchmark(name);
        Rng rng(2);
        const auto mesh = build_mesh_baseline(spec, rng);
        EXPECT_TRUE(is_routing_deadlock_free(mesh.topo)) << name;
        EXPECT_TRUE(is_message_dependent_deadlock_free(mesh.topo, spec.comm))
            << name;
        EXPECT_TRUE(classes_are_separated(mesh.topo, spec.comm)) << name;
    }
}

TEST(Mesh, UnusedLinksArePruned) {
    // A pipeline uses only neighbouring tiles; the pruned mesh must have
    // far fewer links than the full mesh (4 directed links per tile pair).
    const auto spec = make_d65_pipe();
    Rng rng(3);
    const auto mesh = build_mesh_baseline(spec, rng);
    int s2s_links = 0;
    for (int l = 0; l < mesh.topo.num_links(); ++l) {
        const auto& lk = mesh.topo.link(l);
        if (lk.src.is_switch() && lk.dst.is_switch()) ++s2s_links;
        EXPECT_GT(lk.bw_mbps, 0.0);  // pruning: every link carries traffic
    }
    const int tiles = mesh.grid_w * mesh.grid_h * spec.cores.num_layers();
    EXPECT_LT(s2s_links, 4 * tiles);
}

TEST(Mesh, MeshLatencyIsHopCount) {
    // Mapping quality aside, every flow's zero-load latency equals the
    // number of switches on its path (links are tile-to-tile, short).
    const auto spec = make_d35_bot();
    EvalParams params;
    Rng rng(4);
    const auto mesh = build_mesh_baseline(spec, rng);
    const auto rep = evaluate_topology(mesh.topo, spec, params);
    EXPECT_GE(rep.avg_latency_cycles, 1.0);
    EXPECT_TRUE(rep.all_flows_routed);
}

/// The mapping cost of the anneal's start: each layer's cores, in
/// cores_in_layer order, on the tiles of a gw-wide grid in row-major
/// order.
double row_major_cost(const DesignSpec& spec, int gw) {
    std::vector<int> tx(static_cast<std::size_t>(spec.cores.num_cores()));
    std::vector<int> ty(tx.size());
    for (int ly = 0; ly < spec.cores.num_layers(); ++ly) {
        int slot = 0;
        for (const int id : spec.cores.cores_in_layer(ly)) {
            tx[static_cast<std::size_t>(id)] = slot % gw;
            ty[static_cast<std::size_t>(id)] = slot / gw;
            ++slot;
        }
    }
    const double penalty_unit =
        kMeshLatencyPenalty * std::max(spec.comm.total_bw(), 1.0);
    double cost = 0.0;
    for (const auto& f : spec.comm.flows()) {
        const auto s = static_cast<std::size_t>(f.src);
        const auto d = static_cast<std::size_t>(f.dst);
        const int h = std::abs(tx[s] - tx[d]) + std::abs(ty[s] - ty[d]) +
                      std::abs(spec.cores.core(f.src).layer -
                               spec.cores.core(f.dst).layer);
        cost += f.bw_mbps * (h + 1);
        if (f.max_latency_cycles > 0.0 && h + 1 > f.max_latency_cycles)
            cost += penalty_unit * (h + 1 - f.max_latency_cycles);
    }
    return cost;
}

TEST(Mesh, AnnealingImprovesMapping) {
    const auto spec = make_d36(4);
    Rng rng(5);
    const auto mesh = build_mesh_baseline(spec, rng);
    EXPECT_LT(mesh.map_cost, row_major_cost(spec, mesh.grid_w));
}

TEST(Mesh, CustomBeatsMeshOnPower) {
    // The headline of Fig. 23: custom topologies use much less power than
    // the optimized mesh. Verified end-to-end in integration_test; here we
    // only check the mesh side produces a finite sane number.
    const auto spec = make_d26_media();
    EvalParams params;
    Rng rng(6);
    const auto mesh = build_mesh_baseline(spec, rng);
    const auto rep = evaluate_topology(mesh.topo, spec, params);
    EXPECT_GT(rep.power.noc_mw(), 0.0);
    EXPECT_LT(rep.power.noc_mw(), 5000.0);
}

}  // namespace
}  // namespace sunfloor
