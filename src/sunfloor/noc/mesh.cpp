#include "sunfloor/noc/mesh.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <tuple>

#include "sunfloor/util/strings.h"

namespace sunfloor {

namespace {

struct Tile {
    int x = 0;
    int y = 0;
    int layer = 0;
};

// Grid-hop distance under X-Y-Z dimension-ordered routing.
int hops(const Tile& a, const Tile& b) {
    return std::abs(a.x - b.x) + std::abs(a.y - b.y) +
           std::abs(a.layer - b.layer);
}

// Mapping state: tile index per core (tile index = x + y*gw within a
// layer). Empty tiles hold -1 in tile_core.
struct Mapping {
    int gw = 0;
    int gh = 0;
    int layers = 0;
    std::vector<int> core_tile;  ///< global tile id per core
    std::vector<int> tile_core;  ///< core id per global tile, -1 if empty

    int tile_id(int x, int y, int layer) const {
        return layer * gw * gh + y * gw + x;
    }
    Tile tile_of(int id) const {
        const int per_layer = gw * gh;
        return {id % per_layer % gw, id % per_layer / gw, id / per_layer};
    }
};

double mapping_cost(const Mapping& m, const DesignSpec& spec) {
    double cost = 0.0;
    const double penalty_unit =
        kMeshLatencyPenalty * std::max(spec.comm.total_bw(), 1.0);
    for (const auto& f : spec.comm.flows()) {
        const Tile a = m.tile_of(m.core_tile[static_cast<std::size_t>(f.src)]);
        const Tile b = m.tile_of(m.core_tile[static_cast<std::size_t>(f.dst)]);
        const int h = hops(a, b);
        cost += f.bw_mbps * (h + 1);  // h+1 switch traversals
        // Zero-load latency in the mesh is one cycle per switch.
        if (f.max_latency_cycles > 0.0 && h + 1 > f.max_latency_cycles)
            cost += penalty_unit * (h + 1 - f.max_latency_cycles);
    }
    return cost;
}

}  // namespace

MeshResult build_mesh_baseline(const DesignSpec& spec, Rng& rng) {
    const int num_cores = spec.cores.num_cores();
    const int layers = std::max(1, spec.cores.num_layers());
    if (num_cores == 0)
        throw std::invalid_argument("build_mesh_baseline: empty design");

    // Shared grid sized for the most populated layer.
    int max_per_layer = 0;
    for (int ly = 0; ly < layers; ++ly)
        max_per_layer = std::max(
            max_per_layer,
            static_cast<int>(spec.cores.cores_in_layer(ly).size()));
    const int gw =
        static_cast<int>(std::ceil(std::sqrt(static_cast<double>(max_per_layer))));
    const int gh = (max_per_layer + gw - 1) / gw;

    Mapping m;
    m.gw = gw;
    m.gh = gh;
    m.layers = layers;
    m.core_tile.assign(static_cast<std::size_t>(num_cores), -1);
    m.tile_core.assign(static_cast<std::size_t>(gw * gh * layers), -1);

    // Initial mapping: row-major per layer.
    for (int ly = 0; ly < layers; ++ly) {
        const auto ids = spec.cores.cores_in_layer(ly);
        int slot = 0;
        for (int id : ids) {
            const int t = m.tile_id(slot % gw, slot / gw, ly);
            m.core_tile[static_cast<std::size_t>(id)] = t;
            m.tile_core[static_cast<std::size_t>(t)] = id;
            ++slot;
        }
    }

    // --- SA over per-layer tile assignments --------------------------------
    double cost = mapping_cost(m, spec);
    double temp = std::max(cost * kMeshInitialTempRatio, 1e-9);
    const double t_final = temp * kMeshFinalTempRatio;
    const int moves_per_temp = kMeshMovesPerCore * num_cores;
    Mapping best = m;
    double best_cost = cost;
    while (temp > t_final) {
        for (int mv = 0; mv < moves_per_temp; ++mv) {
            // Pick a random core and a random tile in its layer (occupied
            // or empty) and swap.
            const int core =
                static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_cores)));
            const int ly = spec.cores.core(core).layer;
            const int t_new = m.tile_id(rng.next_int(0, gw - 1),
                                        rng.next_int(0, gh - 1), ly);
            const int t_old = m.core_tile[static_cast<std::size_t>(core)];
            if (t_new == t_old) continue;
            const int other = m.tile_core[static_cast<std::size_t>(t_new)];

            auto apply = [&](Mapping& mm) {
                mm.core_tile[static_cast<std::size_t>(core)] = t_new;
                mm.tile_core[static_cast<std::size_t>(t_new)] = core;
                mm.tile_core[static_cast<std::size_t>(t_old)] = other;
                if (other >= 0)
                    mm.core_tile[static_cast<std::size_t>(other)] = t_old;
            };
            apply(m);
            const double cand = mapping_cost(m, spec);
            const double delta = cand - cost;
            if (delta <= 0.0 || rng.next_double() < std::exp(-delta / temp)) {
                cost = cand;
                if (cost < best_cost) {
                    best_cost = cost;
                    best = m;
                }
            } else {
                // Revert.
                m.core_tile[static_cast<std::size_t>(core)] = t_old;
                m.tile_core[static_cast<std::size_t>(t_old)] = core;
                m.tile_core[static_cast<std::size_t>(t_new)] = other;
                if (other >= 0)
                    m.core_tile[static_cast<std::size_t>(other)] = t_new;
            }
        }
        temp *= kMeshCooling;
    }
    m = best;

    // --- physical tile geometry --------------------------------------------
    double die_w = 0.0;
    double die_h = 0.0;
    for (int ly = 0; ly < layers; ++ly) {
        const Rect bb = spec.cores.layer_bounding_box(ly);
        die_w = std::max(die_w, bb.right());
        die_h = std::max(die_h, bb.top());
    }
    const double cw = die_w / gw;
    const double ch = die_h / gh;

    // --- route abstractly, recording used tiles/links ----------------------
    // Directed tile-to-tile edges keyed by (from_tile, to_tile, class);
    // request and response traffic ride separate physical channels exactly
    // as in the synthesized topologies, so the comparison is apples to
    // apples.
    std::map<std::tuple<int, int, int>, int> used_edges;  // -> link id
    std::vector<std::vector<int>> flow_tiles(
        static_cast<std::size_t>(spec.comm.num_flows()));
    for (int f = 0; f < spec.comm.num_flows(); ++f) {
        const auto& flow = spec.comm.flow(f);
        Tile a = m.tile_of(m.core_tile[static_cast<std::size_t>(flow.src)]);
        const Tile b = m.tile_of(m.core_tile[static_cast<std::size_t>(flow.dst)]);
        auto& tiles = flow_tiles[static_cast<std::size_t>(f)];
        tiles.push_back(m.tile_id(a.x, a.y, a.layer));
        while (a.x != b.x) {
            a.x += a.x < b.x ? 1 : -1;
            tiles.push_back(m.tile_id(a.x, a.y, a.layer));
        }
        while (a.y != b.y) {
            a.y += a.y < b.y ? 1 : -1;
            tiles.push_back(m.tile_id(a.x, a.y, a.layer));
        }
        while (a.layer != b.layer) {
            a.layer += a.layer < b.layer ? 1 : -1;
            tiles.push_back(m.tile_id(a.x, a.y, a.layer));
        }
        const int cls = static_cast<int>(flow.type);
        for (std::size_t i = 0; i + 1 < tiles.size(); ++i)
            used_edges[{tiles[i], tiles[i + 1], cls}] = -1;
    }

    // --- build the pruned topology -----------------------------------------
    MeshResult result{Topology(spec.cores, spec.comm.num_flows()), gw, gh,
                      best_cost, false};
    Topology& topo = result.topo;

    // Switches only for tiles that host a core or carry traffic.
    std::vector<int> tile_switch(m.tile_core.size(), -1);
    auto ensure_switch = [&](int tile) {
        if (tile_switch[static_cast<std::size_t>(tile)] >= 0)
            return tile_switch[static_cast<std::size_t>(tile)];
        const Tile t = m.tile_of(tile);
        const Point pos{(t.x + 0.5) * cw, (t.y + 0.5) * ch};
        const int sw = topo.add_switch(
            format("mesh_%d_%d_L%d", t.x, t.y, t.layer), t.layer, pos);
        tile_switch[static_cast<std::size_t>(tile)] = sw;
        return sw;
    };
    for (int c = 0; c < num_cores; ++c)
        ensure_switch(m.core_tile[static_cast<std::size_t>(c)]);
    for (auto& [key, link_id] : used_edges) {
        const int sa = ensure_switch(std::get<0>(key));
        const int sb = ensure_switch(std::get<1>(key));
        link_id = topo.add_link(NodeRef::sw(sa), NodeRef::sw(sb),
                                static_cast<FlowType>(std::get<2>(key)));
    }

    // Assign the flow paths.
    bool all_ok = true;
    for (int f = 0; f < spec.comm.num_flows(); ++f) {
        const auto& flow = spec.comm.flow(f);
        const auto& tiles = flow_tiles[static_cast<std::size_t>(f)];
        std::vector<int> links;
        const int first_sw =
            tile_switch[static_cast<std::size_t>(tiles.front())];
        links.push_back(topo.add_link(NodeRef::core(flow.src),
                                      NodeRef::sw(first_sw), flow.type));
        const int cls = static_cast<int>(flow.type);
        for (std::size_t i = 0; i + 1 < tiles.size(); ++i)
            links.push_back(used_edges.at({tiles[i], tiles[i + 1], cls}));
        const int last_sw = tile_switch[static_cast<std::size_t>(tiles.back())];
        links.push_back(topo.add_link(NodeRef::sw(last_sw),
                                      NodeRef::core(flow.dst), flow.type));
        topo.set_flow_path(f, flow, links);
    }
    result.ok = all_ok && topo.all_flows_routed();
    return result;
}

}  // namespace sunfloor
