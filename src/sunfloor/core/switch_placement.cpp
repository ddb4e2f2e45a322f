#include "sunfloor/core/switch_placement.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "sunfloor/floorplan/standard_inserter.h"
#include "sunfloor/lp/placement_lp.h"

namespace sunfloor {

PlacementProblem build_switch_placement_problem(const Topology& topo,
                                                const DesignSpec& spec) {
    PlacementProblem p;
    p.num_movable = topo.num_switches();
    p.fixed_points.reserve(static_cast<std::size_t>(spec.cores.num_cores()));
    for (const auto& c : spec.cores.cores())
        p.fixed_points.push_back(c.center());

    // Merge link bandwidths per (switch, peer) pair; request and response
    // channels between the same endpoints pull together.
    std::map<std::pair<int, int>, double> s2c;  // (switch, core) -> bw
    std::map<std::pair<int, int>, double> s2s;  // (min_sw, max_sw) -> bw
    for (int l = 0; l < topo.num_links(); ++l) {
        const auto& lk = topo.link(l);
        const double w = std::max(lk.bw_mbps, 1.0);  // unused links pull weakly
        if (lk.src.is_switch() && lk.dst.is_switch()) {
            const auto key = std::minmax(lk.src.index, lk.dst.index);
            s2s[{key.first, key.second}] += w;
        } else if (lk.src.is_switch()) {
            s2c[{lk.src.index, lk.dst.index}] += w;
        } else {
            s2c[{lk.dst.index, lk.src.index}] += w;
        }
    }
    for (const auto& [key, w] : s2c)
        p.fixed_conns.push_back({key.first, key.second, w});
    for (const auto& [key, w] : s2s)
        p.movable_conns.push_back({key.first, key.second, w});
    return p;
}

PlacementResult solve_switch_placement(const PlacementProblem& p,
                                       bool& lp_ok) {
    PlacementResult r = solve_placement_lp(p);
    lp_ok = r.ok;
    return r;
}

namespace {

// Free-standing TSV macros demanded by the vertical links of `topo`.
std::vector<TsvMacro> collect_tsv_macros(const Topology& topo,
                                         const SynthesisConfig& cfg) {
    std::vector<TsvMacro> all;
    const int flit_bits = cfg.eval.lib.params().flit_width_bits;
    const double area = cfg.eval.tsv.macro_area_mm2(flit_bits);
    for (int l = 0; l < topo.num_links(); ++l) {
        const auto& lk = topo.link(l);
        const int la = topo.node_layer(lk.src);
        const int lb = topo.node_layer(lk.dst);
        if (la == lb) continue;
        const auto macros = tsv_macros_for_link(
            la, topo.node_position(lk.src), lb, topo.node_position(lk.dst),
            area);
        for (const auto& m : macros)
            if (!m.embedded) all.push_back(m);  // embedded live inside ports
    }
    return all;
}

}  // namespace

std::vector<LayerInsertion> layer_insertions(const Topology& topo,
                                             const DesignSpec& spec,
                                             const SynthesisConfig& cfg) {
    const int layers = std::max(1, spec.cores.num_layers());
    std::vector<LayerInsertion> out(static_cast<std::size_t>(layers));
    const auto macros = collect_tsv_macros(topo, cfg);
    for (int ly = 0; ly < layers; ++ly) {
        LayerInsertion& in = out[static_cast<std::size_t>(ly)];
        in.core_ids = spec.cores.cores_in_layer(ly);
        in.fixed.reserve(in.core_ids.size());
        for (int id : in.core_ids)
            in.fixed.push_back(spec.cores.core(id).rect());

        // Switches of this layer (skip unused ones) then TSV macros.
        for (int s = 0; s < topo.num_switches(); ++s) {
            if (topo.switch_at(s).layer != ly) continue;
            const int deg_in = topo.switch_in_degree(s);
            const int deg_out = topo.switch_out_degree(s);
            if (deg_in + deg_out == 0) continue;
            const double area = cfg.eval.lib.switch_area_mm2(deg_in, deg_out);
            const double side = std::sqrt(std::max(area, 1e-6));
            in.blocks.push_back({side, side, topo.switch_at(s).position});
            in.block_switch.push_back(s);
        }
        for (const auto& m : macros) {
            if (m.layer != ly) continue;
            const double side = std::sqrt(std::max(m.area_mm2, 1e-8));
            in.blocks.push_back({side, side, m.preferred});
            in.block_switch.push_back(-1);
        }
    }
    return out;
}

FloorplanOutcome legalize_floorplan(Topology& topo, const DesignSpec& spec,
                                    const SynthesisConfig& cfg,
                                    bool use_standard, Rng& rng) {
    FloorplanOutcome out;
    out.used_standard_inserter = use_standard;
    const auto inputs = layer_insertions(topo, spec, cfg);
    const int layers = static_cast<int>(inputs.size());
    out.layer_area_mm2.assign(static_cast<std::size_t>(layers), 0.0);
    out.layer_core_displacement.assign(static_cast<std::size_t>(layers), 0.0);

    for (int ly = 0; ly < layers; ++ly) {
        const LayerInsertion& in = inputs[static_cast<std::size_t>(ly)];
        out.tsv_macros_placed += static_cast<int>(
            std::count(in.block_switch.begin(), in.block_switch.end(), -1));

        InsertionResult ins;
        if (in.blocks.empty()) {
            ins.fixed_rects = in.fixed;
            const Rect bb = bounding_box(in.fixed);
            ins.die_width = bb.right();
            ins.die_height = bb.top();
        } else if (use_standard) {
            StandardInsertOptions sopts;
            ins = insert_blocks_standard(in.fixed, in.blocks, sopts, rng);
        } else {
            ins = insert_blocks_custom(in.fixed, in.blocks);
        }

        // Write back displaced core geometry and legalized switch centers.
        for (std::size_t i = 0; i < in.core_ids.size(); ++i) {
            const double d = manhattan(
                ins.fixed_rects[i].center(),
                spec.cores.core(in.core_ids[i]).center());
            out.layer_core_displacement[static_cast<std::size_t>(ly)] += d;
            topo.set_core_geometry(in.core_ids[i], ins.fixed_rects[i].center(),
                                   ly);
        }
        for (std::size_t b = 0; b < in.blocks.size(); ++b) {
            const int s = in.block_switch[b];
            if (s >= 0)
                topo.switch_at(s).position = ins.inserted_rects[b].center();
        }
        out.layer_area_mm2[static_cast<std::size_t>(ly)] = ins.die_area();
        out.total_core_displacement +=
            out.layer_core_displacement[static_cast<std::size_t>(ly)];
        out.total_switch_deviation += ins.total_deviation;
    }
    return out;
}

}  // namespace sunfloor
