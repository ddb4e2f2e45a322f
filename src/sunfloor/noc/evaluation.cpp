#include "sunfloor/noc/evaluation.h"

#include <algorithm>

namespace sunfloor {

double flow_latency(const Topology& topo, int flow_id, const EvalParams& p) {
    const auto& path = topo.flow_path(flow_id);
    double cycles = 0.0;
    for (int l : path) {
        if (topo.link(l).dst.is_switch()) cycles += 1.0;  // switch traversal
        const int stages =
            WireModel::pipeline_stages(topo.link_planar_length(l), p.freq_hz);
        cycles += stages - 1;  // extra stages on pipelined long links
    }
    return cycles;
}

EvalReport evaluate_topology(const Topology& topo, const DesignSpec& spec,
                             const EvalParams& p) {
    EvalReport rep;
    rep.all_flows_routed = topo.all_flows_routed();
    const NocLibrary lib(p.flit_width_bits);
    const WireModel wire(p.flit_width_bits);

    // --- switch power and area -------------------------------------------
    for (int s = 0; s < topo.num_switches(); ++s) {
        const int in = topo.switch_in_degree(s);
        const int out = topo.switch_out_degree(s);
        if (in == 0 && out == 0) continue;  // unused switch, pruned
        rep.power.switch_mw +=
            lib.switch_power_mw(in, out, p.freq_hz, topo.switch_through_bw(s));
        rep.switch_area_mm2 += lib.switch_area_mm2(in, out);
    }

    // --- link power, wire lengths, TSVs ------------------------------------
    for (int l = 0; l < topo.num_links(); ++l) {
        const auto& lk = topo.link(l);
        const double planar = topo.link_planar_length(l);
        const int crossed = topo.link_layers_crossed(l);
        const double flits = lib.flits_per_second(lk.bw_mbps);
        double mw = wire.power_mw(planar, flits, p.freq_hz);
        if (crossed > 0) {
            mw += TsvModel::power_mw(flits, crossed);
            rep.total_tsvs +=
                crossed * TsvModel::tsvs_per_link(p.flit_width_bits);
            rep.tsv_macro_area_mm2 +=
                crossed * TsvModel::macro_area_mm2(p.flit_width_bits);
        }
        if (lk.src.is_switch() && lk.dst.is_switch())
            rep.power.s2s_link_mw += mw;
        else
            rep.power.c2s_link_mw += mw;
        rep.wire_lengths_mm.push_back(planar);
    }

    // --- NI power and area ---------------------------------------------------
    // One NI per core that communicates; its traffic is everything the core
    // sends plus everything it receives.
    std::vector<double> core_bw(static_cast<std::size_t>(topo.num_cores()),
                                0.0);
    std::vector<char> core_used(static_cast<std::size_t>(topo.num_cores()), 0);
    for (const auto& f : spec.comm.flows()) {
        core_bw[static_cast<std::size_t>(f.src)] += f.bw_mbps;
        core_bw[static_cast<std::size_t>(f.dst)] += f.bw_mbps;
        core_used[static_cast<std::size_t>(f.src)] = 1;
        core_used[static_cast<std::size_t>(f.dst)] = 1;
    }
    for (int c = 0; c < topo.num_cores(); ++c) {
        if (!core_used[static_cast<std::size_t>(c)]) continue;
        rep.power.ni_mw +=
            lib.ni_power_mw(p.freq_hz, core_bw[static_cast<std::size_t>(c)]);
        rep.ni_area_mm2 += kNiAreaMm2;
    }

    // --- latency -----------------------------------------------------------
    rep.flow_latency_cycles.assign(
        static_cast<std::size_t>(topo.num_flows()), -1.0);
    double lat_sum = 0.0;
    int routed = 0;
    for (int f = 0; f < topo.num_flows(); ++f) {
        if (!topo.has_path(f)) continue;
        const double lat = flow_latency(topo, f, p);
        rep.flow_latency_cycles[static_cast<std::size_t>(f)] = lat;
        lat_sum += lat;
        ++routed;
        rep.max_latency_cycles = std::max(rep.max_latency_cycles, lat);
        const double constraint = spec.comm.flow(f).max_latency_cycles;
        if (constraint > 0.0 && lat > constraint) ++rep.latency_violations;
    }
    rep.avg_latency_cycles = routed > 0 ? lat_sum / routed : 0.0;

    rep.max_ill_used = topo.max_ill_used(spec.cores.num_layers());
    return rep;
}

}  // namespace sunfloor
