#include "sunfloor/sim/sim_index.h"

#include <cstdio>

#include "sunfloor/routing/route_sets.h"

namespace sunfloor::sim {

namespace {

void append_int(std::string& s, long long v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld,", v);
    s += buf;
}

int node_switch(const NodeRef& n) { return n.is_switch() ? n.index : -1; }

}  // namespace

std::string sim_index_key(const Topology& topo, const DesignSpec& spec,
                          const EvalParams& eval,
                          routing::RoutingPolicyId routing) {
    // Every input the build consumes, serialized flat: the policy, the
    // link graph with per-link pipeline depths (eval enters only through
    // them), the baked paths, flow classes, and switch layers (the only
    // switch attribute a policy may read — see routing::SwitchView).
    std::string key = "simidx1:";
    append_int(key, static_cast<int>(routing));
    append_int(key, topo.num_links());
    append_int(key, topo.num_switches());
    append_int(key, topo.num_flows());
    for (int l = 0; l < topo.num_links(); ++l) {
        const NocLink& lk = topo.link(l);
        append_int(key, lk.src.is_switch() ? lk.src.index
                                           : ~lk.src.index);
        append_int(key, lk.dst.is_switch() ? lk.dst.index
                                           : ~lk.dst.index);
        append_int(key, static_cast<int>(lk.cls));
        append_int(key,
                   WireModel::pipeline_stages(topo.link_planar_length(l),
                                              eval.freq_hz));
    }
    key += ';';
    for (int f = 0; f < topo.num_flows(); ++f) {
        append_int(key, static_cast<int>(spec.comm.flow(f).type));
        for (int l : topo.flow_path(f)) append_int(key, l);
        key += ';';
    }
    for (int s = 0; s < topo.num_switches(); ++s)
        append_int(key, topo.switch_at(s).layer);
    return key;
}

SimIndex build_sim_index(const Topology& topo, const DesignSpec& spec,
                         const EvalParams& eval,
                         routing::RoutingPolicyId routing) {
    SimIndex idx;
    idx.routing = routing;
    const int L = topo.num_links();
    const int nsw = topo.num_switches();
    const int F = topo.num_flows();
    idx.num_links = L;
    idx.num_switches = nsw;
    idx.num_flows = F;
    idx.all_flows_routed = topo.all_flows_routed();

    idx.extra.resize(static_cast<std::size_t>(L));
    idx.into_switch.resize(static_cast<std::size_t>(L));
    idx.src_is_core.resize(static_cast<std::size_t>(L));
    idx.src_switch.resize(static_cast<std::size_t>(L));
    idx.dst_switch.resize(static_cast<std::size_t>(L));
    for (int l = 0; l < L; ++l) {
        const auto ul = static_cast<std::size_t>(l);
        const NocLink& lk = topo.link(l);
        idx.extra[ul] = WireModel::pipeline_stages(
                            topo.link_planar_length(l), eval.freq_hz) -
                        1;
        idx.into_switch[ul] = lk.dst.is_switch() ? 1 : 0;
        idx.src_is_core[ul] = lk.src.is_core() ? 1 : 0;
        idx.src_switch[ul] = node_switch(lk.src);
        idx.dst_switch[ul] = node_switch(lk.dst);
    }

    idx.path_off.reserve(static_cast<std::size_t>(F) + 1);
    idx.path_off.push_back(0);
    for (int f = 0; f < F; ++f) {
        const auto& path = topo.flow_path(f);
        idx.path_link.insert(idx.path_link.end(), path.begin(), path.end());
        idx.path_off.push_back(static_cast<int>(idx.path_link.size()));
    }

    // Port CSRs: link ids ascend within each switch because the outer
    // scan does — the engine's arbitration and active-set orders rely on
    // that (they must match the old per-switch push_back order).
    std::vector<int> in_count(static_cast<std::size_t>(nsw) + 1, 0);
    std::vector<int> out_count(static_cast<std::size_t>(nsw) + 1, 0);
    for (int l = 0; l < L; ++l) {
        const NocLink& lk = topo.link(l);
        if (lk.dst.is_switch()) ++in_count[static_cast<std::size_t>(lk.dst.index) + 1];
        if (lk.src.is_switch()) ++out_count[static_cast<std::size_t>(lk.src.index) + 1];
    }
    for (int s = 0; s < nsw; ++s) {
        in_count[static_cast<std::size_t>(s) + 1] +=
            in_count[static_cast<std::size_t>(s)];
        out_count[static_cast<std::size_t>(s) + 1] +=
            out_count[static_cast<std::size_t>(s)];
    }
    idx.sw_in_off = in_count;
    idx.sw_out_off = out_count;
    idx.sw_in_link.resize(static_cast<std::size_t>(idx.sw_in_off[static_cast<std::size_t>(nsw)]));
    idx.sw_out_link.resize(static_cast<std::size_t>(idx.sw_out_off[static_cast<std::size_t>(nsw)]));
    idx.port_pos.assign(static_cast<std::size_t>(L), -1);
    for (int l = 0; l < L; ++l) {
        const NocLink& lk = topo.link(l);
        if (lk.dst.is_switch()) {
            const auto sw = static_cast<std::size_t>(lk.dst.index);
            idx.port_pos[static_cast<std::size_t>(l)] =
                in_count[sw] - idx.sw_in_off[sw];
            idx.sw_in_link[static_cast<std::size_t>(in_count[sw]++)] = l;
        }
        if (lk.src.is_switch())
            idx.sw_out_link[static_cast<std::size_t>(
                out_count[static_cast<std::size_t>(lk.src.index)]++)] = l;
    }

    const routing::RoutingPolicy& policy = routing::routing_policy(routing);
    if (policy.adaptive_in_sim()) {
        routing::RouteSetsCsr csr =
            routing::build_route_sets(topo, spec, policy).export_csr(nsw);
        idx.adaptive = csr.adaptive;
        idx.num_states = csr.num_states;
        idx.initial_state = csr.initial_state;
        idx.opt_off = std::move(csr.opt_off);
        idx.opt_link = std::move(csr.opt_link);
        idx.opt_state = std::move(csr.opt_state);
        idx.baked = std::move(csr.baked);
    }
    return idx;
}

}  // namespace sunfloor::sim
