#include "sunfloor/noc/deadlock.h"

namespace sunfloor {

Digraph build_cdg(const Topology& topo) {
    Digraph cdg(topo.num_links());
    for (int f = 0; f < topo.num_flows(); ++f) {
        if (!topo.has_path(f)) continue;
        const auto& path = topo.flow_path(f);
        for (std::size_t i = 0; i + 1 < path.size(); ++i)
            if (!cdg.find_edge(path[i], path[i + 1]))
                cdg.add_edge(path[i], path[i + 1]);
    }
    return cdg;
}

bool classes_are_separated(const Topology& topo, const CommSpec& comm) {
    for (int f = 0; f < comm.num_flows() && f < topo.num_flows(); ++f) {
        if (!topo.has_path(f)) continue;
        for (int l : topo.flow_path(f))
            if (topo.link(l).cls != comm.flow(f).type) return false;
    }
    return true;
}

Digraph build_extended_cdg(const Topology& topo, const CommSpec& comm) {
    Digraph cdg = build_cdg(topo);
    // Couple the classes at every core: a request terminating at core c
    // waits on c's ability to emit responses, so the request's last link
    // depends on the first link of every response path leaving c.
    for (int rf = 0; rf < comm.num_flows(); ++rf) {
        if (comm.flow(rf).type != FlowType::Request || !topo.has_path(rf))
            continue;
        const int dst_core = comm.flow(rf).dst;
        const int last_link = topo.flow_path(rf).back();
        for (int sf = 0; sf < comm.num_flows(); ++sf) {
            if (comm.flow(sf).type != FlowType::Response || !topo.has_path(sf))
                continue;
            if (comm.flow(sf).src != dst_core) continue;
            const int first_link = topo.flow_path(sf).front();
            if (!cdg.find_edge(last_link, first_link))
                cdg.add_edge(last_link, first_link);
        }
    }
    return cdg;
}

bool is_routing_deadlock_free(const Topology& topo) {
    return !has_cycle(build_cdg(topo));
}

bool is_message_dependent_deadlock_free(const Topology& topo,
                                        const CommSpec& comm) {
    return !has_cycle(build_extended_cdg(topo, comm));
}

}  // namespace sunfloor
