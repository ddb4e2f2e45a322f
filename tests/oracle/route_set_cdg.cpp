#include "oracle/route_set_cdg.h"

namespace sunfloor::oracle {

using routing::RouteOption;
using routing::RouteSets;

namespace {

/// Route-set continuation edges of one flow: first link into the source
/// switch's options, then every in-option into every out-option of every
/// reachable product node.
void add_flow_edges(const Topology& topo, const RouteSets& routes, int f,
                    Digraph& cdg) {
    const int first = routes.first_link(f);
    if (first < 0) return;
    const int ss = topo.link(first).dst.index;
    const int S = routes.num_states();
    for (const RouteOption& o :
         routes.options(f, ss, routes.initial_state()))
        if (!cdg.find_edge(first, o.link)) cdg.add_edge(first, o.link);
    for (int u = 0; u < topo.num_switches(); ++u) {
        for (int s = 0; s < S; ++s) {
            for (const RouteOption& o : routes.options(f, u, s)) {
                const NodeRef dst = topo.link(o.link).dst;
                if (!dst.is_switch()) continue;  // ejection ends the chain
                for (const RouteOption& o2 :
                     routes.options(f, dst.index, o.next_state))
                    if (!cdg.find_edge(o.link, o2.link))
                        cdg.add_edge(o.link, o2.link);
            }
        }
    }
}

}  // namespace

Digraph build_route_set_cdg(const Topology& topo, const DesignSpec& spec,
                            const RouteSets& routes) {
    (void)spec;
    Digraph cdg(topo.num_links());
    for (int f = 0; f < topo.num_flows(); ++f)
        add_flow_edges(topo, routes, f, cdg);
    return cdg;
}

Digraph build_extended_route_set_cdg(const Topology& topo,
                                     const DesignSpec& spec,
                                     const RouteSets& routes) {
    Digraph cdg = build_route_set_cdg(topo, spec, routes);
    // The same request->response coupling as build_extended_cdg: a
    // request terminating at core c waits on c's ability to emit
    // responses. First/last links are fixed per flow, so the coupling
    // edges are identical for baked paths and route sets.
    const CommSpec& comm = spec.comm;
    for (int rf = 0; rf < comm.num_flows(); ++rf) {
        if (comm.flow(rf).type != FlowType::Request || !topo.has_path(rf))
            continue;
        const int dst_core = comm.flow(rf).dst;
        const int last_link = topo.flow_path(rf).back();
        for (int sf = 0; sf < comm.num_flows(); ++sf) {
            if (comm.flow(sf).type != FlowType::Response ||
                !topo.has_path(sf))
                continue;
            if (comm.flow(sf).src != dst_core) continue;
            const int first_link = topo.flow_path(sf).front();
            if (!cdg.find_edge(last_link, first_link))
                cdg.add_edge(last_link, first_link);
        }
    }
    return cdg;
}

}  // namespace sunfloor::oracle
