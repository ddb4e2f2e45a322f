// One-time CSR flattening of everything the flit simulator's cycle loop
// reads.
//
// The pre-rewrite engine chased pointers on its hot path: every head
// flit looked its next link up through topo.flow_path(f) (a
// vector-of-vectors), every arbitration pass walked a per-switch
// std::vector of input ports, and adaptive runs indirected through
// RouteSets::options() (three vector layers deep) once per waiting head
// per cycle. SimIndex performs all of those lookups once, up front, and
// stores the results as contiguous offset+data (CSR) arrays the engine
// indexes directly:
//
//  * per-link attributes — pipeline extra stages, endpoint kinds and
//    switch indices — as flat parallel arrays;
//  * flow paths as path_off/path_link (flow f's links are
//    path_link[path_off[f] .. path_off[f+1]), in hop order, so "the
//    link at hop h" is one indexed load);
//  * per-switch input and output port lists as sw_in_*/sw_out_* CSR,
//    ascending link id (the arbitration and active-set orders);
//  * for adaptive policies, the verified route sets of
//    routing/route_sets.h re-exported as flat option/baked tables over
//    (flow, switch, automaton-state) product nodes. Building them runs
//    build_route_sets' baked-path containment check, so constructing a
//    SimIndex for an adaptive policy *validates* that the requested
//    policy matches the discipline the topology was routed with.
//
// A SimIndex is immutable after construction and holds no references to
// the Topology it was built from, so it can be shared freely: across
// the rate points of a sweep (sunfloor_cli simulate, the throughput
// bench) and across the parallel simulation jobs of the explore backend
// (which caches indexes by sim_index_key, see explore/explorer.cpp). The
// simulator engine reads only the index.
#pragma once

#include <string>
#include <vector>

#include "sunfloor/noc/evaluation.h"
#include "sunfloor/noc/topology.h"
#include "sunfloor/routing/policy.h"
#include "sunfloor/spec/parser.h"

namespace sunfloor::sim {

struct SimIndex {
    routing::RoutingPolicyId routing = routing::RoutingPolicyId::UpDown;
    int num_links = 0;
    int num_switches = 0;
    int num_flows = 0;
    bool all_flows_routed = false;

    /// True when `routing` selects outputs per hop in the simulator; the
    /// opt_*/baked tables below are populated exactly in this case.
    bool adaptive = false;

    // --- per-link attributes (parallel arrays, indexed by link id) ------
    std::vector<int> extra;                  ///< pipeline_stages - 1
    std::vector<unsigned char> into_switch;  ///< dst is a switch
    std::vector<unsigned char> src_is_core;  ///< src is a core NI
    std::vector<int> src_switch;             ///< src switch id, -1 for cores
    std::vector<int> dst_switch;             ///< dst switch id, -1 for cores

    // --- flow paths (CSR; empty range = unrouted flow) -------------------
    std::vector<int> path_off;  ///< size num_flows + 1
    std::vector<int> path_link;

    // --- switch port lists (CSR, ascending link id) ----------------------
    std::vector<int> sw_in_off;  ///< size num_switches + 1
    std::vector<int> sw_in_link;
    std::vector<int> sw_out_off;  ///< size num_switches + 1
    std::vector<int> sw_out_link;
    /// Per link: its position within its dst switch's input list (the
    /// round-robin arbiter's port number); -1 for links into cores.
    std::vector<int> port_pos;

    // --- adaptive route sets (see routing::RouteSetsCsr) -----------------
    // Product nodes: n = (flow * num_switches + sw) * num_states + state.
    int num_states = 1;
    int initial_state = 0;
    std::vector<int> opt_off;    ///< size F * nsw * num_states + 1
    std::vector<int> opt_link;
    std::vector<int> opt_state;
    std::vector<int> baked;      ///< baked next link per node, or -1
};

/// Content key of the index build_sim_index would produce, over every
/// input the build consumes: equal keys mean the index (and hence any
/// simulation driven through it with equal SimParams) is identical.
/// Cheap enough to compute for cache lookups without enumerating route
/// sets.
std::string sim_index_key(const Topology& topo, const DesignSpec& spec,
                          const EvalParams& eval,
                          routing::RoutingPolicyId routing);

/// Flatten `topo` (and, for adaptive `routing`, its verified route sets)
/// for simulation. Throws std::logic_error via build_route_sets when an
/// adaptive policy does not contain the topology's baked paths (i.e. the
/// topology was routed under a different discipline). Unrouted flows are
/// allowed and get empty path ranges — callers that require full routing
/// check `all_flows_routed`.
SimIndex build_sim_index(const Topology& topo, const DesignSpec& spec,
                         const EvalParams& eval,
                         routing::RoutingPolicyId routing);

}  // namespace sunfloor::sim
