// Admissible route sets of a routed topology under one RoutingPolicy.
//
// The path computation bakes exactly one path per flow, but a policy's
// discipline admits a whole *set* of paths between a flow's source and
// destination switches. RouteSets enumerates, per flow and per
// (switch, automaton-state) product node, every admissible next link that
// can still reach the flow's destination switch over links of the flow's
// message class — the menu the simulator's adaptive output selection
// chooses from each cycle (credit-aware, deterministic tie-break; see
// sim/simulator.h). The baked path is always contained in its flow's
// route set (the build verifies this), so an adaptive packet can never be
// stranded; and because every shipped policy's product graph is acyclic
// (two-phase disciplines over a strict total order), adaptive packets can
// never livelock either.
//
// Deadlock verification of the *enlarged* set lives with the tests
// (tests/oracle/route_set_cdg.h): property tests project every admissible
// consecutive-link pair of every flow into a channel dependency graph and
// check it stays acyclic on every benchmark for every policy, so adaptive
// in-network choices are covered by the same Dally/Seitz argument as the
// baked paths.
#pragma once

#include <vector>

#include "sunfloor/noc/topology.h"
#include "sunfloor/routing/policy.h"
#include "sunfloor/spec/parser.h"

namespace sunfloor::routing {

/// One admissible hop: take `link`, continue in `next_state`.
struct RouteOption {
    int link = -1;
    int next_state = 0;
};

/// Flat CSR rendering of a RouteSets table, for consumers that walk
/// options on a hot path (the simulator's SimIndex). Product nodes are
/// indexed n = (flow * num_switches + sw) * num_states + state; the
/// options of node n are opt_link/opt_state[opt_off[n] .. opt_off[n+1]),
/// in the same ascending-link order as RouteSets::options().
struct RouteSetsCsr {
    int num_states = 1;
    int initial_state = 0;
    bool adaptive = false;
    std::vector<int> opt_off;    ///< size F * nsw * num_states + 1
    std::vector<int> opt_link;   ///< admissible link per option
    std::vector<int> opt_state;  ///< matching next automaton state
    std::vector<int> baked;      ///< per product node: baked link or -1
    std::vector<int> first;      ///< per flow: first core->switch link or -1
};

class RouteSets {
  public:
    int num_states() const { return num_states_; }
    int initial_state() const { return initial_state_; }

    /// Admissible outgoing links of `flow` at (switch, state), sorted by
    /// link id. At the flow's destination switch this is exactly the final
    /// ejection link; empty for unrouted flows or unreachable states.
    const std::vector<RouteOption>& options(int flow, int sw,
                                            int state) const;

    /// The first (core->switch) link of `flow`; -1 for unrouted flows.
    int first_link(int flow) const {
        return firsts_.at(static_cast<std::size_t>(flow));
    }

    /// Flatten the whole table into contiguous CSR arrays. RouteSets does
    /// not retain the switch count it was built for, so the caller passes
    /// it back in (unrouted flows carry empty per-flow tables, which
    /// could not disambiguate it).
    RouteSetsCsr export_csr(int num_switches) const;

  private:
    friend RouteSets build_route_sets(const Topology& topo,
                                      const DesignSpec& spec,
                                      const RoutingPolicy& policy);

    std::size_t node(int sw, int state) const {
        return static_cast<std::size_t>(sw) * num_states_ + state;
    }

    int num_states_ = 1;
    int initial_state_ = 0;
    bool adaptive_ = false;
    /// options_[flow][sw * num_states_ + state]
    std::vector<std::vector<std::vector<RouteOption>>> options_;
    /// baked_[flow][sw * num_states_ + state] = link id or -1; exported
    /// as RouteSetsCsr::baked, the simulator's tie-break.
    std::vector<std::vector<int>> baked_;
    std::vector<int> firsts_;
};

/// Enumerate the admissible route set of every routed flow of `topo`
/// under `policy`. Throws std::logic_error if a flow's baked path is not
/// contained in its own route set (a policy impurity — e.g. a discipline
/// reading mutable switch attributes).
RouteSets build_route_sets(const Topology& topo, const DesignSpec& spec,
                           const RoutingPolicy& policy);

}  // namespace sunfloor::routing
