// Deadlock-freedom analysis.
//
// Section VI: the path computation reuses the methods of [14]/[16] to keep
// both routing and message-dependent deadlock out of the synthesized
// network. This module provides the checks those methods need:
//
//  * Routing deadlock — the channel dependency graph (CDG) has one vertex
//    per physical link and an edge (a, b) whenever some flow's path uses
//    link a immediately followed by link b. Acyclicity of the CDG is the
//    classic Dally/Seitz sufficient condition for deadlock freedom.
//
//  * Message-dependent deadlock — a core that must emit a response can
//    stall the consumption of requests, coupling the two message classes at
//    every destination. We model this with extra edges from the last link
//    of each request path into the first link of every response path
//    leaving the request's destination core. Acyclicity of this extended
//    CDG rules out request/response coupling cycles (the resource-class
//    separation argument of [14]).
#pragma once

#include "sunfloor/graph/digraph.h"
#include "sunfloor/noc/topology.h"
#include "sunfloor/spec/comm_spec.h"

namespace sunfloor {

/// CDG over the routed flows only (vertices = link ids).
Digraph build_cdg(const Topology& topo);

/// True when every flow is routed only over links of its own message
/// class — the resource-separation invariant the synthesis flow maintains.
/// Together with per-class CDG acyclicity this implies the extended CDG is
/// acyclic (responses are consumed at sinks and never wait on requests).
bool classes_are_separated(const Topology& topo, const CommSpec& comm);

/// Extended CDG including the request->response coupling edges described
/// above. `comm` supplies the flow classes.
Digraph build_extended_cdg(const Topology& topo, const CommSpec& comm);

/// True when the CDG of the routed paths is acyclic.
bool is_routing_deadlock_free(const Topology& topo);

/// True when the extended CDG is acyclic (implies routing freedom as the
/// extended graph contains the plain CDG).
bool is_message_dependent_deadlock_free(const Topology& topo,
                                        const CommSpec& comm);

}  // namespace sunfloor
