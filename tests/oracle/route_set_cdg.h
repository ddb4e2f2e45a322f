// Channel dependency graphs over a policy's whole route set, the
// deadlock argument for adaptive routing. The path computation bakes one
// path per flow, but the simulator may take any admissible next link of
// the flow's route set (routing/route_sets.h). build_route_set_cdg()
// projects every admissible consecutive-link pair of every flow into a
// CDG over physical links — noc/deadlock.h's build_cdg() widened from the
// baked paths to the full adaptive menu — and
// build_extended_route_set_cdg() adds the request->response coupling
// edges of build_extended_cdg(). Property tests require both to stay
// acyclic on every benchmark for every policy.
#pragma once

#include "sunfloor/graph/digraph.h"
#include "sunfloor/routing/route_sets.h"

namespace sunfloor::oracle {

/// CDG (vertices = physical link ids) over every admissible
/// consecutive-link pair of every flow's route set.
Digraph build_route_set_cdg(const Topology& topo, const DesignSpec& spec,
                            const routing::RouteSets& routes);

/// build_route_set_cdg plus the request->response coupling edges of
/// build_extended_cdg (the last link of each request path depends on the
/// first link of every response path leaving the request's destination).
Digraph build_extended_route_set_cdg(const Topology& topo,
                                     const DesignSpec& spec,
                                     const routing::RouteSets& routes);

}  // namespace sunfloor::oracle
