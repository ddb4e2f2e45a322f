// Graphviz DOT export of synthesized topologies (Figs. 13/14-style views).
#pragma once

#include <iosfwd>
#include <string>

#include "sunfloor/noc/topology.h"
#include "sunfloor/spec/parser.h"

namespace sunfloor {

/// Write the topology as a DOT digraph: one subgraph cluster per 3-D
/// layer, cores as boxes, switches as ellipses, and every link that
/// carries traffic labelled with its MB/s; vertical (inter-layer) links
/// are drawn bold and red, response links dashed (a vertical response
/// link both, in one style attribute). Links with zero traffic are left
/// out.
void write_topology_dot(std::ostream& os, const Topology& topo,
                        const DesignSpec& spec);

/// Convenience: write to file; returns false on I/O failure.
bool save_topology_dot(const std::string& path, const Topology& topo,
                       const DesignSpec& spec);

}  // namespace sunfloor
