// Floorplan export: SVG per layer (the Fig. 15/16-style views).
#pragma once

#include <iosfwd>
#include <string>

#include "sunfloor/noc/topology.h"
#include "sunfloor/spec/parser.h"

namespace sunfloor {

/// Write one layer of the design as SVG: cores as grey boxes, switches as
/// blue boxes at their legalized centers (drawn with their model area).
/// `switch_side_mm` scales the switch glyphs; <=0 derives it from the port
/// counts.
void write_layer_svg(std::ostream& os, const Topology& topo,
                     const DesignSpec& spec, int layer,
                     double switch_side_mm = 0.0);

bool save_layer_svg(const std::string& path, const Topology& topo,
                    const DesignSpec& spec, int layer);

}  // namespace sunfloor
