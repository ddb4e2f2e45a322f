// Checks on floorplans the product made: the annealed input placements
// and the legalized NoC blocks must not overlap, and annealing must keep
// every layer's core area.
#pragma once

#include <vector>

#include "sunfloor/spec/core_spec.h"
#include "sunfloor/util/geometry.h"

namespace sunfloor::oracle {

/// True when no two cores on the same layer overlap.
bool placement_is_legal(const CoreSpec& cores);

/// Sum of core areas on a layer (mm2).
double layer_area(const CoreSpec& cores, int layer);

/// Total pairwise overlap area of a set of rectangles (0 for a legal
/// floorplan). Quadratic.
double total_overlap(const std::vector<Rect>& rects);

}  // namespace sunfloor::oracle
