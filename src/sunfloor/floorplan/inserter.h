// Custom NoC-insertion floorplanning routine (Section VII).
//
// After the LP computes ideal switch positions, the switches (and TSV
// macros) must be legalized into the existing core floorplan. The paper's
// routine, reproduced here: consider one component at a time, look for free
// space near its ideal location; if none exists, displace already placed
// blocks in the x or y direction by the size of the component and
// iteratively push any block the displacement overlaps, always in the same
// direction. Later components re-use gaps created by earlier ones. The
// routine runs one configuration, the constants below.
#pragma once

#include <vector>

#include "sunfloor/util/geometry.h"

namespace sunfloor {

/// A NoC component to insert into a layer's floorplan.
struct InsertBlock {
    double w = 0.0;
    double h = 0.0;
    Point ideal{};  ///< desired center (from the switch-position LP)
};

/// Grid step of the free-space spiral search, as a fraction of the
/// component's smaller side.
inline constexpr double kInsertGridStepRatio = 0.5;
/// Search radius limit as a fraction of the die half-perimeter; large
/// enough to re-use gaps created by earlier insertions ("as more
/// components are placed, they can re-use the gap created by the earlier
/// components").
inline constexpr double kInsertMaxSearchRadiusDieRatio = 0.35;
/// Lower bound on the search radius in multiples of the component's
/// larger side (matters for tiny dies).
inline constexpr double kInsertMinSearchRadiusRatio = 3.0;
/// Trade-off when choosing between the nearest free space (deviation from
/// the ideal, no die growth) and displacement at the exact ideal (no
/// deviation, die growth): mm2 of die area one mm of deviation is worth.
inline constexpr double kInsertDeviationCostMm2PerMm = 2.0;

struct InsertionResult {
    /// Final positions of the pre-existing blocks (same order as input);
    /// they move only when displacement was needed.
    std::vector<Rect> fixed_rects;
    /// Final rectangles of the inserted components (same order as input).
    std::vector<Rect> inserted_rects;
    double die_width = 0.0;
    double die_height = 0.0;
    /// Total Manhattan distance pre-existing blocks were displaced.
    double total_displacement = 0.0;
    /// Total distance between inserted components' centers and ideals.
    double total_deviation = 0.0;

    double die_area() const { return die_width * die_height; }
};

/// Legalize `blocks` into the floorplan `fixed`. Always succeeds (the die
/// grows as needed). All rectangles belong to a single 3-D layer.
InsertionResult insert_blocks_custom(const std::vector<Rect>& fixed,
                                     const std::vector<InsertBlock>& blocks);

}  // namespace sunfloor
