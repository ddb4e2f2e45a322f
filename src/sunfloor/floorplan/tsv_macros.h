// TSV macro generation (Section III).
//
// A vertical link between layer l1 (lower) and l2 (upper) uses the metal
// routing of the bottom layer and punches through the silicon of every
// layer above it: a TSV macro must reserve area on layers l1+1 .. l2. The
// macro on the link's top layer is embedded in the destination component's
// port; intermediate macros are free-standing blocks the floorplanner must
// legalize. Macro placement is relaxed (the TSV splits the wire into two
// segments carrying the same bandwidth), so the preferred position simply
// interpolates between the endpoints.
#pragma once

#include <vector>

#include "sunfloor/util/geometry.h"

namespace sunfloor {

struct TsvMacro {
    int layer = 0;        ///< layer whose silicon the macro occupies
    Point preferred{};    ///< relaxed ideal position (center)
    double area_mm2 = 0.0;
    /// True when the macro is embedded in a switch/NI port on this layer
    /// (the link's top end) rather than free-standing.
    bool embedded = false;
};

/// Macros needed by one vertical link between (layer_a, pos_a) and
/// (layer_b, pos_b); order of endpoints does not matter. Returns an empty
/// vector for an intra-layer link. `macro_area_mm2` comes from
/// TsvModel::macro_area_mm2.
std::vector<TsvMacro> tsv_macros_for_link(int layer_a, Point pos_a,
                                          int layer_b, Point pos_b,
                                          double macro_area_mm2);

}  // namespace sunfloor
