// Core specification (Section IV): the names, sizes, fixed positions and
// 3-D layer assignment of the SoC cores. Positions and layer assignment are
// *inputs* to SunFloor 3D — the tool synthesizes the NoC around them.
#pragma once

#include <string>
#include <vector>

#include "sunfloor/util/geometry.h"

namespace sunfloor {

/// One IP core (processor, memory, accelerator, peripheral...).
struct Core {
    std::string name;
    double width = 1.0;   ///< mm
    double height = 1.0;  ///< mm
    Point position{};     ///< lower-left corner within its layer
    int layer = 0;        ///< 3-D layer index, 0 = bottom

    Rect rect() const { return {position.x, position.y, width, height}; }
    Point center() const { return rect().center(); }
    double area() const { return width * height; }
};

/// The full core specification of a design.
class CoreSpec {
  public:
    /// Add a core; returns its id. Throws std::invalid_argument on
    /// duplicate name, non-positive size, non-finite geometry or a
    /// negative x or y.
    int add_core(Core core);

    int num_cores() const { return static_cast<int>(cores_.size()); }
    const Core& core(int id) const {
        return cores_.at(static_cast<std::size_t>(id));
    }
    Core& core(int id) { return cores_.at(static_cast<std::size_t>(id)); }
    const std::vector<Core>& cores() const { return cores_; }

    /// Id of the core with this name, or -1.
    int find(const std::string& name) const;

    /// 1 + the largest layer index used (0 for an empty spec).
    int num_layers() const;

    /// Ids of the cores assigned to `layer`.
    std::vector<int> cores_in_layer(int layer) const;

    /// Bounding box of the cores on a layer.
    Rect layer_bounding_box(int layer) const;

    /// A copy with every core on layer 0 (positions unchanged; callers
    /// re-floorplan). Used to derive the 2-D comparison designs.
    CoreSpec flattened_to_2d() const;

  private:
    std::vector<Core> cores_;
};

}  // namespace sunfloor
