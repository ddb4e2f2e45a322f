#include "sunfloor/spec/core_spec.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sunfloor {

int CoreSpec::add_core(Core core) {
    // `<= 0` is false for NaN, so the size check alone would admit NaN
    // dimensions (and non-finite positions break every geometry query).
    if (!std::isfinite(core.width) || !std::isfinite(core.height) ||
        !std::isfinite(core.position.x) || !std::isfinite(core.position.y))
        throw std::invalid_argument(
            "CoreSpec: core geometry must be finite");
    if (core.width <= 0.0 || core.height <= 0.0)
        throw std::invalid_argument("CoreSpec: core size must be positive");
    // Floorplans live in the first quadrant: the position solve keeps
    // switches at x, y >= 0 and the NoC inserter clamps to it.
    if (core.position.x < 0.0 || core.position.y < 0.0)
        throw std::invalid_argument(
            "CoreSpec: core position must be non-negative");
    if (core.layer < 0)
        throw std::invalid_argument("CoreSpec: negative layer");
    if (find(core.name) >= 0)
        throw std::invalid_argument("CoreSpec: duplicate core name " +
                                    core.name);
    cores_.push_back(std::move(core));
    return num_cores() - 1;
}

int CoreSpec::find(const std::string& name) const {
    for (int i = 0; i < num_cores(); ++i)
        if (cores_[static_cast<std::size_t>(i)].name == name) return i;
    return -1;
}

int CoreSpec::num_layers() const {
    int max_layer = -1;
    for (const auto& c : cores_) max_layer = std::max(max_layer, c.layer);
    return max_layer + 1;
}

std::vector<int> CoreSpec::cores_in_layer(int layer) const {
    std::vector<int> ids;
    for (int i = 0; i < num_cores(); ++i)
        if (cores_[static_cast<std::size_t>(i)].layer == layer)
            ids.push_back(i);
    return ids;
}

double CoreSpec::layer_area(int layer) const {
    double a = 0.0;
    for (const auto& c : cores_)
        if (c.layer == layer) a += c.area();
    return a;
}

Rect CoreSpec::layer_bounding_box(int layer) const {
    std::vector<Rect> rects;
    for (const auto& c : cores_)
        if (c.layer == layer) rects.push_back(c.rect());
    return bounding_box(rects);
}

CoreSpec CoreSpec::flattened_to_2d() const {
    CoreSpec flat;
    for (const auto& c : cores_) {
        Core copy = c;
        copy.layer = 0;
        flat.cores_.push_back(std::move(copy));
    }
    return flat;
}

bool CoreSpec::placement_is_legal() const {
    for (int i = 0; i < num_cores(); ++i)
        for (int j = i + 1; j < num_cores(); ++j) {
            const auto& a = cores_[static_cast<std::size_t>(i)];
            const auto& b = cores_[static_cast<std::size_t>(j)];
            if (a.layer == b.layer && a.rect().overlaps(b.rect()))
                return false;
        }
    return true;
}

}  // namespace sunfloor
