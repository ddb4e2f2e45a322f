#include "sunfloor/model/wire.h"

#include <algorithm>
#include <cmath>

namespace sunfloor {

WireModel::WireModel(int flit_width_bits)
    : energy_pj_per_flit_mm_(kWireEnergyPjPerFlitMm *
                             (flit_width_bits / 32.0)) {}

double WireModel::delay_ns(double length_mm) {
    return kWireDelayNsPerMm * std::max(0.0, length_mm);
}

int WireModel::pipeline_stages(double length_mm, double freq_hz) {
    if (length_mm <= 0.0) return 1;
    const double period_ns = 1e9 / freq_hz;
    const int stages =
        static_cast<int>(std::ceil(delay_ns(length_mm) / period_ns));
    return std::max(1, stages);
}

double WireModel::power_mw(double length_mm, double flits_per_s,
                           double freq_hz) const {
    const double len = std::max(0.0, length_mm);
    const double dynamic_mw =
        flits_per_s * energy_pj_per_flit_mm_ * len * 1e-9;
    const double idle_mw = kWireIdleMwPerMmGhz * len * freq_hz / 1e9;
    return dynamic_mw + idle_mw;
}

}  // namespace sunfloor
