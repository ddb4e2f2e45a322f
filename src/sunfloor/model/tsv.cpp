#include "sunfloor/model/tsv.h"

#include <algorithm>
#include <cmath>

namespace sunfloor {

int TsvModel::tsvs_per_link(int flit_width_bits) {
    return flit_width_bits + kTsvOverheadWiresPerLink;
}

double TsvModel::macro_area_mm2(int flit_width_bits) {
    const double pitch_mm = kTsvPitchUm * 1e-3;
    return tsvs_per_link(flit_width_bits) * pitch_mm * pitch_mm;
}

double TsvModel::power_mw(double flits_per_s, int layers_crossed) {
    return flits_per_s * kTsvEnergyPjPerFlitLayer *
           std::max(0, layers_crossed) * 1e-9;
}

double TsvModel::yield(int tsv_count, double base_yield, int knee,
                       double steepness) {
    if (tsv_count <= 0) return base_yield;
    const double ratio = static_cast<double>(tsv_count) / knee;
    // lint:allow(nondet-pow) diagnostic yield model; reports only, not keyed
    return base_yield * std::exp(-std::pow(std::max(0.0, ratio - 1.0),
                                           steepness));
}

}  // namespace sunfloor
