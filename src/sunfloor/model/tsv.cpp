#include "sunfloor/model/tsv.h"

#include <algorithm>
#include <cmath>

namespace sunfloor {

int TsvModel::tsvs_per_link(int flit_width_bits) const {
    return flit_width_bits + p_.overhead_wires_per_link +
           p_.redundant_tsvs_per_link;
}

double TsvModel::macro_area_mm2(int flit_width_bits) const {
    const double pitch_mm = p_.tsv_pitch_um * 1e-3;
    return tsvs_per_link(flit_width_bits) * pitch_mm * pitch_mm;
}

double TsvModel::power_mw(double flits_per_s, int layers_crossed) const {
    return flits_per_s * p_.energy_pj_per_flit_layer *
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
