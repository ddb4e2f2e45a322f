#include "sunfloor/model/noc_library.h"

#include <algorithm>
#include <cmath>

namespace sunfloor {

NocLibrary::NocLibrary(int flit_width_bits)
    : flit_width_bits_(flit_width_bits),
      switch_e0_pj_(kSwitchE0Pj * (flit_width_bits / 32.0)),
      switch_e1_pj_per_port_(kSwitchE1PjPerPort * (flit_width_bits / 32.0)),
      switch_area_a1_mm2_(kSwitchAreaA1Mm2 * (flit_width_bits / 32.0)),
      switch_area_a2_mm2_(kSwitchAreaA2Mm2 * (flit_width_bits / 32.0)),
      ni_energy_pj_(kNiEnergyPj * (flit_width_bits / 32.0)) {}

double NocLibrary::flits_per_second(double bw_mbps) const {
    const double bytes_per_flit = flit_width_bits_ / 8.0;
    return bw_mbps * 1e6 / bytes_per_flit;
}

int NocLibrary::max_switch_size(double freq_hz) {
    const double period_ns = 1e9 / freq_hz;
    const int size = static_cast<int>(
        std::floor((period_ns - kSwitchT0Ns) / kSwitchT1NsPerPort));
    return std::max(size, 2);
}

double NocLibrary::switch_energy_per_flit_pj(int in_ports,
                                             int out_ports) const {
    return switch_e0_pj_ +
           switch_e1_pj_per_port_ * (in_ports + out_ports) / 2.0;
}

double NocLibrary::switch_idle_power_mw(int in_ports, int out_ports,
                                        double freq_hz) {
    const double f_ghz = freq_hz / 1e9;
    return (kSwitchIdleC0Mw +
            kSwitchIdleC1MwPerPort * (in_ports + out_ports)) *
           f_ghz;
}

double NocLibrary::switch_power_mw(int in_ports, int out_ports,
                                   double freq_hz,
                                   double through_bw_mbps) const {
    const double dynamic_mw =
        flits_per_second(through_bw_mbps) *
        switch_energy_per_flit_pj(in_ports, out_ports) * 1e-9;
    return switch_idle_power_mw(in_ports, out_ports, freq_hz) + dynamic_mw;
}

double NocLibrary::switch_area_mm2(int in_ports, int out_ports) const {
    const int ports = in_ports + out_ports;
    return kSwitchAreaA0Mm2 + switch_area_a1_mm2_ * ports +
           switch_area_a2_mm2_ * static_cast<double>(ports) * ports / 4.0;
}

double NocLibrary::ni_idle_power_mw(double freq_hz) {
    return kNiIdleMwPerGhz * freq_hz / 1e9;
}

double NocLibrary::ni_power_mw(double freq_hz, double bw_mbps) const {
    return ni_idle_power_mw(freq_hz) +
           flits_per_second(bw_mbps) * ni_energy_pj_ * 1e-9;
}

}  // namespace sunfloor
