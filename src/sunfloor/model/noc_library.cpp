#include "sunfloor/model/noc_library.h"

#include <algorithm>
#include <cmath>

namespace sunfloor {

double NocLibrary::flits_per_second(double bw_mbps) const {
    const double bytes_per_flit = p_.flit_width_bits / 8.0;
    return bw_mbps * 1e6 / bytes_per_flit;
}

int NocLibrary::max_switch_size(double freq_hz) const {
    const double period_ns = 1e9 / freq_hz;
    const int size = static_cast<int>(
        std::floor((period_ns - p_.switch_t0_ns) / p_.switch_t1_ns_per_port));
    return std::max(size, 2);
}

double NocLibrary::switch_energy_per_flit_pj(int in_ports,
                                             int out_ports) const {
    return p_.switch_e0_pj +
           p_.switch_e1_pj_per_port * (in_ports + out_ports) / 2.0;
}

double NocLibrary::switch_idle_power_mw(int in_ports, int out_ports,
                                        double freq_hz) const {
    const double f_ghz = freq_hz / 1e9;
    return (p_.switch_idle_c0_mw +
            p_.switch_idle_c1_mw_per_port * (in_ports + out_ports)) *
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
    return p_.switch_area_a0_mm2 + p_.switch_area_a1_mm2 * ports +
           p_.switch_area_a2_mm2 * static_cast<double>(ports) * ports / 4.0;
}

double NocLibrary::ni_idle_power_mw(double freq_hz) const {
    return p_.ni_idle_mw_per_ghz * freq_hz / 1e9;
}

double NocLibrary::ni_power_mw(double freq_hz, double bw_mbps) const {
    return ni_idle_power_mw(freq_hz) +
           flits_per_second(bw_mbps) * p_.ni_energy_pj * 1e-9;
}

}  // namespace sunfloor
