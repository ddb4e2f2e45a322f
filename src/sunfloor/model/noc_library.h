// NoC component library: power, area, and timing models for switches and
// network interfaces.
//
// The paper uses post-layout models of the xpipesLite library [35] in a
// 65 nm low-power process. Those models are proprietary; this header
// provides an analytic stand-in calibrated to the figures quoted in the
// paper and the surrounding literature:
//   * a switch is "a few thousand gates" and burns "a few mW at 1 GHz";
//   * the maximum operating frequency falls as the port count grows
//     (crossbar + arbiter critical path), so at 400 MHz the largest
//     feasible switch is ~12x12 (the D_26_media sweep starts at 3 switches
//     exactly as in Fig. 10/11);
//   * switch dynamic energy grows with port count, crossbar area grows
//     quadratically.
// The synthesis algorithms consume only this interface, so swapping in a
// table-driven library preserves behaviour.
//
// Unit conventions (uniform across the repo):
//   bandwidth MB/s, frequency Hz, power mW, energy pJ, area mm2, length mm.
#pragma once

namespace sunfloor {

/// Technology/calibration constants. Defaults model a 65 nm low-power
/// process with 32-bit flits.
struct NocTechParams {
    int flit_width_bits = 32;

    // Switch timing: critical path t0 + t1 * max(in_ports, out_ports).
    double switch_t0_ns = 0.12;
    double switch_t1_ns_per_port = 0.195;

    // Switch dynamic energy per flit traversal: e0 + e1 * (in + out)/2.
    // xpipesLite switches are lightweight (output-queued, shallow buffers).
    double switch_e0_pj = 3.5;
    double switch_e1_pj_per_port = 0.6;

    // Switch idle (clock + leakage) power: (c0 + c1 * ports) * f_GHz mW.
    double switch_idle_c0_mw = 0.10;
    double switch_idle_c1_mw_per_port = 0.15;

    // Switch area: a0 + a1 * ports + a2 * ports^2 (crossbar term).
    double switch_area_a0_mm2 = 0.0020;
    double switch_area_a1_mm2 = 0.0015;
    double switch_area_a2_mm2 = 0.0004;

    // Network interface (protocol translation, Section III).
    double ni_area_mm2 = 0.010;
    double ni_energy_pj = 3.0;
    double ni_idle_mw_per_ghz = 0.20;
};

/// Analytic xpipesLite-style component library.
class NocLibrary {
  public:
    NocLibrary() = default;
    explicit NocLibrary(const NocTechParams& params) : p_(params) {}

    const NocTechParams& params() const { return p_; }

    /// Flits per second carried by `bw_mbps` megabytes/second of payload.
    double flits_per_second(double bw_mbps) const;

    /// Largest switch radix (ports on the bigger side) usable at
    /// `freq_hz`: the largest radix whose crossbar critical path
    /// t0 + t1 * radix fits in one clock period. This is the paper's
    /// max_sw_size input to Algorithm 2. Returns at least 2 (a 1x1
    /// "switch" is meaningless).
    int max_switch_size(double freq_hz) const;

    /// Dynamic energy of one flit traversing a switch (pJ).
    double switch_energy_per_flit_pj(int in_ports, int out_ports) const;

    /// Idle power of a switch clocked at freq_hz (mW).
    double switch_idle_power_mw(int in_ports, int out_ports,
                                double freq_hz) const;

    /// Total switch power: idle + dynamic for `through_bw_mbps` megabytes
    /// per second of aggregate traffic crossing the switch.
    double switch_power_mw(int in_ports, int out_ports, double freq_hz,
                           double through_bw_mbps) const;

    double switch_area_mm2(int in_ports, int out_ports) const;

    double ni_area_mm2() const { return p_.ni_area_mm2; }
    double ni_idle_power_mw(double freq_hz) const;

    /// NI power for a core pushing/pulling `bw_mbps` through it.
    double ni_power_mw(double freq_hz, double bw_mbps) const;

  private:
    NocTechParams p_{};
};

}  // namespace sunfloor
