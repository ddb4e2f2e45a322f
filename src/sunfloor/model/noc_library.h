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
// The model has two inputs, the frequency and the flit width
// (EvalParams); every calibration value is a constant below, beside the
// formula that reads it. No store address carries the constants, so
// changing one moves outputs under unchanged addresses: it is a versioned
// store change, as kPlacementSolverTag is for the position solver.
//
// Unit conventions (uniform across the repo):
//   bandwidth MB/s, frequency Hz, power mW, energy pJ, area mm2, length mm.
#pragma once

namespace sunfloor {

/// Switch timing: critical path t0 + t1 * max(in_ports, out_ports).
inline constexpr double kSwitchT0Ns = 0.12;
inline constexpr double kSwitchT1NsPerPort = 0.195;

/// Switch dynamic energy per 32-bit flit traversal: e0 + e1 * (in + out)/2.
/// xpipesLite switches are lightweight (output-queued, shallow buffers).
inline constexpr double kSwitchE0Pj = 3.5;
inline constexpr double kSwitchE1PjPerPort = 0.6;

/// Switch idle (clock + leakage) power: (c0 + c1 * ports) * f_GHz mW.
inline constexpr double kSwitchIdleC0Mw = 0.10;
inline constexpr double kSwitchIdleC1MwPerPort = 0.15;

/// Switch area at 32 bits: a0 + a1 * ports + a2 * ports^2 / 4 (crossbar).
inline constexpr double kSwitchAreaA0Mm2 = 0.0020;
inline constexpr double kSwitchAreaA1Mm2 = 0.0015;
inline constexpr double kSwitchAreaA2Mm2 = 0.0004;

/// Network interface (protocol translation, Section III); the energy is
/// per 32-bit flit.
inline constexpr double kNiAreaMm2 = 0.010;
inline constexpr double kNiEnergyPj = 3.0;
inline constexpr double kNiIdleMwPerGhz = 0.20;

/// Analytic xpipesLite-style component library of one flit width.
class NocLibrary {
  public:
    /// The whole datapath widens with the flit: the per-flit switch and
    /// NI energy and the port and crossbar area terms are the 32-bit
    /// constants times width / 32, each scaled once here, while flits per
    /// second shrink. Wider links trade area and idle power for
    /// serialization latency rather than winning on every objective.
    explicit NocLibrary(int flit_width_bits);

    /// Flits per second carried by `bw_mbps` megabytes/second of payload.
    double flits_per_second(double bw_mbps) const;

    /// Largest switch radix (ports on the bigger side) usable at
    /// `freq_hz`: the largest radix whose crossbar critical path
    /// t0 + t1 * radix fits in one clock period. This is the paper's
    /// max_sw_size input to Algorithm 2. Returns at least 2 (a 1x1
    /// "switch" is meaningless).
    static int max_switch_size(double freq_hz);

    /// Dynamic energy of one flit traversing a switch (pJ).
    double switch_energy_per_flit_pj(int in_ports, int out_ports) const;

    /// Idle power of a switch clocked at freq_hz (mW).
    static double switch_idle_power_mw(int in_ports, int out_ports,
                                       double freq_hz);

    /// Total switch power: idle + dynamic for `through_bw_mbps` megabytes
    /// per second of aggregate traffic crossing the switch.
    double switch_power_mw(int in_ports, int out_ports, double freq_hz,
                           double through_bw_mbps) const;

    double switch_area_mm2(int in_ports, int out_ports) const;

    static double ni_idle_power_mw(double freq_hz);

    /// NI power for a core pushing/pulling `bw_mbps` through it.
    double ni_power_mw(double freq_hz, double bw_mbps) const;

  private:
    int flit_width_bits_;
    double switch_e0_pj_;
    double switch_e1_pj_per_port_;
    double switch_area_a1_mm2_;
    double switch_area_a2_mm2_;
    double ni_energy_pj_;
};

}  // namespace sunfloor
