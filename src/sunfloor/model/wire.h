// Planar (intra-layer) wire model.
//
// Calibrated to the 65 nm figures cited in Section VIII: links are
// pipelined by their propagation delay to sustain full throughput
// (Section VII). Energy is linear in length and in flits transported.
// The calibration values are constants (see model/noc_library.h:
// changing one is a versioned store change).
#pragma once

namespace sunfloor {

/// Signal propagation delay of a repeated global wire (ns per mm).
inline constexpr double kWireDelayNsPerMm = 0.55;
/// Dynamic energy of moving one 32-bit flit across one mm of link
/// (~0.125 pJ/bit/mm: repeated global wire, 65 nm low power, moderate
/// switching activity).
inline constexpr double kWireEnergyPjPerFlitMm = 4.0;
/// Static power of link drivers/repeaters per mm at 1 GHz.
inline constexpr double kWireIdleMwPerMmGhz = 0.05;

/// Planar link power/delay model of one flit width.
class WireModel {
  public:
    /// The per-flit energy is the 32-bit constant times width / 32.
    explicit WireModel(int flit_width_bits);

    /// Dynamic energy of moving one flit across one mm (pJ).
    double energy_pj_per_flit_mm() const { return energy_pj_per_flit_mm_; }

    /// End-to-end propagation delay (ns).
    static double delay_ns(double length_mm);

    /// Number of clocked pipeline stages the link occupies at `freq_hz`,
    /// i.e. the cycles a flit spends on the wire. Always >= 1; the paper
    /// pipelines long links "to support full throughput".
    static int pipeline_stages(double length_mm, double freq_hz);

    /// Power of a link of `length_mm` carrying `flits_per_s` (mW).
    double power_mw(double length_mm, double flits_per_s,
                    double freq_hz) const;

  private:
    double energy_pj_per_flit_mm_;
};

}  // namespace sunfloor
