// Through-silicon-via (vertical link) model.
//
// Calibrated to the measurements of Loi et al. [34] cited in Section VIII:
// a TSV in a tightly packed bundle has 16-18.5 ps delay, 4 um diameter and
// 8 um pitch, and roughly one order of magnitude lower R and C than a
// moderate planar link — so vertical hops are nearly free in both delay and
// energy compared to millimetre horizontal wires. That asymmetry is the
// physical source of the paper's 3-D power savings.
//
// The model also covers the TSV *macros* of Section III (silicon area
// reserved per vertical link on every layer the link punches through) and a
// yield curve in the spirit of Fig. 1 [39] motivating the max_ill
// constraint.
#pragma once

namespace sunfloor {

struct TsvParams {
    /// Per layer crossed. No cost term reads it; the evaluation key and
    /// the shard wire format carry it, and dropping it would move every
    /// CAS address.
    double delay_ps = 17.0;
    double energy_pj_per_flit_layer = 0.12;  ///< 32-bit flit, one layer hop
    double tsv_pitch_um = 8.0;
    double tsv_diameter_um = 4.0;
    /// Control/flow-control wires accompanying the data bits of a link.
    int overhead_wires_per_link = 8;
    /// Redundant TSVs per link for reliability [40]; 0 disables.
    int redundant_tsvs_per_link = 0;
};

class TsvModel {
  public:
    TsvModel() = default;
    explicit TsvModel(const TsvParams& params) : p_(params) {}

    const TsvParams& params() const { return p_; }

    /// Wires (and thus TSVs) needed by one vertical link of the given flit
    /// width, including control overhead and redundancy.
    int tsvs_per_link(int flit_width_bits) const;

    /// Silicon area of the TSV macro reserving space for one vertical link
    /// (mm2). Placed on the top layer of each crossing (Section III).
    double macro_area_mm2(int flit_width_bits) const;

    /// Power of a vertical link carrying `flits_per_s` across
    /// `layers_crossed` layers (mW). Vertical wires are so short that the
    /// idle component is negligible and omitted.
    double power_mw(double flits_per_s, int layers_crossed) const;

    /// Synthetic stacked-die yield as a function of total TSV count, shaped
    /// like the curves of Fig. 1 [39]: flat up to a process-dependent knee,
    /// then rapidly decreasing. `knee` is the TSV count at which yield
    /// starts dropping; `steepness` controls the fall-off.
    static double yield(int tsv_count, double base_yield = 0.98,
                        int knee = 2000, double steepness = 3.0);

  private:
    TsvParams p_{};
};

}  // namespace sunfloor
