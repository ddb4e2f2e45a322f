// Through-silicon-via (vertical link) model.
//
// Calibrated to the measurements of Loi et al. [34] cited in Section VIII:
// a TSV in a tightly packed bundle has 16-18.5 ps delay, 4 um diameter and
// 8 um pitch, and roughly one order of magnitude lower R and C than a
// moderate planar link — so vertical hops are nearly free in both delay and
// energy compared to millimetre horizontal wires. That asymmetry is the
// physical source of the paper's 3-D power savings. No cost term reads
// the delay or the diameter.
//
// The model also covers the TSV *macros* of Section III (silicon area
// reserved per vertical link on every layer the link punches through) and a
// yield curve in the spirit of Fig. 1 [39] motivating the max_ill
// constraint. No TSV coefficient scales with the flit width: the width
// enters only as the link's data wires. The calibration values are
// constants (see model/noc_library.h: changing one is a versioned store
// change).
#pragma once

namespace sunfloor {

/// Energy of one flit crossing one layer (pJ).
inline constexpr double kTsvEnergyPjPerFlitLayer = 0.12;
inline constexpr double kTsvPitchUm = 8.0;
/// Control/flow-control wires accompanying the data bits of a link.
inline constexpr int kTsvOverheadWiresPerLink = 8;

class TsvModel {
  public:
    /// Wires (and thus TSVs) needed by one vertical link of the given flit
    /// width, including control overhead.
    static int tsvs_per_link(int flit_width_bits);

    /// Silicon area of the TSV macro reserving space for one vertical link
    /// (mm2). Placed on the top layer of each crossing (Section III).
    static double macro_area_mm2(int flit_width_bits);

    /// Power of a vertical link carrying `flits_per_s` across
    /// `layers_crossed` layers (mW). Vertical wires are so short that the
    /// idle component is negligible and omitted.
    static double power_mw(double flits_per_s, int layers_crossed);

    /// Synthetic stacked-die yield as a function of total TSV count, shaped
    /// like the curves of Fig. 1 [39]: flat up to a process-dependent knee,
    /// then rapidly decreasing. `knee` is the TSV count at which yield
    /// starts dropping; `steepness` controls the fall-off.
    static double yield(int tsv_count, double base_yield = 0.98,
                        int knee = 2000, double steepness = 3.0);
};

}  // namespace sunfloor
