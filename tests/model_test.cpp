// Tests for the NoC component, wire and TSV models: monotonicity and the
// calibration points the synthesis flow depends on.
#include <gtest/gtest.h>

#include "sunfloor/model/noc_library.h"
#include "sunfloor/model/tsv.h"
#include "sunfloor/model/wire.h"

namespace sunfloor {
namespace {

TEST(NocLibrary, FlitsPerSecond) {
    NocLibrary lib;
    // 32-bit flits = 4 bytes: 400 MB/s -> 1e8 flits/s.
    EXPECT_NEAR(lib.flits_per_second(400.0), 1e8, 1.0);
}

TEST(NocLibrary, MaxSwitchSizeFallsWithFrequency) {
    NocLibrary lib;
    int prev = lib.max_switch_size(100e6);
    for (double f = 200e6; f <= 2e9; f += 100e6) {
        const int sz = lib.max_switch_size(f);
        EXPECT_LE(sz, prev) << f;
        prev = sz;
    }
    EXPECT_GT(lib.max_switch_size(200e6), lib.max_switch_size(800e6));
    EXPECT_EQ(lib.max_switch_size(1e12), 2);  // never below a 2x2 switch
}

TEST(NocLibrary, MaxSwitchSizeCalibration) {
    // The D_26_media case study of Section VIII-A needs >= 3 switches at
    // 400 MHz (a 26-port switch cannot run that fast, ~12 ports can).
    NocLibrary lib;
    const int sz = lib.max_switch_size(400e6);
    EXPECT_GE(sz, 10);
    EXPECT_LE(sz, 14);
}

TEST(NocLibrary, MaxSwitchSizeFitsTheClockPeriod) {
    // The crossbar critical path t0 + t1 * radix of the largest usable
    // switch fits in one period; one more port would not.
    NocLibrary lib;
    const NocTechParams& p = lib.params();
    for (double f : {200e6, 400e6, 600e6, 800e6}) {
        const int sz = lib.max_switch_size(f);
        const double period_ns = 1e9 / f;
        EXPECT_LE(p.switch_t0_ns + p.switch_t1_ns_per_port * sz, period_ns);
        EXPECT_GT(p.switch_t0_ns + p.switch_t1_ns_per_port * (sz + 1),
                  period_ns);
    }
}

TEST(NocLibrary, SwitchEnergyGrowsWithPorts) {
    NocLibrary lib;
    EXPECT_LT(lib.switch_energy_per_flit_pj(2, 2),
              lib.switch_energy_per_flit_pj(8, 8));
}

TEST(NocLibrary, SwitchPowerFewMwAtGigahertz) {
    // "a single switch ... has low power consumption (few mW at 1 GHz)".
    NocLibrary lib;
    const double mw = lib.switch_power_mw(5, 5, 1e9, 800.0);
    EXPECT_GT(mw, 0.2);
    EXPECT_LT(mw, 10.0);
}

TEST(NocLibrary, SwitchPowerMonotoneInTraffic) {
    NocLibrary lib;
    EXPECT_LT(lib.switch_power_mw(5, 5, 400e6, 100.0),
              lib.switch_power_mw(5, 5, 400e6, 1000.0));
}

TEST(NocLibrary, AreaQuadraticTermPresent) {
    NocLibrary lib;
    const double a4 = lib.switch_area_mm2(4, 4);
    const double a8 = lib.switch_area_mm2(8, 8);
    EXPECT_GT(a8, 2.0 * a4 - lib.params().switch_area_a0_mm2 - 1e-12);
}

TEST(NocLibrary, NiPower) {
    NocLibrary lib;
    EXPECT_GT(lib.ni_power_mw(400e6, 400.0), lib.ni_idle_power_mw(400e6));
    EXPECT_GT(lib.ni_area_mm2(), 0.0);
}

TEST(WireModel, DelayLinearInLength) {
    WireModel w;
    EXPECT_DOUBLE_EQ(w.delay_ns(2.0), 2.0 * w.params().delay_ns_per_mm);
    EXPECT_DOUBLE_EQ(w.delay_ns(-1.0), 0.0);
}

TEST(WireModel, PipelineStagesAtLeastOne) {
    WireModel w;
    EXPECT_EQ(w.pipeline_stages(0.0, 400e6), 1);
    EXPECT_EQ(w.pipeline_stages(0.5, 400e6), 1);
    // A very long link needs several stages at high frequency.
    EXPECT_GT(w.pipeline_stages(10.0, 1e9), 3);
}

TEST(WireModel, PowerComponents) {
    WireModel w;
    // Dynamic part scales with flits, idle part with length and frequency.
    const double idle_only = w.power_mw(2.0, 0.0, 400e6);
    EXPECT_NEAR(idle_only, w.params().idle_mw_per_mm_ghz * 2.0 * 0.4, 1e-12);
    const double with_traffic = w.power_mw(2.0, 1e8, 400e6);
    EXPECT_GT(with_traffic, idle_only);
}

TEST(TsvModel, TsvsPerLinkAndMacroArea) {
    TsvModel tsv;
    const int n = tsv.tsvs_per_link(32);
    EXPECT_EQ(n, 32 + tsv.params().overhead_wires_per_link);
    // 40 wires at 8 um pitch: 40 * 0.0064 mm2 = 0.256 mm2... per wire the
    // macro reserves pitch^2.
    EXPECT_NEAR(tsv.macro_area_mm2(32), n * 0.008 * 0.008, 1e-12);
}

TEST(TsvModel, RedundancyIncreasesArea) {
    TsvParams p;
    p.redundant_tsvs_per_link = 4;
    TsvModel tsv(p);
    TsvModel base;
    EXPECT_GT(tsv.macro_area_mm2(32), base.macro_area_mm2(32));
}

TEST(TsvModel, VerticalHopsAreCheap) {
    // Loi et al. [34]: vertical links are an order of magnitude more
    // efficient than moderate planar links. One layer hop must cost less
    // than 0.5 mm of planar wire at the same traffic.
    TsvModel tsv;
    WireModel wire;
    const double flits = 1e8;
    EXPECT_LT(tsv.power_mw(flits, 1),
              wire.power_mw(0.5, flits, 400e6));
}

TEST(TsvModel, YieldCurveShape) {
    // Fig. 1 [39]: flat up to a knee, then rapidly decreasing.
    const double y0 = TsvModel::yield(0);
    const double y_knee = TsvModel::yield(2000);
    const double y_past = TsvModel::yield(4000);
    const double y_far = TsvModel::yield(8000);
    EXPECT_NEAR(y0, y_knee, 1e-9);
    EXPECT_LT(y_past, y_knee);
    EXPECT_LT(y_far, y_past);
    EXPECT_GE(y_far, 0.0);
}

}  // namespace
}  // namespace sunfloor
