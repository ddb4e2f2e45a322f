// Tests for the NoC component, wire and TSV models: monotonicity and the
// calibration points the synthesis flow depends on.
#include <gtest/gtest.h>

#include "sunfloor/model/noc_library.h"
#include "sunfloor/model/tsv.h"
#include "sunfloor/model/wire.h"

namespace sunfloor {
namespace {

TEST(NocLibrary, FlitsPerSecond) {
    const NocLibrary lib(32);
    // 32-bit flits = 4 bytes: 400 MB/s -> 1e8 flits/s.
    EXPECT_NEAR(lib.flits_per_second(400.0), 1e8, 1.0);
}

TEST(NocLibrary, MaxSwitchSizeFallsWithFrequency) {
    int prev = NocLibrary::max_switch_size(100e6);
    for (double f = 200e6; f <= 2e9; f += 100e6) {
        const int sz = NocLibrary::max_switch_size(f);
        EXPECT_LE(sz, prev) << f;
        prev = sz;
    }
    EXPECT_GT(NocLibrary::max_switch_size(200e6),
              NocLibrary::max_switch_size(800e6));
    // Never below a 2x2 switch.
    EXPECT_EQ(NocLibrary::max_switch_size(1e12), 2);
}

TEST(NocLibrary, MaxSwitchSizeCalibration) {
    // The D_26_media case study of Section VIII-A needs >= 3 switches at
    // 400 MHz (a 26-port switch cannot run that fast, ~12 ports can).
    const int sz = NocLibrary::max_switch_size(400e6);
    EXPECT_GE(sz, 10);
    EXPECT_LE(sz, 14);
}

TEST(NocLibrary, MaxSwitchSizeFitsTheClockPeriod) {
    // The crossbar critical path t0 + t1 * radix of the largest usable
    // switch fits in one period; one more port would not.
    for (double f : {200e6, 400e6, 600e6, 800e6}) {
        const int sz = NocLibrary::max_switch_size(f);
        const double period_ns = 1e9 / f;
        EXPECT_LE(kSwitchT0Ns + kSwitchT1NsPerPort * sz, period_ns);
        EXPECT_GT(kSwitchT0Ns + kSwitchT1NsPerPort * (sz + 1), period_ns);
    }
}

TEST(NocLibrary, WidthScalesPerFlitEnergyAndArea) {
    // The whole datapath widens with the flit: per-flit switch and NI
    // energy and the port and crossbar area terms double at 64 bits,
    // while flits per second halve.
    const NocLibrary narrow(32);
    const NocLibrary wide(64);
    EXPECT_DOUBLE_EQ(wide.flits_per_second(400.0),
                     narrow.flits_per_second(400.0) / 2.0);
    EXPECT_DOUBLE_EQ(wide.switch_energy_per_flit_pj(3, 5),
                     narrow.switch_energy_per_flit_pj(3, 5) * 2.0);
    EXPECT_DOUBLE_EQ(wide.switch_area_mm2(4, 4) - kSwitchAreaA0Mm2,
                     (narrow.switch_area_mm2(4, 4) - kSwitchAreaA0Mm2) * 2.0);
    // Twice the NI energy per flit at half the flits: the same NI power.
    EXPECT_DOUBLE_EQ(wide.ni_power_mw(400e6, 400.0),
                     narrow.ni_power_mw(400e6, 400.0));
    EXPECT_DOUBLE_EQ(WireModel(64).energy_pj_per_flit_mm(),
                     kWireEnergyPjPerFlitMm * 2.0);
}

TEST(NocLibrary, SwitchEnergyGrowsWithPorts) {
    const NocLibrary lib(32);
    EXPECT_LT(lib.switch_energy_per_flit_pj(2, 2),
              lib.switch_energy_per_flit_pj(8, 8));
}

TEST(NocLibrary, SwitchPowerFewMwAtGigahertz) {
    // "a single switch ... has low power consumption (few mW at 1 GHz)".
    const NocLibrary lib(32);
    const double mw = lib.switch_power_mw(5, 5, 1e9, 800.0);
    EXPECT_GT(mw, 0.2);
    EXPECT_LT(mw, 10.0);
}

TEST(NocLibrary, SwitchPowerMonotoneInTraffic) {
    const NocLibrary lib(32);
    EXPECT_LT(lib.switch_power_mw(5, 5, 400e6, 100.0),
              lib.switch_power_mw(5, 5, 400e6, 1000.0));
}

TEST(NocLibrary, AreaQuadraticTermPresent) {
    const NocLibrary lib(32);
    const double a4 = lib.switch_area_mm2(4, 4);
    const double a8 = lib.switch_area_mm2(8, 8);
    EXPECT_GT(a8, 2.0 * a4 - kSwitchAreaA0Mm2 - 1e-12);
}

TEST(NocLibrary, NiPower) {
    const NocLibrary lib(32);
    EXPECT_GT(lib.ni_power_mw(400e6, 400.0),
              NocLibrary::ni_idle_power_mw(400e6));
}

TEST(WireModel, DelayLinearInLength) {
    EXPECT_DOUBLE_EQ(WireModel::delay_ns(2.0), 2.0 * kWireDelayNsPerMm);
    EXPECT_DOUBLE_EQ(WireModel::delay_ns(-1.0), 0.0);
}

TEST(WireModel, PipelineStagesAtLeastOne) {
    EXPECT_EQ(WireModel::pipeline_stages(0.0, 400e6), 1);
    EXPECT_EQ(WireModel::pipeline_stages(0.5, 400e6), 1);
    // A very long link needs several stages at high frequency.
    EXPECT_GT(WireModel::pipeline_stages(10.0, 1e9), 3);
}

TEST(WireModel, PowerComponents) {
    const WireModel w(32);
    // Dynamic part scales with flits, idle part with length and frequency.
    const double idle_only = w.power_mw(2.0, 0.0, 400e6);
    EXPECT_NEAR(idle_only, kWireIdleMwPerMmGhz * 2.0 * 0.4, 1e-12);
    const double with_traffic = w.power_mw(2.0, 1e8, 400e6);
    EXPECT_GT(with_traffic, idle_only);
}

TEST(TsvModel, TsvsPerLinkAndMacroArea) {
    const int n = TsvModel::tsvs_per_link(32);
    EXPECT_EQ(n, 32 + kTsvOverheadWiresPerLink);
    // 40 wires at 8 um pitch: 40 * 0.0064 mm2 = 0.256 mm2... per wire the
    // macro reserves pitch^2.
    EXPECT_NEAR(TsvModel::macro_area_mm2(32), n * 0.008 * 0.008, 1e-12);
}

TEST(TsvModel, VerticalHopsAreCheap) {
    // Loi et al. [34]: vertical links are an order of magnitude more
    // efficient than moderate planar links. One layer hop must cost less
    // than 0.5 mm of planar wire at the same traffic.
    const double flits = 1e8;
    EXPECT_LT(TsvModel::power_mw(flits, 1),
              WireModel(32).power_mw(0.5, flits, 400e6));
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
