// Tests for the frequency sweep (the outer loop of Fig. 3).
#include <gtest/gtest.h>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/spec/benchmarks.h"

namespace sunfloor {
namespace {

SynthesisConfig fast_cfg() {
    SynthesisConfig cfg;
    cfg.run_floorplan = false;
    cfg.max_switches = 10;
    return cfg;
}

TEST(FrequencySweep, EachPointUsesItsFrequency) {
    DesignSpec spec = make_d38_tvopd();
    const auto sweep =
        run_frequency_sweep(spec, fast_cfg(), {400e6, 600e6},
                            SynthesisPhase::Phase1);
    ASSERT_EQ(sweep.size(), 2u);
    EXPECT_DOUBLE_EQ(sweep[0].freq_hz, 400e6);
    EXPECT_DOUBLE_EQ(sweep[1].freq_hz, 600e6);
    EXPECT_GT(sweep[0].result.num_valid(), 0);
}

TEST(FrequencySweep, HigherFrequencyShrinksMaxSwitch) {
    // At higher operating points the max switch radix falls, so the
    // smallest feasible switch count rises (the Fig. 10/11 "plot starts at
    // 3 switches" effect, frequency-dependent).
    DesignSpec spec = make_d26_media();
    SynthesisConfig cfg = fast_cfg();
    cfg.max_switches = 12;
    const auto sweep =
        run_frequency_sweep(spec, cfg, {300e6, 700e6},
                            SynthesisPhase::Phase1);
    auto min_valid_switches = [](const SynthesisResult& r) {
        int m = 1 << 20;
        for (const auto& p : r.points)
            if (p.valid) m = std::min(m, p.switch_count);
        return m;
    };
    const int slow = min_valid_switches(sweep[0].result);
    const int fast = min_valid_switches(sweep[1].result);
    EXPECT_LE(slow, fast);
}

TEST(FrequencySweep, BestOverSweepPicksGlobalMinimum) {
    DesignSpec spec = make_d38_tvopd();
    const auto sweep =
        run_frequency_sweep(spec, fast_cfg(), {400e6, 500e6},
                            SynthesisPhase::Phase1);
    const auto [fi, pi] = best_power_over_sweep(sweep);
    ASSERT_GE(fi, 0);
    const double best =
        sweep[static_cast<std::size_t>(fi)]
            .result.points[static_cast<std::size_t>(pi)]
            .report.power.total_mw();
    for (const auto& fp : sweep)
        for (const auto& p : fp.result.points)
            if (p.valid) {
                EXPECT_GE(p.report.power.total_mw(), best - 1e-9);
            }
}

TEST(FrequencySweep, LowerFrequencyUsuallyCheaper) {
    // The paper found the best power points at the lowest feasible
    // frequency for D_26_media; idle power scales with f.
    DesignSpec spec = make_d26_media();
    SynthesisConfig cfg = fast_cfg();
    cfg.max_switches = 12;
    const auto sweep =
        run_frequency_sweep(spec, cfg, {400e6, 800e6},
                            SynthesisPhase::Phase1);
    const int b0 = sweep[0].result.best_power_index();
    const int b1 = sweep[1].result.best_power_index();
    ASSERT_GE(b0, 0);
    if (b1 >= 0) {
        EXPECT_LE(sweep[0]
                      .result.points[static_cast<std::size_t>(b0)]
                      .report.power.total_mw(),
                  sweep[1]
                          .result.points[static_cast<std::size_t>(b1)]
                          .report.power.total_mw() *
                      1.05);
    }
}

TEST(FrequencySweep, EmptySweep) {
    DesignSpec spec = make_d38_tvopd();
    EXPECT_TRUE(run_frequency_sweep(spec, fast_cfg(), {}).empty());
    EXPECT_EQ(best_power_over_sweep({}).first, -1);
}

}  // namespace
}  // namespace sunfloor
