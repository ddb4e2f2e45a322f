// Unit tests for the exploration parameter grid.
#include <gtest/gtest.h>

#include "sunfloor/explore/param_grid.h"

namespace sunfloor {
namespace {

TEST(ParamGrid, DefaultIsSinglePoint) {
    ParamGrid grid;
    EXPECT_EQ(grid.cartesian_size(), 1u);
    const auto points = grid.enumerate();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_DOUBLE_EQ(points[0].freq_hz, 400e6);
    EXPECT_EQ(points[0].max_tsvs, 25);
    EXPECT_EQ(points[0].link_width_bits, 32);
    EXPECT_EQ(points[0].phase, SynthesisPhase::Auto);
    EXPECT_EQ(points[0].theta, kSweepTheta);
}

TEST(ParamGrid, CartesianSizeIsAxisProduct) {
    ParamGrid grid;
    grid.set_axis(ParamAxis::frequencies_hz({300e6, 400e6, 500e6}));
    grid.set_axis(ParamAxis::max_tsvs({10, 25}));
    grid.set_axis(ParamAxis::link_widths_bits({32, 64}));
    grid.set_axis(ParamAxis::phases(
        {SynthesisPhase::Phase1, SynthesisPhase::Phase2}));
    grid.set_axis(ParamAxis::thetas({1.0, 4.0, 7.0}));
    EXPECT_EQ(grid.cartesian_size(), 3u * 2u * 2u * 2u * 3u);
    EXPECT_EQ(grid.enumerate().size(), grid.cartesian_size());
}

TEST(ParamGrid, EnumerationOrderIsNestedAndIndexed) {
    ParamGrid grid;
    grid.set_axis(ParamAxis::frequencies_hz({300e6, 400e6}));
    grid.set_axis(ParamAxis::max_tsvs({10, 25}));
    const auto points = grid.enumerate();
    ASSERT_EQ(points.size(), 4u);
    // Frequency is the outer loop, TSV budget inner.
    EXPECT_DOUBLE_EQ(points[0].freq_hz, 300e6);
    EXPECT_EQ(points[0].max_tsvs, 10);
    EXPECT_DOUBLE_EQ(points[1].freq_hz, 300e6);
    EXPECT_EQ(points[1].max_tsvs, 25);
    EXPECT_DOUBLE_EQ(points[2].freq_hz, 400e6);
    EXPECT_EQ(points[2].max_tsvs, 10);
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(points[i].index, static_cast<int>(i));
}

TEST(ParamGrid, RejectsInvalidAxes) {
    ParamGrid grid;
    EXPECT_THROW(grid.set_axis(ParamAxis::frequencies_hz({})),
                 std::invalid_argument);
    EXPECT_THROW(grid.set_axis(ParamAxis::frequencies_hz({-1.0})),
                 std::invalid_argument);
    EXPECT_THROW(grid.set_axis(ParamAxis::max_tsvs({0})),
                 std::invalid_argument);
    EXPECT_THROW(grid.set_axis(ParamAxis::link_widths_bits({0})),
                 std::invalid_argument);
    EXPECT_THROW(grid.set_axis(ParamAxis{ParamKind::Phase, {3.0}}),
                 std::invalid_argument);
    EXPECT_THROW(grid.set_axis(ParamAxis::thetas({-2.0})),
                 std::invalid_argument);
    EXPECT_THROW(grid.set_axis(ParamAxis::thetas({0.0})),
                 std::invalid_argument);
}

TEST(GridPoint, ApplyMapsParametersIntoConfig) {
    GridPoint p;
    p.freq_hz = 500e6;
    p.max_tsvs = 12;
    p.link_width_bits = 64;
    p.theta = 4.0;

    SynthesisConfig base;
    const SynthesisConfig cfg = p.apply(base);
    EXPECT_DOUBLE_EQ(cfg.eval.freq_hz, 500e6);
    EXPECT_EQ(cfg.max_ill, 12);
    // The models scale with the width themselves (model_test).
    EXPECT_EQ(cfg.eval.flit_width_bits, 64);
    // Fixed theta pins the sweep to one iteration but keeps the base
    // theta_max as Eq. 1's normalization bound.
    EXPECT_DOUBLE_EQ(cfg.theta_min, 4.0);
    EXPECT_DOUBLE_EQ(cfg.theta_max, base.theta_max);
    EXPECT_GT(cfg.theta_min + cfg.theta_step, cfg.theta_max);

    // A fixed theta above the base bound raises the bound to itself.
    p.theta = base.theta_max + 5.0;
    const SynthesisConfig hi = p.apply(base);
    EXPECT_DOUBLE_EQ(hi.theta_min, hi.theta_max);
}

TEST(GridPoint, ApplyWithSweepThetaKeepsConfigSweep) {
    GridPoint p;  // theta = kSweepTheta
    SynthesisConfig base;
    base.theta_min = 2.0;
    base.theta_max = 11.0;
    const SynthesisConfig cfg = p.apply(base);
    EXPECT_DOUBLE_EQ(cfg.theta_min, 2.0);
    EXPECT_DOUBLE_EQ(cfg.theta_max, 11.0);
}

TEST(GridPoint, KeyIsExactIdentity) {
    GridPoint a;
    GridPoint b;
    EXPECT_EQ(a.key(), b.key());
    b.freq_hz = a.freq_hz + 1e-6;  // tiny but real difference
    EXPECT_NE(a.key(), b.key());
    b = a;
    b.phase = SynthesisPhase::Phase2;
    EXPECT_NE(a.key(), b.key());
    // index is bookkeeping, not identity
    b = a;
    b.index = 7;
    EXPECT_EQ(a.key(), b.key());
}

TEST(GridPoint, LabelMentionsParameters) {
    GridPoint p;
    p.freq_hz = 400e6;
    p.theta = 4.0;
    const std::string label = p.label();
    EXPECT_NE(label.find("400MHz"), std::string::npos);
    EXPECT_NE(label.find("tsv=25"), std::string::npos);
    EXPECT_NE(label.find("theta=4"), std::string::npos);
}

TEST(ParamGrid, RoutingAxisEnumeratesPolicies) {
    ParamGrid grid;
    grid.set_axis(ParamAxis::frequencies_hz({300e6, 400e6}));
    grid.set_axis(ParamAxis::routing_policies(
        {routing::RoutingPolicyId::UpDown,
         routing::RoutingPolicyId::WestFirst,
         routing::RoutingPolicyId::OddEven}));
    EXPECT_EQ(grid.cartesian_size(), 6u);
    const auto points = grid.enumerate();
    ASSERT_EQ(points.size(), 6u);
    // Routing is the innermost axis.
    EXPECT_EQ(points[0].routing, routing::RoutingPolicyId::UpDown);
    EXPECT_EQ(points[1].routing, routing::RoutingPolicyId::WestFirst);
    EXPECT_EQ(points[2].routing, routing::RoutingPolicyId::OddEven);
    EXPECT_DOUBLE_EQ(points[2].freq_hz, 300e6);
    EXPECT_DOUBLE_EQ(points[3].freq_hz, 400e6);
}

TEST(ParamGrid, RoutingAxisRejectsBadValue) {
    ParamGrid grid;
    ParamAxis bad{ParamKind::Routing, {7.0}};
    EXPECT_THROW(grid.set_axis(bad), std::invalid_argument);
}

TEST(GridPoint, RoutingInKeyConfigAndLabel) {
    GridPoint a;
    GridPoint b;
    b.routing = routing::RoutingPolicyId::WestFirst;
    // Non-default policies extend the identity; default points keep the
    // pre-policy key (and therefore their derived seeds).
    EXPECT_NE(a.key(), b.key());
    EXPECT_EQ(a.key().find("rp="), std::string::npos);
    EXPECT_NE(b.key().find("rp=west-first"), std::string::npos);
    // The partition stage never consumes the policy: synthesis seeds and
    // partition artifacts stay shared across the routing axis.
    EXPECT_EQ(a.partition_key(), b.partition_key());
    EXPECT_EQ(a.apply(SynthesisConfig{}).routing,
              routing::RoutingPolicyId::UpDown);
    EXPECT_EQ(b.apply(SynthesisConfig{}).routing,
              routing::RoutingPolicyId::WestFirst);
    EXPECT_EQ(a.label().find("routing="), std::string::npos);
    EXPECT_NE(b.label().find("routing=west-first"), std::string::npos);
}

}  // namespace
}  // namespace sunfloor
