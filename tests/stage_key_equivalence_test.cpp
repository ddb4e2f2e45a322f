// The stage-key text renderers write their hex digits directly. Their
// output is a CAS address, so it must stay byte-equal to the format-based
// renderers in tests/oracle/fingerprint_reference.* on every topology the
// pipeline produces for the seven paper specs, and on the values a
// printf path handles specially: signed zeros, NaN payloads, infinities,
// subnormals, and multi-digit or negative integers.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "oracle/fingerprint_reference.h"
#include "sunfloor/pipeline/session.h"
#include "sunfloor/spec/benchmarks.h"
#include "sunfloor/util/strings.h"

namespace sunfloor {
namespace {

const char* const kPaperSpecs[] = {"D_26_media", "D_36_4",   "D_36_6",
                                   "D_36_8",     "D_35_bot", "D_65_pipe",
                                   "D_38_tvopd"};

double from_bits(std::uint64_t bits) { return std::bit_cast<double>(bits); }

/// Doubles a "%016llx" rendering has no special case for but a hand
/// encoder could get wrong, plus values that exercise every hex digit.
std::vector<double> special_doubles() {
    using lim = std::numeric_limits<double>;
    return {0.0,
            -0.0,
            1.0,
            -1.5,
            lim::infinity(),
            -lim::infinity(),
            lim::quiet_NaN(),
            from_bits(0x7ff8000000000123ULL),  // quiet NaN, payload
            from_bits(0xfff8000000000000ULL),  // negative quiet NaN
            from_bits(0x7ff0000000000001ULL),  // signalling NaN
            from_bits(0x7ff4000000000000ULL),  // signalling NaN
            lim::denorm_min(),
            -lim::denorm_min(),
            from_bits(0x000fffffffffffffULL),  // largest subnormal
            lim::min(),
            lim::max(),
            lim::lowest(),
            from_bits(0x0123456789abcdefULL),
            from_bits(0xfedcba9876543210ULL)};
}

TEST(StageKeyEquivalence, DoubleBitsMatchPrintf) {
    std::vector<double> values = special_doubles();
    Rng rng(2009);
    for (int i = 0; i < 1000; ++i) values.push_back(from_bits(rng.next_u64()));
    for (const double v : values) {
        const std::string want = oracle::double_bits_reference(v);
        EXPECT_EQ(double_bits(v), want);
        std::string appended = "x";
        append_double_bits(appended, v);
        EXPECT_EQ(appended, "x" + want);
    }
}

TEST(StageKeyEquivalence, RngKeyMatchesPrintf) {
    std::vector<RngState> states(3);
    for (auto& w : states[1].s) w = ~0ULL;
    states[2].s[0] = 1;
    states[2].s[3] = 0x8000000000000000ULL;
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        states.push_back(rng.state());
        rng.next_u64();
    }
    for (const RngState& st : states)
        EXPECT_EQ(st.key(), oracle::rng_key_reference(st));
}

TEST(StageKeyEquivalence, FingerprintMatchesReferenceOnSpecialValues) {
    const DesignSpec spec = make_benchmark("D_36_4");
    ASSERT_GE(spec.cores.num_cores(), 12);
    ASSERT_GE(spec.comm.num_flows(), 3);
    const std::vector<double> v = special_doubles();
    const auto at = [&](std::size_t i) { return v[i % v.size()]; };

    Topology t(spec.cores, spec.comm.num_flows());
    // Core snapshots: special coordinates, multi-digit and negative layers.
    for (int c = 0; c < t.num_cores(); ++c) {
        const auto i = static_cast<std::size_t>(c);
        t.set_core_geometry(c, {at(i), at(i + 7)}, c % 3 == 0 ? -c : c * 11);
    }
    // Twelve switches, so indices reach two digits.
    for (int s = 0; s < 12; ++s) {
        const auto i = static_cast<std::size_t>(s);
        t.add_switch("sw" + std::to_string(s) + (s == 11 ? ",;|/@" : ""),
                     s * 9, {at(i + 3), at(i + 11)});
    }
    // Links between high-index cores and switches in both classes; the
    // flow paths below then use link ids above ten.
    for (int s = 0; s < 12; ++s) {
        t.add_link(NodeRef::core(35 - s), NodeRef::sw(s), FlowType::Request);
        t.add_link(NodeRef::sw(s), NodeRef::core(24 + s % 12),
                   FlowType::Response);
    }
    for (int f = 0; f < 3; ++f) {
        const Flow& flow = spec.comm.flow(f);
        const int a = t.add_parallel_link(NodeRef::core(flow.src),
                                          NodeRef::sw(10), flow.type);
        const int b =
            t.add_parallel_link(NodeRef::sw(10), NodeRef::sw(11), flow.type);
        const int c = t.add_parallel_link(NodeRef::sw(11),
                                          NodeRef::core(flow.dst), flow.type);
        t.set_flow_path(f, flow, {a, b, c});
    }
    for (int l = 0; l < t.num_links(); ++l)
        t.link(l).bw_mbps = at(static_cast<std::size_t>(l) + 5);

    EXPECT_EQ(pipeline::topology_fingerprint(t),
              oracle::topology_fingerprint_reference(t));
}

TEST(StageKeyEquivalence, FingerprintMatchesReferenceOnPaperDesigns) {
    // Every design point of a default synthesis (floorplan on) and every
    // routed topology of the phase-1 PG sweep, for each paper spec.
    int routed = 0;
    int compared = 0;
    for (const char* name : kPaperSpecs) {
        const DesignSpec spec = make_benchmark(name);
        const SynthesisConfig cfg;
        pipeline::SynthesisSession session(spec);
        for (const DesignPoint& dp : session.run(cfg).points) {
            EXPECT_EQ(pipeline::topology_fingerprint(dp.topo),
                      oracle::topology_fingerprint_reference(dp.topo))
                << name;
            ++compared;
        }
        for (int k = 1; k <= spec.cores.num_cores(); ++k) {
            const auto part =
                session.partition(pipeline::PartitionGraphId::pg(), k, cfg,
                                  cfg.partition, Rng(cfg.seed).state());
            const auto ra = session.route(
                pipeline::phase1_assignment(*part, spec.cores), cfg);
            EXPECT_EQ(pipeline::topology_fingerprint(ra->topo),
                      oracle::topology_fingerprint_reference(ra->topo))
                << name << " k=" << k;
            EXPECT_EQ(ra->topo_hash, ra->topo->content_hash());
            routed += ra->ok ? 1 : 0;
            ++compared;
        }
    }
    EXPECT_GT(routed, 100);
    EXPECT_GT(compared, 400);
}

}  // namespace
}  // namespace sunfloor
