// Property tests for the parametric spec generators: determinism,
// structural validity, knob behaviour, parser round-trips, and the
// thread-count bit-determinism of family sweeps through the explorer.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <tuple>

#include "oracle/placement_checks.h"
#include "sunfloor/explore/family_sweep.h"
#include "sunfloor/spec/parser.h"
#include "sunfloor/specgen/specgen.h"
#include "sunfloor/util/strings.h"

namespace sunfloor {
namespace {

using specgen::GenFamily;
using specgen::GenParams;

constexpr GenFamily kFamilies[] = {GenFamily::Pipeline,
                                   GenFamily::HubAndSpoke,
                                   GenFamily::LayeredDag};

std::string spec_text(const DesignSpec& spec) {
    std::ostringstream os;
    write_design(os, spec);
    return os.str();
}

/// Structural invariants every generated spec must satisfy.
void check_valid(const DesignSpec& spec, const GenParams& p) {
    ASSERT_EQ(spec.cores.num_cores(), p.num_cores);
    EXPECT_TRUE(oracle::placement_is_legal(spec.cores));
    // Gap-free layer assignment: layers 0..num_layers()-1 all populated,
    // within the requested bound.
    const int layers = spec.cores.num_layers();
    EXPECT_LE(layers, p.num_layers);
    for (int ly = 0; ly < layers; ++ly)
        EXPECT_FALSE(spec.cores.cores_in_layer(ly).empty()) << "layer " << ly;
    // Flows: finite positive bandwidth, positive latency, no duplicates.
    ASSERT_GT(spec.comm.num_flows(), 0);
    std::set<std::tuple<int, int, FlowType>> seen;
    std::vector<double> core_agg(static_cast<std::size_t>(p.num_cores), 0.0);
    for (const Flow& f : spec.comm.flows()) {
        EXPECT_GT(f.bw_mbps, 0.0);
        EXPECT_GT(f.max_latency_cycles, 0.0);
        EXPECT_TRUE(seen.emplace(f.src, f.dst, f.type).second)
            << "duplicate flow " << f.src << "->" << f.dst;
        core_agg[static_cast<std::size_t>(f.src)] += f.bw_mbps;
        core_agg[static_cast<std::size_t>(f.dst)] += f.bw_mbps;
    }
    // The most-loaded core aggregates peak_core_bw_mbps, up to the %.6g
    // per-flow quantization.
    double max_agg = 0.0;
    for (double a : core_agg) max_agg = std::max(max_agg, a);
    EXPECT_NEAR(max_agg, p.peak_core_bw_mbps,
                1e-4 * p.peak_core_bw_mbps);
}

TEST(SpecGen, FamilyCodecRoundTrips) {
    for (GenFamily f : kFamilies) {
        GenFamily parsed;
        ASSERT_TRUE(
            specgen::family_from_string(specgen::family_to_string(f), parsed));
        EXPECT_EQ(parsed, f);
    }
    GenFamily f;
    EXPECT_TRUE(specgen::family_from_string("hub-and-spoke", f));
    EXPECT_EQ(f, GenFamily::HubAndSpoke);
    EXPECT_TRUE(specgen::family_from_string("DAG", f));
    EXPECT_EQ(f, GenFamily::LayeredDag);
    EXPECT_FALSE(specgen::family_from_string("mesh", f));
    EXPECT_EQ(specgen::family_choices(), "pipeline|hub|layered-dag");
}

TEST(SpecGen, GenerateIsDeterministic) {
    for (GenFamily fam : kFamilies) {
        GenParams p;
        p.family = fam;
        p.bw_skew = 1.0;
        const DesignSpec a = specgen::generate(p, 42);
        const DesignSpec b = specgen::generate(p, 42);
        EXPECT_EQ(spec_text(a), spec_text(b));
        // Bit-exact, not just text-exact.
        ASSERT_EQ(a.comm.num_flows(), b.comm.num_flows());
        for (int i = 0; i < a.comm.num_flows(); ++i) {
            EXPECT_EQ(double_bits(a.comm.flow(i).bw_mbps),
                      double_bits(b.comm.flow(i).bw_mbps));
            EXPECT_EQ(double_bits(a.comm.flow(i).max_latency_cycles),
                      double_bits(b.comm.flow(i).max_latency_cycles));
        }
    }
}

TEST(SpecGen, SeedsAndFamiliesProduceDistinctSpecs) {
    GenParams p;
    std::set<std::string> texts;
    for (GenFamily fam : kFamilies) {
        p.family = fam;
        for (std::uint64_t seed = 1; seed <= 5; ++seed)
            EXPECT_TRUE(texts.insert(spec_text(specgen::generate(p, seed)))
                            .second)
                << specgen::family_to_string(fam) << " seed " << seed;
    }
    EXPECT_EQ(texts.size(), 15u);
}

TEST(SpecGen, ValidateRejectsEachBadKnob) {
    const auto reject = [](GenParams p, const char* what) {
        EXPECT_THROW(p.validate(), std::invalid_argument) << what;
        EXPECT_THROW(specgen::generate(p, 1), std::invalid_argument) << what;
    };
    GenParams p;
    p.num_cores = 2;
    reject(p, "num_cores too small");
    p = {};
    p.num_cores = 513;
    reject(p, "num_cores too large");
    p = {};
    p.num_layers = 0;
    reject(p, "num_layers");
    p = {};
    p.num_layers = 9;
    reject(p, "num_layers too large");
    p = {};
    p.peak_core_bw_mbps = 0.0;
    reject(p, "peak bw");
    p = {};
    p.peak_core_bw_mbps = std::numeric_limits<double>::quiet_NaN();
    reject(p, "NaN peak bw");
    p = {};
    p.peak_core_bw_mbps = 1e10;  // would overflow the bandwidth rescale
    reject(p, "peak bw too large");
    p = {};
    p.bw_skew = -0.1;
    reject(p, "negative skew");
    p = {};
    p.bw_skew = 5.0;
    reject(p, "skew too large");
    p = {};
    p.latency_slack = 0.0;
    reject(p, "latency slack");
    p = {};
    p.response_fraction = 1.5;
    reject(p, "response fraction");
    p = {};
    p.num_hubs = 0;
    reject(p, "num_hubs");
    p = {};
    p.family = GenFamily::HubAndSpoke;
    p.num_cores = 4;
    p.num_layers = 3;
    p.num_hubs = 2;
    reject(p, "cores must cover layers + hubs");
    p = {};
    p.hotspot_fraction = 0.0;
    reject(p, "hotspot fraction");
    p = {};
    p.stages = 1;
    reject(p, "stages");
    p = {};
    p.family = GenFamily::LayeredDag;
    p.stages = p.num_cores + 1;
    reject(p, "stages > cores");
    p = {};
    p.max_fanout = 0;
    reject(p, "fanout");

    // Cross-field interactions bind only for the family that reads the
    // fields: small pipeline/hub specs are fine with default DAG/hub
    // knobs that would be inconsistent elsewhere.
    p = {};
    p.num_cores = 4;  // < default stages (6), and < layers + hubs (5)
    EXPECT_NO_THROW(p.validate());
    EXPECT_NO_THROW(specgen::generate(p, 1));
    p.family = GenFamily::LayeredDag;
    reject(p, "dag binds stages <= cores");
}

// Hundreds of members per family: every one is structurally valid and
// survives a write -> parse -> write round trip byte-identically, with
// every parsed field bit-identical to the generated one.
TEST(SpecGen, HundredsOfMembersPerFamilyAreValidAndRoundTrip) {
    for (GenFamily fam : kFamilies) {
        GenParams p;
        p.family = fam;
        p.bw_skew = 1.0;
        for (std::uint64_t seed = 0; seed < 120; ++seed) {
            SCOPED_TRACE(format("%s seed %llu",
                                specgen::family_to_string(fam),
                                static_cast<unsigned long long>(seed)));
            const DesignSpec spec = specgen::generate(p, seed);
            check_valid(spec, p);

            const std::string text = spec_text(spec);
            std::istringstream is(text);
            const ParseResult r = parse_design(is, spec.name);
            ASSERT_TRUE(r.ok) << r.error;
            EXPECT_EQ(spec_text(r.spec), text);  // byte-identical
            ASSERT_EQ(r.spec.cores.num_cores(), spec.cores.num_cores());
            ASSERT_EQ(r.spec.comm.num_flows(), spec.comm.num_flows());
            for (int i = 0; i < spec.cores.num_cores(); ++i) {
                const Core& g = spec.cores.core(i);
                const Core& q = r.spec.cores.core(i);
                EXPECT_EQ(q.name, g.name);
                EXPECT_EQ(q.layer, g.layer);
                EXPECT_EQ(double_bits(q.width), double_bits(g.width));
                EXPECT_EQ(double_bits(q.height), double_bits(g.height));
                EXPECT_EQ(double_bits(q.position.x),
                          double_bits(g.position.x));
                EXPECT_EQ(double_bits(q.position.y),
                          double_bits(g.position.y));
            }
            for (int i = 0; i < spec.comm.num_flows(); ++i) {
                const Flow& g = spec.comm.flow(i);
                const Flow& q = r.spec.comm.flow(i);
                EXPECT_EQ(q.src, g.src);
                EXPECT_EQ(q.dst, g.dst);
                EXPECT_EQ(q.type, g.type);
                EXPECT_EQ(double_bits(q.bw_mbps), double_bits(g.bw_mbps));
                EXPECT_EQ(double_bits(q.max_latency_cycles),
                          double_bits(g.max_latency_cycles));
            }
        }
    }
}

// Knob extremes stay valid (the fuzz harness leans on this).
TEST(SpecGen, ExtremeKnobsStillGenerateValidSpecs) {
    std::vector<GenParams> cases;
    GenParams p;
    p.num_cores = 3;
    p.num_layers = 1;
    p.num_hubs = 1;
    p.stages = 2;
    cases.push_back(p);
    p = {};
    p.num_layers = 8;
    p.num_cores = 24;
    cases.push_back(p);
    p = {};
    p.bw_skew = 4.0;
    cases.push_back(p);
    p = {};
    p.response_fraction = 0.0;
    cases.push_back(p);
    p = {};
    p.response_fraction = 1.0;
    cases.push_back(p);
    p = {};
    p.family = GenFamily::HubAndSpoke;
    p.hotspot_fraction = 1.0;
    cases.push_back(p);
    p = {};
    p.family = GenFamily::HubAndSpoke;
    p.num_hubs = 16;
    p.num_cores = 40;
    cases.push_back(p);
    p = {};
    p.family = GenFamily::LayeredDag;
    p.stages = 24;  // one core per stage
    cases.push_back(p);
    p = {};
    p.family = GenFamily::LayeredDag;
    p.max_fanout = 16;
    cases.push_back(p);
    p = {};
    p.num_cores = 512;
    p.family = GenFamily::LayeredDag;
    cases.push_back(p);
    for (std::size_t i = 0; i < cases.size(); ++i) {
        SCOPED_TRACE(i);
        const DesignSpec spec = specgen::generate(cases[i], 9);
        check_valid(spec, cases[i]);
    }
}

TEST(SpecGen, SkewKnobSweepsUniformToZipf) {
    GenParams p;
    p.family = GenFamily::LayeredDag;
    const auto bw_ratio = [&](double skew) {
        p.bw_skew = skew;
        const DesignSpec spec = specgen::generate(p, 11);
        double lo = 0.0;
        double hi = 0.0;
        for (const Flow& f : spec.comm.flows()) {
            hi = std::max(hi, f.bw_mbps);
            lo = lo == 0.0 ? f.bw_mbps : std::min(lo, f.bw_mbps);
        }
        return hi / lo;
    };
    EXPECT_NEAR(bw_ratio(0.0), 1.0, 1e-9);  // uniform
    const double mild = bw_ratio(1.0);
    const double hot = bw_ratio(3.0);
    EXPECT_GT(mild, 3.0);   // Zipf-ish spread over >= 20 flows
    EXPECT_GT(hot, mild * 5.0);  // monotone: hotter skew, hotter flows
}

TEST(SpecGen, HubFamilyPinsHotspotFraction) {
    GenParams p;
    p.family = GenFamily::HubAndSpoke;
    p.num_cores = 30;
    p.num_hubs = 3;
    for (double h : {0.4, 0.75, 0.9}) {
        p.hotspot_fraction = h;
        const DesignSpec spec = specgen::generate(p, 5);
        double hub_bw = 0.0;
        double total = 0.0;
        for (const Flow& f : spec.comm.flows()) {
            total += f.bw_mbps;
            if (f.src < p.num_hubs || f.dst < p.num_hubs)
                hub_bw += f.bw_mbps;
        }
        EXPECT_NEAR(hub_bw / total, h, 1e-4) << "hotspot " << h;
        // Exactly num_hubs hub-named cores on the middle layer.
        for (int i = 0; i < p.num_hubs; ++i)
            EXPECT_EQ(spec.cores.core(i).name, format("hub%d", i));
    }
}

// The pin must hold even on the tiniest hub specs, where the random
// background draws can all collide — the generator falls back to one
// deterministic background pair rather than silently emitting 100% hub
// bandwidth.
TEST(SpecGen, HubHotspotFractionHoldsOnTinySpecs) {
    GenParams p;
    p.family = GenFamily::HubAndSpoke;
    p.num_cores = 3;
    p.num_hubs = 1;
    p.num_layers = 1;
    p.hotspot_fraction = 0.4;
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        const DesignSpec spec = specgen::generate(p, seed);
        double hub_bw = 0.0;
        double total = 0.0;
        for (const Flow& f : spec.comm.flows()) {
            total += f.bw_mbps;
            if (f.src == 0 || f.dst == 0) hub_bw += f.bw_mbps;
        }
        EXPECT_NEAR(hub_bw / total, 0.4, 1e-4) << "seed " << seed;
    }
}

TEST(SpecGen, PipelineResponsePairing) {
    GenParams p;
    p.family = GenFamily::Pipeline;
    p.num_cores = 40;
    p.response_fraction = 0.0;
    DesignSpec spec = specgen::generate(p, 3);
    EXPECT_EQ(spec.comm.num_flows(), p.num_cores - 1);  // chain only
    for (const Flow& f : spec.comm.flows()) {
        EXPECT_EQ(f.dst, f.src + 1);
        EXPECT_EQ(f.type, FlowType::Request);
    }
    p.response_fraction = 1.0;
    spec = specgen::generate(p, 3);
    EXPECT_EQ(spec.comm.num_flows(), 2 * (p.num_cores - 1));
    int responses = 0;
    for (const Flow& f : spec.comm.flows())
        responses += f.type == FlowType::Response ? 1 : 0;
    EXPECT_EQ(responses, p.num_cores - 1);
}

TEST(SpecGen, FamilySeedsAreConsecutive) {
    const auto seeds = family_seeds(100, 3);
    EXPECT_EQ(seeds, (std::vector<std::uint64_t>{100, 101, 102}));
    EXPECT_TRUE(family_seeds(1, 0).empty());
}

// The acceptance property: exploring a generated family is bit-identical
// across thread counts — same Pareto entries, same reports, member by
// member.
TEST(SpecGen, FamilySweepIsThreadCountBitIdentical) {
    GenParams gen;
    gen.family = GenFamily::Pipeline;
    gen.num_cores = 10;

    SynthesisConfig cfg;
    cfg.run_floorplan = false;
    cfg.max_switches = 4;

    ParamGrid grid;
    grid.set_axis(ParamAxis::frequencies_hz({400e6, 500e6}));
    grid.set_axis(ParamAxis::max_tsvs({15, 25}));

    const auto seeds = family_seeds(1, 3);
    const auto run = [&](int threads) {
        ExploreOptions opts;
        opts.num_threads = threads;
        return explore_generated_family(gen, seeds, cfg, grid, opts);
    };
    const FamilySweepResult serial = run(1);
    const FamilySweepResult parallel = run(4);

    ASSERT_EQ(serial.members.size(), parallel.members.size());
    EXPECT_GT(serial.total_valid_designs, 0);
    EXPECT_EQ(serial.total_valid_designs, parallel.total_valid_designs);
    for (std::size_t m = 0; m < serial.members.size(); ++m) {
        const auto& a = serial.members[m];
        const auto& b = parallel.members[m];
        EXPECT_EQ(a.spec_name, b.spec_name);
        ASSERT_EQ(a.result.pareto.size(), b.result.pareto.size());
        for (std::size_t e = 0; e < a.result.pareto.size(); ++e) {
            EXPECT_EQ(a.result.pareto[e].point_index,
                      b.result.pareto[e].point_index);
            EXPECT_EQ(a.result.pareto[e].design_index,
                      b.result.pareto[e].design_index);
            const EvalReport& ra = a.result.design(a.result.pareto[e]).report;
            const EvalReport& rb = b.result.design(b.result.pareto[e]).report;
            EXPECT_EQ(double_bits(ra.power.total_mw()),
                      double_bits(rb.power.total_mw()));
            EXPECT_EQ(double_bits(ra.avg_latency_cycles),
                      double_bits(rb.avg_latency_cycles));
        }
    }

    // And independent of the seed list: member 0 alone == member 0 of 3.
    const FamilySweepResult solo = [&] {
        ExploreOptions opts;
        opts.num_threads = 2;
        return explore_generated_family(gen, {seeds[0]}, cfg, grid, opts);
    }();
    ASSERT_EQ(solo.members.size(), 1u);
    EXPECT_EQ(solo.members[0].result.stats.valid_designs,
              serial.members[0].result.stats.valid_designs);
    ASSERT_EQ(solo.members[0].result.pareto.size(),
              serial.members[0].result.pareto.size());
}

}  // namespace
}  // namespace sunfloor
