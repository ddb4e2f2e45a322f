// Fuzz/property harness over the spec path: hundreds of generated specs
// (all three specgen families, randomized knobs) are pushed through
// parsing, full synthesis, zero-load simulation and route-set CDG
// verification. The contract under test:
//
//   * generation + parsing never crash or mis-parse (the input-validation
//     fixes in util/strings.cpp and spec/parser.cpp were found by exactly
//     this kind of fuzzing);
//   * every generated spec either synthesizes or fails with a *diagnosed*
//     error (non-empty fail_reason on every design point — no silent
//     nonsense, no exceptions);
//   * on synthesized designs the two evaluation backends agree at zero
//     load to 1e-6 cycles, the enlarged route-set CDG stays acyclic, and
//     the simulator drains under load on deadlock-free topologies;
//   * mutated (corrupted) spec files are rejected with errors naming the
//     offending line.
//
// The ASan/UBSan CI job runs this suite too, so "no crashes" includes
// "no silent memory errors".
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/graph/algorithms.h"
#include "sunfloor/noc/deadlock.h"
#include "sunfloor/noc/evaluation.h"
#include "sunfloor/routing/policy.h"
#include "sunfloor/routing/route_sets.h"
#include "sunfloor/sim/simulator.h"
#include "sunfloor/spec/parser.h"
#include "sunfloor/specgen/specgen.h"
#include "sunfloor/util/rng.h"
#include "sunfloor/util/strings.h"

namespace sunfloor {
namespace {

using specgen::GenFamily;
using specgen::GenParams;

constexpr GenFamily kFamilies[] = {GenFamily::Pipeline,
                                   GenFamily::HubAndSpoke,
                                   GenFamily::LayeredDag};

constexpr routing::RoutingPolicyId kPolicies[] = {
    routing::RoutingPolicyId::UpDown,
    routing::RoutingPolicyId::WestFirst,
    routing::RoutingPolicyId::OddEven,
};

/// Random-but-valid knobs for one fuzz case (all draws respect
/// GenParams::validate by construction, so every rejection the harness
/// sees downstream is a *synthesis* diagnosis, not a parameter typo).
GenParams random_params(GenFamily fam, Rng& rng) {
    GenParams p;
    p.family = fam;
    p.num_layers = rng.next_int(1, 4);
    p.num_hubs = rng.next_int(1, 3);
    p.num_cores = rng.next_int(p.num_layers + p.num_hubs + 4, 20);
    p.peak_core_bw_mbps = rng.next_int(600, 1200);
    p.bw_skew = rng.next_int(0, 32) / 16.0;  // 0..2 in det_pow16 steps
    p.latency_slack = rng.next_int(10, 25) / 10.0;
    p.response_fraction = rng.next_int(0, 4) / 4.0;
    p.hotspot_fraction = rng.next_int(2, 4) / 4.0;
    p.stages = rng.next_int(2, std::min(6, p.num_cores));
    p.max_fanout = rng.next_int(1, 4);
    return p;
}

std::string spec_text(const DesignSpec& spec) {
    std::ostringstream os;
    write_design(os, spec);
    return os.str();
}

// Generation + parse round trip over many randomized knob draws per
// family — the cheap, wide part of the fuzz budget (several hundred
// specs).
TEST(SpecGenFuzz, RandomKnobsGenerateParseRoundTrip) {
    Rng meta(0xf22);
    for (GenFamily fam : kFamilies) {
        for (int i = 0; i < 100; ++i) {
            const GenParams p = random_params(fam, meta);
            const std::uint64_t seed = meta.next_u64();
            SCOPED_TRACE(format("%s case %d seed %llu cores %d",
                                specgen::family_to_string(fam), i,
                                static_cast<unsigned long long>(seed),
                                p.num_cores));
            const DesignSpec spec = specgen::generate(p, seed);
            const std::string text = spec_text(spec);
            std::istringstream is(text);
            const ParseResult r = parse_design(is, spec.name);
            ASSERT_TRUE(r.ok) << r.error;
            EXPECT_EQ(spec_text(r.spec), text);
        }
    }
}

// The deep part of the budget: full synthesis + sim + CDG verification.
// Every generated spec either yields valid designs or diagnoses every
// failed point; no configuration may crash.
TEST(SpecGenFuzz, SynthesisSimAndRouteSetsHoldOnEveryFamily) {
    Rng meta(2009);
    int synthesized_any = 0;
    for (GenFamily fam : kFamilies) {
        for (int i = 0; i < 10; ++i) {
            const GenParams p = random_params(fam, meta);
            const std::uint64_t seed = meta.next_u64();
            const auto policy = kPolicies[static_cast<std::size_t>(
                (i + static_cast<int>(fam)) % 3)];
            SCOPED_TRACE(format("%s case %d seed %llu cores %d routing %s",
                                specgen::family_to_string(fam), i,
                                static_cast<unsigned long long>(seed),
                                p.num_cores,
                                routing::routing_to_string(policy)));
            const DesignSpec spec = specgen::generate(p, seed);

            SynthesisConfig cfg;
            cfg.run_floorplan = false;
            cfg.max_switches = 5;  // bound the per-spec sweep
            cfg.routing = policy;
            SynthesisResult res;
            ASSERT_NO_THROW(res = run_synthesis(spec, cfg))
                << "synthesis must diagnose, not throw";

            int checked = 0;
            for (const DesignPoint& dp : res.points) {
                if (!dp.valid) {
                    // A failed point is fine — but only with a diagnosis.
                    EXPECT_FALSE(dp.fail_reason.empty())
                        << dp.switch_count << " switches";
                    continue;
                }
                if (!dp.topo->all_flows_routed() || checked >= 2) continue;
                ++checked;
                ++synthesized_any;

                // Backends agree at zero load.
                sim::SimParams zl;
                zl.inject.packet_length_flits = 1;
                const sim::SimReport rep =
                    sim::simulate_zero_load(dp.topo, spec, cfg.eval, zl);
                EXPECT_TRUE(rep.drained);
                for (int f = 0; f < dp.topo->num_flows(); ++f)
                    EXPECT_NEAR(rep.flow_avg_latency_cycles[
                                    static_cast<std::size_t>(f)],
                                flow_latency(dp.topo, f, cfg.eval), 1e-6)
                        << "flow " << f;

                // The policy's *enlarged* adaptive route set stays
                // deadlock-free, not just the baked paths.
                const auto routes = routing::build_route_sets(
                    dp.topo, spec, routing::routing_policy(policy));
                EXPECT_FALSE(has_cycle(routing::build_route_set_cdg(
                    dp.topo, spec, routes)));
                EXPECT_FALSE(has_cycle(
                    routing::build_extended_route_set_cdg(dp.topo, spec,
                                                          routes)));

                // Under real injected load the network must go empty
                // again on statically deadlock-free topologies.
                if (is_message_dependent_deadlock_free(dp.topo,
                                                       spec.comm)) {
                    sim::SimParams sp;
                    sp.routing = policy;
                    sp.inject.injection_scale = 0.3;
                    sp.warmup_cycles = 300;
                    sp.measure_cycles = 1500;
                    const sim::SimReport load =
                        sim::simulate(dp.topo, spec, cfg.eval, sp);
                    EXPECT_TRUE(load.drained)
                        << load.in_flight_flits_at_end
                        << " flits stuck in flight";
                }
            }
        }
    }
    // The harness is vacuous if nothing ever synthesizes.
    EXPECT_GT(synthesized_any, 20);
}

// Mutation audit of the parser's error paths: corrupt generated spec
// files must be rejected with the offending line named — fuzzing found
// exactly these paths silently truncating or accepting non-finite input.
TEST(SpecGenFuzz, MutatedSpecFilesAreRejectedWithNamedLines) {
    GenParams p;
    p.family = GenFamily::HubAndSpoke;
    p.num_cores = 12;
    const DesignSpec spec = specgen::generate(p, 17);
    const std::string text = spec_text(spec);

    // Split into directive lines (drop the header comment), find a flow
    // line to mutate.
    std::vector<std::string> lines;
    for (const auto& l : split(text, '\n'))
        if (!trim(l).empty() && !starts_with(l, "#")) lines.push_back(l);
    int flow_idx = -1;
    for (std::size_t i = 0; i < lines.size(); ++i)
        if (starts_with(lines[i], "flow ")) {
            flow_idx = static_cast<int>(i);
            break;
        }
    ASSERT_GE(flow_idx, 0);

    const auto rejoin = [&](const std::vector<std::string>& ls) {
        std::string out;
        for (const auto& l : ls) {
            out += l;
            out += '\n';
        }
        return out;
    };
    const auto expect_rejected = [&](const std::vector<std::string>& ls,
                                     const char* needle, const char* what) {
        std::istringstream is(rejoin(ls));
        const ParseResult r = parse_design(is);
        EXPECT_FALSE(r.ok) << what;
        EXPECT_NE(r.error.find("line "), std::string::npos)
            << what << ": " << r.error;
        EXPECT_NE(r.error.find(needle), std::string::npos)
            << what << ": " << r.error;
    };

    // 1. Duplicate a flow line verbatim.
    auto mutated = lines;
    mutated.push_back(lines[static_cast<std::size_t>(flow_idx)]);
    expect_rejected(mutated, "duplicate flow", "duplicated flow line");

    // 2. Point a flow at an undeclared core.
    mutated = lines;
    {
        auto tokens = split_ws(mutated[static_cast<std::size_t>(flow_idx)]);
        tokens[2] = "ghost";
        std::string rebuilt;
        for (const auto& t : tokens) rebuilt += t + " ";
        mutated[static_cast<std::size_t>(flow_idx)] = rebuilt;
    }
    expect_rejected(mutated, "'ghost'", "undeclared core");

    // 3. Non-finite and overflowing numbers in a flow's bandwidth.
    for (const char* bad : {"nan", "inf", "1e999", "0x14"}) {
        mutated = lines;
        auto tokens = split_ws(mutated[static_cast<std::size_t>(flow_idx)]);
        tokens[3] = bad;
        std::string rebuilt;
        for (const auto& t : tokens) rebuilt += t + " ";
        mutated[static_cast<std::size_t>(flow_idx)] = rebuilt;
        expect_rejected(mutated, "malformed", bad);
    }

    // 4. Out-of-int-range layer on a core line (the silent-truncation
    // regression).
    mutated = lines;
    {
        auto tokens = split_ws(mutated[0]);
        ASSERT_EQ(tokens[0], "core");
        tokens[6] = "99999999999";
        std::string rebuilt;
        for (const auto& t : tokens) rebuilt += t + " ";
        mutated[0] = rebuilt;
    }
    expect_rejected(mutated, "malformed", "overflowing layer");

    // The unmutated text still parses, so the rejections above are the
    // mutations' doing.
    std::istringstream is(text);
    EXPECT_TRUE(parse_design(is).ok);
}

}  // namespace
}  // namespace sunfloor
