// Tier-1 output digests: the bytes the paper runs produce, pinned.
//
// Each run below renders what `sunfloor_cli --benchmark <spec>` writes —
// the `_points.csv` table, the best-power design's DOT and layer SVGs —
// plus a text fingerprint of every returned design point's topology
// (oracle::topology_fingerprint_reference), and hashes it all into one
// fnv1a64 digest. The CAS run hashes the name and bytes of every object
// a D_26_media session spills to its store. The digests were taken from
// the build before the shared-topology refactor, the CAS digest again
// when store addresses became codec bytes (the same payloads under new
// names and key echoes); a kernel or pipeline change that claims
// byte-identical outputs proves it by leaving them alone. Re-pin a digest only with a written argument
// (an intended output change), as for export_golden_test.
//
// The digests hold for builds that do not contract floating-point
// expressions: the root CMakeLists.txt pins -ffp-contract=off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "oracle/fingerprint_reference.h"
#include "sunfloor/cas/store.h"
#include "sunfloor/core/synthesizer.h"
#include "sunfloor/floorplan/annealer.h"
#include "sunfloor/io/dot.h"
#include "sunfloor/io/floorplan_dump.h"
#include "sunfloor/io/report.h"
#include "sunfloor/pipeline/session.h"
#include "sunfloor/service/protocol.h"
#include "sunfloor/spec/benchmarks.h"

namespace sunfloor {
namespace {

/// The seven paper specs with the input placement `--benchmark` anneals
/// (sunfloor_cli's Source::load), prepared once for every test here.
const std::vector<DesignSpec>& paper_specs() {
    static const std::vector<DesignSpec> specs = [] {
        std::vector<DesignSpec> out;
        for (const std::string& name : benchmark_names()) {
            DesignSpec spec = make_benchmark(name);
            AnnealOptions fopts;
            fopts.wirelength_weight = 5e-4;
            Rng rng(42);
            floorplan_design_layers(spec.cores, spec.comm, fopts, rng);
            out.push_back(std::move(spec));
        }
        return out;
    }();
    return specs;
}

/// The text of one synth run: the CLI's points table, its DOT and (when
/// `svg`) layer SVGs of the best-power design, and every point's
/// topology fingerprint, each behind a section tag.
std::string render_run(const DesignSpec& spec, const service::JobParams& params,
                       bool svg) {
    const auto [cfg, phase] = service::synth_setup(params);
    const auto sweep =
        run_frequency_sweep(spec, cfg, {params.freq_mhz.front() * 1e6}, phase);
    const std::vector<DesignPoint>& points = sweep.front().result.points;

    std::ostringstream out;
    out << "csv\n";
    design_points_table(points).write_csv(out);
    const auto [fi, pi] = best_power_over_sweep(sweep);
    if (fi >= 0) {
        const DesignPoint& bp = points[static_cast<std::size_t>(pi)];
        out << "dot\n";
        write_topology_dot(out, bp.topo, spec);
        for (int ly = 0; svg && ly < spec.cores.num_layers(); ++ly) {
            out << "svg" << ly << '\n';
            write_layer_svg(out, bp.topo, spec, ly);
        }
    }
    out << "fingerprints\n";
    for (const DesignPoint& p : points)
        out << oracle::topology_fingerprint_reference(p.topo) << '\n';
    return out.str();
}

struct Pinned {
    const char* run;
    std::uint64_t digest;
};

/// (run name, rendered text) of each run, in the pinned order.
using Runs = std::vector<std::pair<std::string, std::string>>;

void expect_digests(const Runs& runs, const std::vector<Pinned>& pinned) {
    ASSERT_EQ(runs.size(), pinned.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].first, pinned[i].run);
        const std::uint64_t got = cas::fnv1a64(runs[i].second);
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llxULL",
                      static_cast<unsigned long long>(got));
        EXPECT_EQ(got, pinned[i].digest)
            << runs[i].first << " now digests to " << hex;
    }
}

TEST(OutputDigest, PaperSpecsFloorplanOn) {
    service::JobParams params;
    params.freq_mhz = {400.0};
    Runs runs;
    for (const DesignSpec& spec : paper_specs())
        runs.emplace_back(spec.name, render_run(spec, params, /*svg=*/true));
    expect_digests(runs, {
                             {"D_26_media", 0x3e4e4d6c1bed5559ULL},
                             {"D_36_4", 0x6fca7d88375b76c4ULL},
                             {"D_36_6", 0xdcd3fc72ed68fafeULL},
                             {"D_36_8", 0xdf18144c6f73ec51ULL},
                             {"D_35_bot", 0xa0289af8a0483f53ULL},
                             {"D_65_pipe", 0x1e478434522c3398ULL},
                             {"D_38_tvopd", 0xa0231e3ec1cdd885ULL},
                         });
}

TEST(OutputDigest, PaperSpecsPerPolicyFloorplanOff) {
    service::JobParams params;
    params.freq_mhz = {400.0};
    params.floorplan = false;
    Runs runs;
    for (const DesignSpec& spec : paper_specs()) {
        for (const auto policy : {routing::RoutingPolicyId::UpDown,
                                  routing::RoutingPolicyId::WestFirst,
                                  routing::RoutingPolicyId::OddEven}) {
            params.routings = {policy};
            runs.emplace_back(
                spec.name + "/" + routing::routing_to_string(policy),
                render_run(spec, params, /*svg=*/false));
        }
    }
    expect_digests(runs, {
                             {"D_26_media/up-down", 0x84a5bc8b11f06d3cULL},
                             {"D_26_media/west-first", 0xa6a4f83dd3366c36ULL},
                             {"D_26_media/odd-even", 0x5f40121b57038d73ULL},
                             {"D_36_4/up-down", 0xc6cf03cc2a84e086ULL},
                             {"D_36_4/west-first", 0x424b264f2ce2e38aULL},
                             {"D_36_4/odd-even", 0x6d736b89a819d82bULL},
                             {"D_36_6/up-down", 0x295fb4c4398e4e0aULL},
                             {"D_36_6/west-first", 0xf6a60ca6aaa60174ULL},
                             {"D_36_6/odd-even", 0xc91c41d148da7e2fULL},
                             {"D_36_8/up-down", 0x0e22c56407d71123ULL},
                             {"D_36_8/west-first", 0x05807427132457c4ULL},
                             {"D_36_8/odd-even", 0xe0d6c7cb7fc2c229ULL},
                             {"D_35_bot/up-down", 0x45676b86d89b200fULL},
                             {"D_35_bot/west-first", 0x2682a65e2b89b079ULL},
                             {"D_35_bot/odd-even", 0x8b64f2af0ffefc88ULL},
                             {"D_65_pipe/up-down", 0xd540c42c7ad20ef0ULL},
                             {"D_65_pipe/west-first", 0x4ef9c8411a654d2dULL},
                             {"D_65_pipe/odd-even", 0xd1b10da977ec0933ULL},
                             {"D_38_tvopd/up-down", 0xf5283fbc9c923b26ULL},
                             {"D_38_tvopd/west-first", 0x49064ddf3d01d9c3ULL},
                             {"D_38_tvopd/odd-even", 0x7f7dc9b66f50bcb1ULL},
                         });
}

TEST(OutputDigest, CasStoreObjects) {
    // cas_test's StageKeyBytesArePinned run (unannealed D_26_media, the
    // floorplan off, one run per policy): that test pins the object
    // names, this one their bytes as well.
    char dir_buf[] = "/tmp/sunfloor_digest_XXXXXX";
    ASSERT_NE(::mkdtemp(dir_buf), nullptr);
    const std::string dir = dir_buf;
    {
        SynthesisConfig cfg;
        cfg.run_floorplan = false;
        pipeline::SessionOptions so;
        so.cas = std::make_shared<cas::Store>(cas::StoreOptions{dir});
        pipeline::SynthesisSession session(make_benchmark("D_26_media"), so);
        for (const auto policy : {routing::RoutingPolicyId::UpDown,
                                  routing::RoutingPolicyId::WestFirst,
                                  routing::RoutingPolicyId::OddEven}) {
            cfg.routing = policy;
            session.run(cfg);
        }
    }
    std::vector<std::string> names;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (name.size() == 16) names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    std::string store;
    for (const std::string& name : names) {
        std::ifstream f(dir + "/" + name, std::ios::binary);
        const std::string bytes{std::istreambuf_iterator<char>(f), {}};
        store += name + ' ' + std::to_string(bytes.size()) + '\n' + bytes;
    }
    std::filesystem::remove_all(dir);
    EXPECT_EQ(names.size(), 267u);
    expect_digests({{"D_26_media/cas", store}},
                   {{"D_26_media/cas", 0xcc3785222081a78cULL}});
}

}  // namespace
}  // namespace sunfloor
