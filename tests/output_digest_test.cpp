// Tier-1 output digests: the bytes the paper runs produce, pinned.
//
// Each run below renders what `sunfloor_cli --benchmark <spec>` writes —
// the `_points.csv` table, the best-power design's DOT and layer SVGs —
// plus a text fingerprint of every returned design point's topology
// (oracle::topology_fingerprint_reference), and hashes it all into one
// fnv1a64 digest. The link-width run digests an explore over four link
// widths. The CAS run hashes the name and bytes of every object a
// D_26_media session spills to its store. The digests were taken from
// the build before the shared-topology refactor, the CAS digest again
// when store addresses became codec bytes and when the evaluation model
// became two inputs (both times the same payloads under new names and
// key echoes) and when the store moved to format 2 (the same payloads
// and key echoes under new names, magic and checksums), and the run
// digests whose DOT holds an inter-layer response link again when such
// an edge got one style attribute instead of two; a kernel or pipeline
// change that claims byte-identical outputs proves it by leaving them
// alone. Re-pin a digest only with a written argument (an intended
// output change), as for export_golden_test.
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
#include "sunfloor/cas/codec.h"
#include "sunfloor/cas/store.h"
#include "sunfloor/core/synthesizer.h"
#include "sunfloor/explore/explorer.h"
#include "sunfloor/explore/export.h"
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
                             {"D_26_media", 0xbbe4f75b4eddc42bULL},
                             {"D_36_4", 0x345f4934950a562cULL},
                             {"D_36_6", 0x625350c9b5a53dc8ULL},
                             {"D_36_8", 0x91798ce747a47df7ULL},
                             {"D_35_bot", 0xaf291cffc0c9f24fULL},
                             {"D_65_pipe", 0x1e478434522c3398ULL},
                             {"D_38_tvopd", 0xf777721e6bd636cbULL},
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
                             {"D_26_media/up-down", 0x4c86c6734de33f3aULL},
                             {"D_26_media/west-first", 0x9470e8b348e27310ULL},
                             {"D_26_media/odd-even", 0x39b831841380b069ULL},
                             {"D_36_4/up-down", 0xf4bbde8c1d169f6eULL},
                             {"D_36_4/west-first", 0x2cb36c4ebdec94faULL},
                             {"D_36_4/odd-even", 0x1e734cc61238a5f9ULL},
                             {"D_36_6/up-down", 0x41763cfd38fa6df4ULL},
                             {"D_36_6/west-first", 0x64058f08778a36c8ULL},
                             {"D_36_6/odd-even", 0x8b5871318dc0019fULL},
                             {"D_36_8/up-down", 0xeee3209e2771b961ULL},
                             {"D_36_8/west-first", 0xc3d24d71288b7d32ULL},
                             {"D_36_8/odd-even", 0x831ac0937b628b29ULL},
                             {"D_35_bot/up-down", 0x9079bb9635dae2b7ULL},
                             {"D_35_bot/west-first", 0x80a09aec76326c59ULL},
                             {"D_35_bot/odd-even", 0xa5345f6b6f781f0eULL},
                             {"D_65_pipe/up-down", 0xd540c42c7ad20ef0ULL},
                             {"D_65_pipe/west-first", 0x4ef9c8411a654d2dULL},
                             {"D_65_pipe/odd-even", 0xd1b10da977ec0933ULL},
                             {"D_38_tvopd/up-down", 0x7bc8b9f81311c6e6ULL},
                             {"D_38_tvopd/west-first", 0xe682865225da7629ULL},
                             {"D_38_tvopd/odd-even", 0x648ffba5413930e7ULL},
                         });
}

TEST(OutputDigest, LinkWidthExplore) {
    // The link-width axis scales the per-flit switch, NI and wire energy
    // and the port and crossbar area by width / 32. Scale 1.5 (width 48)
    // is not exact in every operation order, so this run pins where the
    // scale is applied; widths 16 and 128 pin the other scales. Each run
    // hashes the explore table and every design's evaluation bytes (the
    // exact bits of power, latency, area and the topology).
    const DesignSpec& spec = paper_specs().front();
    ASSERT_EQ(spec.name, "D_26_media");
    Runs runs;
    for (const bool floorplan : {false, true}) {
        service::JobParams params;
        params.freq_mhz = {400.0};
        params.max_tsvs = {25};
        params.width_bits = {16, 32, 48, 128};
        params.floorplan = floorplan;
        const service::ExploreSetup setup = service::explore_setup(params);
        ExploreOptions opts;
        opts.base_seed = setup.base_seed;
        const ExploreResult res =
            Explorer(spec, setup.cfg, opts).run(setup.grid);
        std::ostringstream out;
        explore_table(res).write_csv(out);
        for (const ExplorePointResult& pr : res.points)
            for (const DesignPoint& dp : pr.result.points)
                out << cas::encode_evaluation(pipeline::EvaluatedDesign(dp));
        runs.emplace_back(floorplan ? "widths/floorplan-on"
                                    : "widths/floorplan-off",
                          out.str());
    }
    expect_digests(runs, {
                             {"widths/floorplan-off", 0x797762bf5a211af0ULL},
                             {"widths/floorplan-on", 0xd136562db4178ceaULL},
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
                   {{"D_26_media/cas", 0x8f7ffe69e6b25160ULL}});
}

}  // namespace
}  // namespace sunfloor
