// Observability must be a pure observer: exploration results and their
// exported artifacts are byte-identical whether or not a trace sink is
// installed, across thread counts and both evaluation backends. Also
// pins the shape of a real multi-threaded explore trace (valid JSON,
// balanced begin/end pairs per thread, the documented span taxonomy).
#include <gtest/gtest.h>

#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sunfloor/explore/explorer.h"
#include "sunfloor/explore/export.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/spec/benchmarks.h"
#include "sunfloor/util/json.h"

namespace sunfloor {
namespace {

SynthesisConfig fast_cfg() {
    SynthesisConfig cfg;
    cfg.run_floorplan = false;
    cfg.max_switches = 5;
    return cfg;
}

ExploreOptions backend_opts(EvalBackend backend, int threads) {
    ExploreOptions opts;
    opts.num_threads = threads;
    opts.backend = backend;
    if (backend == EvalBackend::Simulated) {
        opts.sim.warmup_cycles = 200;
        opts.sim.measure_cycles = 1000;
        opts.sim.inject.packet_length_flits = 2;
    }
    return opts;
}

ParamGrid small_grid() {
    ParamGrid grid;
    grid.set_axis(ParamAxis::max_tsvs({15, 25}));
    grid.set_axis(ParamAxis::thetas({4.0}));
    return grid;
}

/// The JSON and CSV artifacts of one exploration, serialized in-memory.
struct Artifacts {
    std::string json;
    std::string csv;
};

/// Wall-clock fields differ between any two runs (traced or not); mask
/// them so the comparison pins everything else byte-exactly — including
/// the stage hit/miss counts, which tracing must not disturb.
std::string mask_timing(const std::string& json) {
    static const std::regex re("\"(compute|elapsed)_ms\": [0-9.]+");
    return std::regex_replace(json, re, "\"$1_ms\": <t>");
}

Artifacts run_once(EvalBackend backend, int threads, bool traced) {
    if (traced) {
        EXPECT_TRUE(obs::start_tracing());
    }
    const DesignSpec spec = make_benchmark("D_36_4");
    const ExploreResult res =
        Explorer(spec, fast_cfg(), backend_opts(backend, threads))
            .run(small_grid());
    if (traced) {
        // The trace must at least have recorded the per-point spans.
        EXPECT_GT(obs::trace_buffered_events(), 0u);
        obs::discard_trace();
    }
    Artifacts a;
    std::ostringstream js, cs;
    write_explore_json(js, res, "D_36_4");
    explore_table(res).write_csv(cs);
    a.json = js.str();
    a.csv = cs.str();
    return a;
}

class ObsIdentity : public ::testing::TestWithParam<
                        std::tuple<EvalBackend, int>> {};

TEST_P(ObsIdentity, ExportsByteIdenticalTracedVsUntraced) {
    const auto [backend, threads] = GetParam();
    const Artifacts plain = run_once(backend, threads, false);
    const Artifacts traced = run_once(backend, threads, true);
    // Stage misses are single-flight, so the hit/miss split is exact at
    // any thread count and is compared as is.
    EXPECT_EQ(mask_timing(plain.json), mask_timing(traced.json));
    EXPECT_EQ(plain.csv, traced.csv);
    EXPECT_NE(plain.json.find("\"stages\""), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndThreads, ObsIdentity,
    ::testing::Combine(::testing::Values(EvalBackend::Analytic,
                                         EvalBackend::Simulated),
                       ::testing::Values(1, 4)),
    [](const auto& info) {
        return std::string(std::get<0>(info.param) == EvalBackend::Analytic
                               ? "analytic"
                               : "simulated") +
               "_t" + std::to_string(std::get<1>(info.param));
    });

TEST(ObsIdentityTrace, MultithreadedExploreTraceIsWellFormed) {
    ASSERT_TRUE(obs::start_tracing());
    const DesignSpec spec = make_benchmark("D_36_4");
    Explorer(spec, fast_cfg(),
             backend_opts(EvalBackend::Simulated, 4))
        .run(small_grid());
    std::ostringstream os;
    ASSERT_TRUE(obs::stop_tracing(os));
    const std::string trace = os.str();

    const JsonParseResult parsed = parse_json(trace);
    EXPECT_TRUE(parsed.ok) << parsed.error;

    // Balanced begin/end pairs per (thread, span name), and the span
    // taxonomy the README documents actually shows up.
    static const std::regex re(
        "\\{\"name\": \"([^\"]+)\", \"cat\": \"[^\"]+\", \"ph\": "
        "\"([BE])\", \"ts\": [0-9.]+, \"pid\": 1, \"tid\": ([0-9]+)");
    std::map<std::pair<int, std::string>, int> open;
    std::map<std::string, int> begins;
    for (auto it = std::sregex_iterator(trace.begin(), trace.end(), re);
         it != std::sregex_iterator(); ++it) {
        const std::string name = (*it)[1];
        const int tid = std::stoi((*it)[3]);
        int& depth = open[{tid, name}];
        if ((*it)[2] == "B") {
            ++depth;
            ++begins[name];
        } else {
            --depth;
            ASSERT_GE(depth, 0) << "E before B for " << name;
        }
    }
    for (const auto& [key, depth] : open)
        EXPECT_EQ(depth, 0) << "unbalanced span " << key.second
                            << " on tid " << key.first;
    for (const char* name :
         {"explore.point", "explore.sim", "explore.pareto", "pool.task",
          "pipeline.partition", "pipeline.routing", "pipeline.evaluation",
          "sim.warmup", "sim.measure", "sim.drain", "lp.solve"})
        EXPECT_GT(begins[name], 0) << "missing span " << name;
}

}  // namespace
}  // namespace sunfloor
