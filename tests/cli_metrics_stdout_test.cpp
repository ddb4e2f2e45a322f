// `sunfloor_cli ... --metrics -` streams the metrics snapshot to stdout
// for scripting (e.g. `| python3 -c 'import json,sys; json.load(sys.stdin)'`).
// stdout must then hold the JSON document and nothing else: the synth,
// explore and simulate subcommands move their human-readable report to
// stderr.
#include <gtest/gtest.h>

#include <string>

#include "cli_run.h"
#include "sunfloor/util/json.h"

namespace sunfloor {
namespace {

using cli::CliRun;

CliRun run_cli(const std::string& args) {
    return cli::run_tool(SUNFLOOR_CLI_BIN, args);
}

long long counter(const JsonValue& doc, const char* name) {
    const JsonValue* counters = doc.find("counters");
    const JsonValue* c = counters ? counters->find(name) : nullptr;
    return c && c->is_integer() ? c->as_int64() : -1;
}

// Parses stdout as one JSON document and returns it; fails the test
// (with the offending output) when anything else is on stdout.
JsonValue expect_json_only(const std::string& args) {
    const CliRun run = run_cli(args);
    EXPECT_EQ(run.exit_code, 0) << args;
    const JsonParseResult parsed = parse_json(run.out);
    EXPECT_TRUE(parsed.ok) << args << ": " << parsed.error << "\nstdout:\n"
                           << run.out.substr(0, 400);
    if (parsed.ok) {
        const JsonValue* version = parsed.value.find("schema_version");
        EXPECT_TRUE(version && version->is_integer() &&
                    version->as_int64() == 1)
            << args;
    }
    return parsed.value;
}

TEST(CliMetricsStdout, SynthWritesOnlyTheSnapshot) {
    const JsonValue doc = expect_json_only(
        "--benchmark D_26_media --no-floorplan --metrics -");
    // The routing outcome counters partition the stage's misses.
    const long long misses = counter(doc, "pipeline.routing.misses");
    EXPECT_GT(misses, 0);
    EXPECT_EQ(counter(doc, "pipeline.routing.routed") +
                  counter(doc, "pipeline.routing.paths_failed") +
                  counter(doc, "pipeline.routing.pruned_switch_size") +
                  counter(doc, "pipeline.routing.pruned_ill"),
              misses);
}

TEST(CliMetricsStdout, ExploreWritesOnlyTheSnapshot) {
    const JsonValue doc = expect_json_only(
        "explore --benchmark D_26_media --freq 400,500 --no-floorplan "
        "--threads 2 --metrics -");
    EXPECT_EQ(counter(doc, "explore.points.total"), 2);
}

TEST(CliMetricsStdout, SimulateWritesOnlyTheSnapshot) {
    expect_json_only(
        "simulate --benchmark D_26_media --no-floorplan --measure 500 "
        "--rate 0.5 --metrics -");
}

TEST(CliMetricsStdout, ReportStaysOnStdoutWithoutTheFlag) {
    const CliRun run = run_cli("--benchmark D_26_media --no-floorplan");
    EXPECT_EQ(run.exit_code, 0);
    EXPECT_NE(run.out.find("overall best"), std::string::npos) << run.out;
}

}  // namespace
}  // namespace sunfloor
