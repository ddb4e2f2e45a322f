// The command-line contract of sunfloor_cli, sunfloord and
// sunfloor_shard_worker: every value-taking flag with no value, every
// malformed value and every unknown option exits 2 with the flag named
// on stderr, before any work starts; explore's cross-flag rules each
// exit 2 with their message whatever the flag order; and the outputs
// that take no synthesis run (the benchmark list, a generated spec,
// `cas stats` on an empty store) are pinned byte for byte.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "cli_run.h"

namespace sunfloor {
namespace {

using cli::CliRun;

namespace fs = std::filesystem;

/// A scratch directory holding a two-core design file, shared by the
/// suite and removed at exit.
const fs::path& scratch() {
    struct Dir {
        fs::path path;
        ~Dir() {
            std::error_code ec;
            fs::remove_all(path, ec);
        }
    };
    static const Dir dir{[] {
        std::string tmpl =
            (fs::temp_directory_path() / "sunfloor_flags_XXXXXX").string();
        const fs::path d = mkdtemp(tmpl.data());
        std::ofstream(d / "tiny.txt") << "core a 1 1 0 0 0\n"
                                         "core b 1 1 1.2 0 1\n"
                                         "flow a b 200 10 req\n"
                                         "flow b a 100 10 rsp\n";
        fs::create_directory(d / "cas");
        return d;
    }()};
    return dir.path;
}

std::string tiny() { return (scratch() / "tiny.txt").string(); }

/// A socket path nothing listens on: a submit that got past its parse
/// would fail to connect and exit 1, not 2.
std::string no_daemon() { return (scratch() / "none.sock").string(); }

CliRun cli_run(const std::string& args) {
    return cli::run_tool(SUNFLOOR_CLI_BIN, args);
}

/// One command line: the binary, the arguments that make the rest of
/// the line valid, and each value-taking flag with a value it rejects
/// ("" for flags that take any string).
struct Command {
    std::string binary;
    std::string prefix;
    std::vector<std::pair<std::string, std::string>> flags;
};

std::vector<Command> commands() {
    const std::string cli = SUNFLOOR_CLI_BIN;
    const std::vector<std::pair<std::string, std::string>> gen = {
        {"--cores", "x"},   {"--layers", "1.5"}, {"--peak-bw", "x"},
        {"--skew", "inf"},  {"--lat-slack", "x"}, {"--resp", "x"},
        {"--hubs", "x"},    {"--hotspot", "x"},  {"--stages", "x"},
        {"--fanout", "x"}};
    Command explore{cli, "explore --design " + tiny(),
                    {{"--design", ""},
                     {"--benchmark", ""},
                     {"--family", "ring"},
                     {"--freq", "400,0"},
                     {"--max-tsvs", "x"},
                     {"--width", "x"},
                     {"--phase", "3"},
                     {"--theta", "1,x"},
                     {"--routing", "xy"},
                     {"--alpha", "x"},
                     {"--threads", "x"},
                     {"--seed", "-1"},
                     {"--backend", "exact"},
                     {"--rate", "-1"},
                     {"--traffic", "x"},
                     {"--packet-len", "0"},
                     {"--shards", "0"},
                     {"--shard-addrs", ""},
                     {"--cas", ""},
                     {"--out", ""},
                     {"--instances", "0"},
                     {"--gen-seed", "-1"},
                     {"--trace", ""},
                     {"--metrics", ""}}};
    explore.flags.insert(explore.flags.end(), gen.begin(), gen.end());
    Command generate{cli,
                     "generate --family pipeline",
                     {{"--family", "ring"}, {"--seed", "x"}, {"--out", ""}}};
    generate.flags.insert(generate.flags.end(), gen.begin(), gen.end());
    return {
        {cli,
         "--design " + tiny(),
         {{"--design", ""},
          {"--benchmark", ""},
          {"--freq", "x"},
          {"--max-ill", "x"},
          {"--alpha", "nan"},
          {"--phase", "x"},
          {"--routing", "x"},
          {"--seed", "-1"},
          {"--out", ""},
          {"--trace", ""},
          {"--metrics", ""}}},
        explore,
        {cli,
         "simulate --design " + tiny(),
         {{"--design", ""},
          {"--benchmark", ""},
          {"--freq", "0"},
          {"--max-ill", "x"},
          {"--alpha", "x"},
          {"--phase", "x"},
          {"--routing", "x"},
          {"--seed", "x"},
          {"--rate", "0.5,-1"},
          {"--traffic", "x"},
          {"--packet-len", "0"},
          {"--buffers", "0"},
          {"--warmup", "-1"},
          {"--measure", "0"},
          {"--out", ""},
          {"--trace", ""},
          {"--metrics", ""}}},
        generate,
        {cli,
         "submit --connect " + no_daemon() + " --design " + tiny(),
         {{"--connect", ""},
          {"--design", ""},
          {"--benchmark", ""},
          {"--client", ""},
          {"--freq", "x"},
          {"--max-tsvs", "x"},
          {"--width", "x"},
          {"--phase", "x"},
          {"--theta", "x"},
          {"--routing", "x"},
          {"--alpha", "x"},
          {"--seed", "-1"}}},
        {cli,
         "status --connect " + no_daemon() + " --id 1",
         {{"--connect", ""}, {"--id", "-1"}}},
        {cli,
         "result --connect " + no_daemon() + " --id 1",
         {{"--connect", ""}, {"--id", "x"}}},
        {cli,
         "cas stats --cas " + (scratch() / "cas").string(),
         {{"--cas", ""}, {"--max-bytes", "-1"}}},
        // No --listen: a flag the daemon accepted would end in the
        // "requires --listen" error, which the checks below tell apart.
        {SUNFLOORD_BIN,
         "",
         {{"--listen", ""},
          {"--workers", "-1"},
          {"--queue-depth", "0"},
          {"--quota", "0"},
          {"--sessions", "0"},
          {"--explore-threads", "0"},
          {"--conn-threads", "0"},
          {"--max-frame-bytes", "1023"},
          {"--trace", ""},
          {"--metrics", ""}}},
        {SUNFLOOR_SHARD_WORKER_BIN,
         "",
         {{"--listen", ""},
          {"--conn-threads", "x"},
          {"--max-frame-bytes", "x"},
          {"--trace", ""},
          {"--metrics", ""}}},
    };
}

/// Exit 2 with `flag` on stderr, and the failure is the parse's: not a
/// check that runs after it (a missing source, --connect or --listen).
void expect_parse_error(const std::string& binary, const std::string& args,
                        const std::string& flag) {
    const CliRun run = cli::run_tool(binary, args);
    EXPECT_EQ(run.exit_code, 2) << args << "\nstderr:\n" << run.err;
    EXPECT_NE(run.err.find(flag), std::string::npos) << args << "\n"
                                                     << run.err;
    EXPECT_EQ(run.err.find("requires"), std::string::npos) << args << "\n"
                                                           << run.err;
    EXPECT_EQ(run.err.find("exactly one"), std::string::npos)
        << args << "\n"
        << run.err;
    EXPECT_EQ(run.out, "") << args;
}

TEST(CliFlags, EveryValueFlagWithoutAValueExits2) {
    for (const Command& c : commands())
        for (const auto& [flag, bad] : c.flags)
            expect_parse_error(c.binary, c.prefix + " " + flag, flag);
}

TEST(CliFlags, EveryMalformedValueExits2NamingTheFlag) {
    for (const Command& c : commands())
        for (const auto& [flag, bad] : c.flags)
            if (!bad.empty())
                expect_parse_error(c.binary,
                                   c.prefix + " " + flag + " '" + bad + "'",
                                   flag);
}

TEST(CliFlags, UnknownOptionExits2) {
    for (const Command& c : commands()) {
        const CliRun run = cli::run_tool(c.binary, c.prefix + " --frobnicate");
        EXPECT_EQ(run.exit_code, 2) << c.prefix;
        EXPECT_NE(run.err.find("unknown option '--frobnicate'"),
                  std::string::npos)
            << c.prefix << "\n"
            << run.err;
    }
}

TEST(CliFlags, UnknownOrMissingCasOperationExits2) {
    for (const char* args : {"cas", "cas prune --cas x"}) {
        const CliRun run = cli_run(args);
        EXPECT_EQ(run.exit_code, 2) << args;
    }
}

// ------------------------------------------------- explore's flag rules

void expect_rule(const std::string& args, const std::string& message) {
    const CliRun run = cli_run("explore " + args);
    EXPECT_EQ(run.exit_code, 2) << args << "\n" << run.err;
    EXPECT_NE(run.err.find(message), std::string::npos)
        << args << "\nstderr:\n"
        << run.err;
}

TEST(CliFlags, ExploreNeedsExactlyOneSource) {
    expect_rule("", "--family");
    expect_rule("--design " + tiny() + " --benchmark D_36_4", "--family");
    expect_rule("--benchmark D_36_4 --family hub", "--design");
}

TEST(CliFlags, ExploreSimOnlyFlagsNeedTheSimBackend) {
    for (const std::string f : {"--rate 0.5", "--traffic bursty",
                                 "--packet-len 2"})
        expect_rule("--design " + tiny() + " " + f,
                    f.substr(0, f.find(' ')) +
                        " only affects the simulated backend; add "
                        "--backend sim");
}

TEST(CliFlags, ExploreFamilyOnlyFlagsNeedFamily) {
    for (const std::string f : {"--cores 8", "--hubs 3", "--instances 2",
                                 "--gen-seed 4"})
        expect_rule("--design " + tiny() + " " + f,
                    f.substr(0, f.find(' ')) +
                        " only affects generated families; add --family");
}

TEST(CliFlags, ExploreShardsAndCasDoNotApplyToFamilies) {
    expect_rule("--family hub --shards 2",
                "--shards/--cas do not apply to generated families");
    expect_rule("--family hub --cas " + (scratch() / "cas").string(),
                "--shards/--cas do not apply to generated families");
}

// The transport follows from --shard-addrs, and only `cas gc
// --max-bytes` bounds a store: the two flags that restated those are
// gone, and naming one is a parse error like any unknown option.
TEST(CliFlags, ExploreNoLongerTakesShardTransportOrCasMaxBytes) {
    for (const std::string f : {"--shard-transport", "--cas-max-bytes"}) {
        const CliRun run =
            cli_run("explore --design " + tiny() + " --shards 2 " + f + " 1");
        EXPECT_EQ(run.exit_code, 2) << f << "\n" << run.err;
        EXPECT_NE(run.err.find("unknown option '" + f + "'"),
                  std::string::npos)
            << f << "\n"
            << run.err;
    }
}

// The rules read parsed values: a dependent flag before the flag it
// depends on is accepted like the other order, with the same output.
TEST(CliFlags, ExploreRulesIgnoreFlagOrder) {
    const std::string base =
        "explore --design " + tiny() + " --no-floorplan --threads 1";
    const CliRun before = cli_run(base + " --rate 0.5 --backend sim");
    const CliRun after = cli_run(base + " --backend sim --rate 0.5");
    EXPECT_EQ(before.exit_code, 0) << before.err;
    EXPECT_EQ(after.exit_code, 0) << after.err;
    EXPECT_NE(before.out.find("rate 0.50"), std::string::npos) << before.out;
    const std::regex timing("[0-9.]+ ms");
    EXPECT_EQ(std::regex_replace(before.out, timing, "ms"),
              std::regex_replace(after.out, timing, "ms"));
}

// ------------------------- inputs that were ignored or misread earlier

// -1 is ParamGrid's "keep the sweep" sentinel; it is not a theta.
TEST(CliFlags, ExploreRejectsThetaMinusOne) {
    expect_rule("--design " + tiny() + " --theta -1 --no-floorplan",
                "--theta");
}

TEST(CliFlags, ExploreRejectsNegativeThreads) {
    expect_rule("--design " + tiny() + " --no-floorplan --threads -3",
                "--threads");
}

// Out-of-domain axis values exit 2 before the spec is shipped, like the
// one-shot subcommands (the daemon keeps its own checks).
TEST(CliFlags, SubmitRejectsOutOfDomainAxisValues) {
    for (const auto& [flag, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"--freq", "-5"}, {"--max-tsvs", "0"}, {"--width", "0"},
             {"--theta", "-1"}})
        expect_parse_error(
            SUNFLOOR_CLI_BIN,
            "submit --connect " + no_daemon() + " --design " + tiny() +
                " --explore " + flag + " " + value,
            flag);
}

// ----------------------------------------------------------- stdout pins

TEST(CliFlags, ListBenchmarksPin) {
    const CliRun run = cli_run("--list-benchmarks");
    EXPECT_EQ(run.exit_code, 0);
    EXPECT_EQ(run.out,
              "D_26_media\nD_36_4\nD_36_6\nD_36_8\nD_35_bot\nD_65_pipe\n"
              "D_38_tvopd\n");
}

TEST(CliFlags, GenerateBytesPin) {
    const CliRun run =
        cli_run("generate --family hub --cores 5 --layers 2 --seed 4");
    EXPECT_EQ(run.exit_code, 0) << run.err;
    EXPECT_EQ(run.out,
              "# design: gen_hub_n5_s4\n"
              "core hub0 1.4 1.15 0 0 1\n"
              "core hub1 1.3 1.5 1.41 0 1\n"
              "core n0 1.15 0.75 0 0 0\n"
              "core n1 1.05 1.15 0 0.76 0\n"
              "core n2 1.4 0.9 0 1.51 1\n"
              "flow n0 hub0 225 18 req\n"
              "flow hub0 n0 225 15 rsp\n"
              "flow n1 hub1 225 13.5 req\n"
              "flow hub1 n1 225 15 rsp\n"
              "flow n2 hub0 225 13.5 req\n"
              "flow hub0 n2 225 16.5 rsp\n"
              "flow n0 n1 150 10.5 req\n"
              "flow n0 n2 150 13.5 req\n"
              "flow n1 n0 150 9 req\n");
}

TEST(CliFlags, CasStatsOnAnEmptyStorePin) {
    const fs::path dir = scratch() / "empty_store";
    fs::create_directory(dir);
    const CliRun run = cli_run("cas stats --cas " + dir.string());
    EXPECT_EQ(run.exit_code, 0) << run.err;
    EXPECT_EQ(run.out, dir.string() + ": 0 object(s), 0.00 MB\n");
}

}  // namespace
}  // namespace sunfloor
