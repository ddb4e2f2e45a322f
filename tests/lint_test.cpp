// Pins every sunfloor_lint rule on the purpose-built fixtures under
// tests/fixtures/lint/ (each fixture documents the lines its findings
// land on), the suppression mechanics, the JSON report shape, and the
// CLI exit codes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "sunfloor/lint/lint.h"
#include "sunfloor/util/json.h"

#ifndef _WIN32
#include <sys/wait.h>
#endif

namespace {

using sunfloor::lint::Finding;
using sunfloor::lint::SourceFile;
using sunfloor::lint::run_lint;

/// Load a fixture; the engine sees the fixture-relative path, so the
/// subdirectory (obs/, spec/, util/) drives the path-scoped rules
/// exactly as the real tree layout would.
SourceFile fixture(const std::string& rel) {
    const std::string full = std::string(SUNFLOOR_LINT_FIXTURES) + "/" + rel;
    std::ifstream in(full, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << full;
    std::ostringstream ss;
    ss << in.rdbuf();
    return {rel, ss.str()};
}

std::vector<Finding> lint_one(const std::string& rel) {
    return run_lint({fixture(rel)});
}

bool has_finding(const std::vector<Finding>& fs, const std::string& path,
                 int line, const std::string& rule) {
    return std::any_of(fs.begin(), fs.end(), [&](const Finding& f) {
        return f.path == path && f.line == line && f.rule == rule;
    });
}

TEST(LintTest, NondetRulesFireOnExactLines) {
    const auto fs = lint_one("bad/nondet.cpp");
    EXPECT_TRUE(has_finding(fs, "bad/nondet.cpp", 9, "nondet-pow"));
    EXPECT_TRUE(has_finding(fs, "bad/nondet.cpp", 10, "nondet-pow"));
    EXPECT_TRUE(has_finding(fs, "bad/nondet.cpp", 11, "nondet-rand"));
    EXPECT_TRUE(has_finding(fs, "bad/nondet.cpp", 12, "nondet-rand"));
    EXPECT_TRUE(has_finding(fs, "bad/nondet.cpp", 13, "nondet-rand"));
    EXPECT_TRUE(has_finding(fs, "bad/nondet.cpp", 14, "nondet-time"));
    EXPECT_TRUE(has_finding(fs, "bad/nondet.cpp", 15, "nondet-time"));
    EXPECT_EQ(fs.size(), 7u);  // nothing beyond the pinned lines
}

TEST(LintTest, CommentsAndStringsAreMasked) {
    EXPECT_TRUE(lint_one("good/masked.cpp").empty());
}

TEST(LintTest, ObsPathsExemptFromNondetTime) {
    EXPECT_TRUE(lint_one("obs/clock.cpp").empty());
}

TEST(LintTest, FloatFormatPinsSpecsInPinnedPaths) {
    const auto fs = lint_one("spec/writer.cpp");
    for (int line : {9, 10, 11, 12})
        EXPECT_TRUE(has_finding(fs, "spec/writer.cpp", line, "float-format"))
            << "line " << line;
    EXPECT_EQ(fs.size(), 4u);  // %.6g, %.17g, %% and %d all pass
}

TEST(LintTest, FloatFormatIgnoresUnpinnedPaths) {
    EXPECT_TRUE(lint_one("good/report.cpp").empty());
}

TEST(LintTest, UnorderedIterationInWriterFile) {
    const auto fs = lint_one("bad/export_iter.cpp");
    EXPECT_TRUE(has_finding(fs, "bad/export_iter.cpp", 12,
                            "unordered-iter-export"));
    EXPECT_TRUE(has_finding(fs, "bad/export_iter.cpp", 14,
                            "unordered-iter-export"));
    EXPECT_EQ(fs.size(), 2u);  // the sorted-copy loop passes
}

TEST(LintTest, UnorderedIterationFineWithoutWriter) {
    EXPECT_TRUE(lint_one("good/iter.cpp").empty());
}

TEST(LintTest, RawMutexOutsideUtil) {
    const auto fs = lint_one("bad/locks.cpp");
    EXPECT_TRUE(has_finding(fs, "bad/locks.cpp", 6, "raw-mutex"));
    EXPECT_TRUE(has_finding(fs, "bad/locks.cpp", 7, "raw-mutex"));
    EXPECT_TRUE(has_finding(fs, "bad/locks.cpp", 10, "raw-mutex"));
    EXPECT_EQ(fs.size(), 4u);  // lock_guard AND its mutex argument on 10
}

TEST(LintTest, RawMutexExemptInUtil) {
    EXPECT_TRUE(lint_one("util/locks.cpp").empty());
}

TEST(LintTest, EnumCoverageIsCrossFile) {
    const auto fs = run_lint(
        {fixture("bad/enums.h"), fixture("bad/enums_table.cpp")});
    ASSERT_EQ(fs.size(), 1u);  // Shape's table (with alias) is complete
    EXPECT_EQ(fs[0].path, "bad/enums_table.cpp");
    EXPECT_EQ(fs[0].line, 17);
    EXPECT_EQ(fs[0].rule, "enum-name-coverage");
    EXPECT_NE(fs[0].message.find("kBlue"), std::string::npos);
}

TEST(LintTest, SuppressionMechanics) {
    const auto fs = lint_one("bad/suppressed.cpp");
    // Reasoned same-line and above-line suppressions silence lines 6/10.
    EXPECT_FALSE(has_finding(fs, "bad/suppressed.cpp", 6, "nondet-pow"));
    EXPECT_FALSE(has_finding(fs, "bad/suppressed.cpp", 10, "nondet-pow"));
    // A reasonless suppression silences nothing and is itself flagged.
    EXPECT_TRUE(
        has_finding(fs, "bad/suppressed.cpp", 14, "suppression-syntax"));
    EXPECT_TRUE(has_finding(fs, "bad/suppressed.cpp", 15, "nondet-rand"));
    // Naming the wrong rule does not suppress.
    EXPECT_TRUE(has_finding(fs, "bad/suppressed.cpp", 18, "nondet-pow"));
    EXPECT_EQ(fs.size(), 3u);
}

TEST(LintTest, RuleIdsAreComplete) {
    const auto ids = sunfloor::lint::rule_ids();
    EXPECT_EQ(ids.size(), 8u);
    for (const char* want :
         {"nondet-pow", "nondet-rand", "nondet-time", "float-format",
          "unordered-iter-export", "raw-mutex", "enum-name-coverage",
          "suppression-syntax"})
        EXPECT_TRUE(std::any_of(ids.begin(), ids.end(), [&](const char* id) {
            return std::string_view(id) == want;
        })) << want;
}

TEST(LintTest, TextReportFormat) {
    std::ostringstream os;
    sunfloor::lint::write_text(
        os, {{"a/b.cpp", 7, "nondet-pow", "banned pow()"}});
    EXPECT_EQ(os.str(), "a/b.cpp:7: [nondet-pow] banned pow()\n");
}

TEST(LintTest, FindingsAreSortedByPathLineRule) {
    const auto fs = run_lint({fixture("bad/nondet.cpp"),
                              fixture("bad/locks.cpp"),
                              fixture("spec/writer.cpp")});
    ASSERT_GT(fs.size(), 1u);
    for (std::size_t i = 1; i < fs.size(); ++i) {
        const auto key = [](const Finding& f) {
            return std::tie(f.path, f.line, f.rule);
        };
        EXPECT_TRUE(key(fs[i - 1]) <= key(fs[i])) << "index " << i;
    }
}

TEST(LintTest, JsonReportValidates) {
    const auto fs = run_lint({fixture("bad/nondet.cpp"),
                              fixture("bad/suppressed.cpp"),
                              fixture("spec/writer.cpp")});
    ASSERT_FALSE(fs.empty());
    const std::string json = sunfloor::lint::to_json(fs);
    const sunfloor::JsonParseResult parsed = sunfloor::parse_json(json);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"count\": "), std::string::npos);
    // Empty reports are valid JSON too.
    const std::string empty = sunfloor::lint::to_json({});
    EXPECT_TRUE(sunfloor::parse_json(empty).ok);
    EXPECT_NE(empty.find("\"count\": 0"), std::string::npos);
}

#ifndef _WIN32

int run_cli(const std::string& args) {
    const std::string cmd =
        std::string(SUNFLOOR_LINT_BIN) + " " + args + " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(LintTest, CliExitCodes) {
    const std::string fx = SUNFLOOR_LINT_FIXTURES;
    EXPECT_EQ(run_cli("--list-rules"), 0);
    // Findings without --error-on-findings: reported, exit 0.
    EXPECT_EQ(run_cli(fx + "/bad/nondet.cpp"), 0);
    // CI mode: findings make the run fail.
    EXPECT_EQ(run_cli("--error-on-findings " + fx + "/bad/nondet.cpp"), 1);
    EXPECT_EQ(run_cli("--error-on-findings --format json " + fx +
                      "/bad/nondet.cpp"),
              1);
    // Clean input stays 0 even in CI mode.
    EXPECT_EQ(run_cli("--error-on-findings " + fx + "/good/masked.cpp"), 0);
    // Usage and I/O errors are 2, not 1.
    EXPECT_EQ(run_cli("--no-such-flag " + fx), 2);
    EXPECT_EQ(run_cli("--format yaml " + fx), 2);
    EXPECT_EQ(run_cli(fx + "/does-not-exist.cpp"), 2);
    EXPECT_EQ(run_cli(""), 2);  // no inputs
}

#endif  // !_WIN32

}  // namespace
