// sunfloor_lint: project-invariant checker for the source tree.
//
// The determinism and concurrency rules PRs 5-9 established by hand are
// machine-checked here: the engine scans C++ sources (comments and
// string literals masked out first, so prose never trips a rule) for
// the project's banned constructs and reports file:line diagnostics.
// The CLI wrapper (tools/sunfloor_lint.cpp) walks directories and is
// run over `src/ tests/ bench/ examples/ perfbench/` by the
// static-analysis CI job with --error-on-findings; tests/lint_test.cpp
// pins every rule on purpose-built fixtures.
//
// Rules (ids are what suppressions name):
//
//   nondet-pow       std::pow/powf/powl anywhere: last-ulp rounding
//                    varies across libms, breaking bit-identity. Use
//                    det_pow16 (specgen) or integer/sqrt math.
//   nondet-rand      rand()/srand()/std::random_device anywhere: all
//                    randomness must come from the portable seeded
//                    xoshiro Rng.
//   nondet-time      time(nullptr)/std::chrono::system_clock outside
//                    obs/ and bench/ paths: wall-clock in a keyed or
//                    exported path breaks reproducibility.
//                    (steady_clock durations are fine and unflagged.)
//   unordered-iter-export
//                    range-for over a std::unordered_{map,set} variable
//                    in a file that writes exports (declares a write_*/
//                    export_*/to_json/to_csv function): unordered
//                    iteration order is implementation-defined, so
//                    anything rendered from it can drift across
//                    platforms. Iterate a sorted copy or a std::map.
//   float-format     a printf float conversion other than the pinned
//                    %.6g (spec writer) / %.17g (metrics, protocol) in
//                    a pinned-format path (spec/, specgen/, cas/,
//                    obs/metrics.cpp, service/protocol.cpp).
//   raw-mutex        std::mutex (and friends: condition_variable,
//                    lock_guard, unique_lock, scoped_lock, shared_*,
//                    recursive_*) outside util/: all locking goes
//                    through the annotated util::Mutex shim
//                    (util/mutex.h) so clang's -Werror=thread-safety
//                    can prove lock discipline.
//   enum-name-coverage
//                    an EnumName<T> table (util/enum_names.h) missing
//                    an enumerator of T: the enum and its wire
//                    spellings have drifted apart.
//   suppression-syntax
//                    a lint:allow comment with no reason text — every
//                    suppression must say why.
//
// Suppressions: `// lint:allow(<rule>) <reason>` in a comment on the
// finding's line, or alone on the line directly above it. The reason is
// mandatory.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace sunfloor::lint {

/// One file handed to the engine; `path` drives the path-scoped rules
/// (use '/'-separated repo-relative paths).
struct SourceFile {
    std::string path;
    std::string content;
};

struct Finding {
    std::string path;
    int line = 0;  ///< 1-based
    std::string rule;
    std::string message;
};

/// Every rule id the engine knows, in report order.
std::span<const char* const> rule_ids();

/// Run every rule over `files` (cross-file rules like
/// enum-name-coverage see all of them at once). Findings are sorted by
/// (path, line, rule) and already filtered through suppressions.
std::vector<Finding> run_lint(const std::vector<SourceFile>& files);

/// "path:line: [rule] message" lines, one per finding.
void write_text(std::ostream& os, const std::vector<Finding>& findings);

/// JSON report:
///   {"schema_version": 1, "count": N,
///    "findings": [{"file": ..., "line": N, "rule": ..., "message": ...}]}
/// Parses with parse_json (pinned by lint_test).
std::string to_json(const std::vector<Finding>& findings);

}  // namespace sunfloor::lint
