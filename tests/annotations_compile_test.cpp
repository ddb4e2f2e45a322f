// Pins the thread-safety capability analysis (util/annotations.h +
// util/mutex.h) by invoking the configured compiler at test time:
//
//   * fixtures/annotations/good.cpp (correct discipline) must pass
//     `-fsyntax-only -Werror=thread-safety`,
//   * fixtures/annotations/bad.cpp (guarded read without the lock,
//     REQUIRES call without the capability) must FAIL it — the
//     negative test that proves the analysis is wired up rather than
//     silently compiled out,
//   * fixtures/annotations/bad_shared.cpp (a guarded write holding a
//     util::SharedMutex only through a ReaderLock) must FAIL it too,
//   * representative migrated sources (thread_pool, metrics) must pass
//     the same flags, pinning the tree-wide zero-warning state CI
//     enforces with SUNFLOOR_WERROR_THREAD_SAFETY=ON.
//
// The analysis is clang-only (the SF_* macros expand to nothing
// elsewhere), so under other compilers every case GTEST_SKIPs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <string_view>

#ifndef _WIN32
#include <sys/wait.h>
#endif

namespace {

bool compiler_is_clang() {
    return std::string_view(SUNFLOOR_CXX_COMPILER_ID).find("Clang") !=
           std::string_view::npos;
}

/// Exit status of `<CXX> -std=c++20 -fsyntax-only -Werror=thread-safety`
/// on `rel` (repo-relative), or -1 when the compiler could not run.
int syntax_check(const std::string& rel) {
#ifdef _WIN32
    return -1;
#else
    const std::string src = std::string(SUNFLOOR_SOURCE_DIR) + "/" + rel;
    const std::string cmd = std::string(SUNFLOOR_CXX_COMPILER) +
                            " -std=c++20 -fsyntax-only" +
                            " -Wthread-safety -Werror=thread-safety -I " +
                            SUNFLOOR_SOURCE_DIR + "/src " + src +
                            " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
#endif
}

TEST(AnnotationsCompileTest, GoodDisciplineCompiles) {
    if (!compiler_is_clang())
        GTEST_SKIP() << "thread-safety analysis is clang-only (compiler: "
                     << SUNFLOOR_CXX_COMPILER_ID << ")";
    EXPECT_EQ(syntax_check("tests/fixtures/annotations/good.cpp"), 0);
}

TEST(AnnotationsCompileTest, BadDisciplineFailsToCompile) {
    if (!compiler_is_clang())
        GTEST_SKIP() << "thread-safety analysis is clang-only (compiler: "
                     << SUNFLOOR_CXX_COMPILER_ID << ")";
    // A known-bad snippet must be REJECTED: this is what proves the
    // annotations are load-bearing.
    const int rc = syntax_check("tests/fixtures/annotations/bad.cpp");
    EXPECT_GT(rc, 0) << "bad.cpp compiled clean: the thread-safety "
                        "analysis is not actually running";
}

TEST(AnnotationsCompileTest, WriteUnderReaderLockFailsToCompile) {
    if (!compiler_is_clang())
        GTEST_SKIP() << "thread-safety analysis is clang-only (compiler: "
                     << SUNFLOOR_CXX_COMPILER_ID << ")";
    // A shared hold must not license a write: what keeps a cache's
    // lookups under a ReaderLock from mutating the map they share.
    const int rc = syntax_check("tests/fixtures/annotations/bad_shared.cpp");
    EXPECT_GT(rc, 0) << "bad_shared.cpp compiled clean: a ReaderLock "
                        "grants writes";
}

TEST(AnnotationsCompileTest, MigratedSourcesStayWarningFree) {
    if (!compiler_is_clang())
        GTEST_SKIP() << "thread-safety analysis is clang-only (compiler: "
                     << SUNFLOOR_CXX_COMPILER_ID << ")";
    for (const char* rel : {"src/sunfloor/util/thread_pool.cpp",
                            "src/sunfloor/obs/metrics.cpp"})
        EXPECT_EQ(syntax_check(rel), 0) << rel;
}

}  // namespace
