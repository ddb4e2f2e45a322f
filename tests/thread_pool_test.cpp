// Unit tests for the worker pool under the exploration engine.
#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "sunfloor/util/thread_pool.h"

// An address-space limit breaks the sanitizers' shadow mappings.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SUNFLOOR_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SUNFLOOR_SANITIZED 1
#endif
#endif

namespace sunfloor {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i) pool.submit([&count] { ++count; });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
    ThreadPool pool(2);
    pool.wait_idle();  // must not hang
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    pool.parallel_for(hits.size(),
                      [&hits](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroAndFewerItemsThanThreads) {
    ThreadPool pool(8);
    pool.parallel_for(0, [](std::size_t) { FAIL(); });
    std::atomic<int> count{0};
    pool.parallel_for(3, [&count](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, SequentialBatchesReuseWorkers) {
    ThreadPool pool(2);
    std::atomic<long> sum{0};
    for (int round = 0; round < 5; ++round)
        pool.parallel_for(100, [&sum](std::size_t i) {
            sum += static_cast<long>(i);
        });
    EXPECT_EQ(sum.load(), 5 * (99 * 100 / 2));
}

TEST(ThreadPool, DestructorDrainsQueue) {
    std::atomic<int> count{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 50; ++i) pool.submit([&count] { ++count; });
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ParallelForRethrowsTaskException) {
    ThreadPool pool(4);
    std::atomic<int> count{0};
    EXPECT_THROW(pool.parallel_for(100,
                                   [&count](std::size_t i) {
                                       if (i == 17)
                                           throw std::runtime_error("boom");
                                       ++count;
                                   }),
                 std::runtime_error);
    // Indices claimed before the failure ran; the rest were abandoned.
    EXPECT_GE(count.load(), 17);
    EXPECT_LE(count.load(), 99);
    // The pool stays usable afterwards.
    const int before = count.load();
    pool.parallel_for(10, [&count](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), before + 10);
}

TEST(ThreadPool, SubmittedTaskExceptionDoesNotWedgeThePool) {
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([] { throw std::runtime_error("dropped"); });
    pool.submit([&count] { ++count; });
    pool.wait_idle();  // must not hang on the failed task's busy count
    EXPECT_EQ(count.load(), 1);
}

/// This process's address-space size in bytes (VmSize), or 0.
rlim_t vm_size_bytes() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmSize:", 0) == 0)
            return static_cast<rlim_t>(std::stoull(line.substr(7))) * 1024;
    return 0;
}

TEST(ThreadPool, RefusedThreadFailsTheConstructorNotTheProcess) {
#ifdef SUNFLOOR_SANITIZED
    GTEST_SKIP() << "an address-space limit breaks the sanitizer runtime";
#endif
    // A child whose address space holds about two more thread stacks asks
    // for eight workers: the third start fails, and the constructor must
    // throw std::system_error with the two running workers joined. Left
    // running, they make the unwinding either terminate (destroying them
    // joinable) or hang (destroying the condition variable they wait on).
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: no gtest machinery, report through the exit code.
        pthread_attr_t attr;
        std::size_t stack = 0;
        if (::pthread_getattr_default_np(&attr) != 0) ::_exit(3);
        const bool sized = ::pthread_attr_getstacksize(&attr, &stack) == 0;
        ::pthread_attr_destroy(&attr);
        if (!sized) ::_exit(3);
        const rlim_t vm = vm_size_bytes();
        if (vm == 0) ::_exit(4);
        const rlim_t limit = vm + static_cast<rlim_t>(stack) * 5 / 2;
        const rlimit as{limit, limit};
        if (::setrlimit(RLIMIT_AS, &as) != 0) ::_exit(5);
        try {
            ThreadPool pool(8);
        } catch (const std::system_error&) {
            ::_exit(0);
        }
        ::_exit(2);  // every thread started: the limit did not bite
    }
    // The child takes a millisecond; one still running after 20 s hangs.
    int status = 0;
    pid_t done = 0;
    for (int waited_ms = 0; done == 0 && waited_ms < 20000; waited_ms += 10) {
        done = ::waitpid(pid, &status, WNOHANG);
        if (done == 0) ::usleep(10000);
    }
    if (done == 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        FAIL() << "the child hung in ThreadPool's constructor";
    }
    ASSERT_EQ(done, pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                   << (WIFSIGNALED(status) ? WTERMSIG(status)
                                                           : 0);
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ThreadPool, DefaultThreadCountPositive) {
    EXPECT_GE(ThreadPool::default_thread_count(), 1);
    ThreadPool pool(0);
    EXPECT_EQ(pool.num_threads(), ThreadPool::default_thread_count());
}

}  // namespace
}  // namespace sunfloor
