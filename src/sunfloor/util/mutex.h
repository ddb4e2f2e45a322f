// Annotated mutex / condition-variable shim for the capability analysis.
//
// Thin wrappers over std::mutex / std::shared_mutex /
// std::condition_variable that carry the clang thread-safety attributes
// from util/annotations.h. All code in src/ uses these instead of the
// std types directly (enforced by the `raw-mutex` rule in sunfloor_lint)
// so that `-Werror=thread-safety` can prove lock discipline on every
// path at compile time.
//
//   util::Mutex     — exclusive capability; lock()/unlock()/try_lock().
//   util::MutexLock — RAII guard for a whole scope (std::lock_guard).
//   util::SharedMutex — shared/exclusive capability (std::shared_mutex):
//                     any number of readers, or one writer.
//   util::ReaderLock / util::WriterLock — whole-scope RAII guards that
//                     hold a SharedMutex shared (std::shared_lock) or
//                     exclusively (std::lock_guard). Data guarded by a
//                     SharedMutex reads under either guard; a write
//                     under a ReaderLock fails the analysis.
//   util::UniqueLock— RAII guard that can be dropped and re-taken inside
//                     the scope, and is the handle CondVar waits on
//                     (std::unique_lock).
//   util::CondVar   — condition variable. Deliberately has NO
//                     predicate-taking wait overloads: a lambda
//                     predicate is analyzed as a separate function, so
//                     guarded reads inside it defeat the checker. Write
//                     the loop out: `while (!pred) cv.wait(lk);`.
//
// Zero-cost: on non-clang builds everything inlines to the std types.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "sunfloor/util/annotations.h"

namespace sunfloor::util {

class CondVar;
class UniqueLock;

/// Exclusive-capability mutex (wraps std::mutex).
class SF_CAPABILITY("mutex") Mutex {
  public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() SF_ACQUIRE() { mu_.lock(); }
    void unlock() SF_RELEASE() { mu_.unlock(); }
    bool try_lock() SF_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  private:
    friend class UniqueLock;
    std::mutex mu_;
};

/// Lock-order tokens. Purely declarative capabilities — never locked at
/// run time — that let mutexes in *different* classes assert a global
/// acquisition order via SF_ACQUIRED_BEFORE/AFTER even when the peer
/// lock is a private member they cannot name. A mutex annotated
/// `SF_ACQUIRED_BEFORE(lock_rank::engine)` sorts before every mutex
/// annotated `SF_ACQUIRED_AFTER(lock_rank::channel)` etc.
namespace lock_rank {
/// Rank of `Channel<T>::mu_` (util/channel.h): a leaf hand-off lock,
/// fully released before any JobEngine method runs.
inline Mutex channel;
/// Rank of `service::JobEngine::mu_`: the engine's single state lock.
inline Mutex engine;
}  // namespace lock_rank

/// Whole-scope RAII guard (the std::lock_guard shape).
class SF_SCOPED_CAPABILITY MutexLock {
  public:
    explicit MutexLock(Mutex& mu) SF_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
    ~MutexLock() SF_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

  private:
    Mutex& mu_;
};

/// Shared/exclusive-capability mutex (wraps std::shared_mutex).
class SF_CAPABILITY("mutex") SharedMutex {
  public:
    SharedMutex() = default;
    SharedMutex(const SharedMutex&) = delete;
    SharedMutex& operator=(const SharedMutex&) = delete;

    void lock() SF_ACQUIRE() { mu_.lock(); }
    void unlock() SF_RELEASE() { mu_.unlock(); }
    void lock_shared() SF_ACQUIRE_SHARED() { mu_.lock_shared(); }
    void unlock_shared() SF_RELEASE_SHARED() { mu_.unlock_shared(); }

  private:
    std::shared_mutex mu_;
};

/// Whole-scope guard holding a SharedMutex shared.
class SF_SCOPED_CAPABILITY ReaderLock {
  public:
    explicit ReaderLock(SharedMutex& mu) SF_ACQUIRE_SHARED(mu) : mu_(mu) {
        mu_.lock_shared();
    }
    ~ReaderLock() SF_RELEASE() { mu_.unlock_shared(); }

    ReaderLock(const ReaderLock&) = delete;
    ReaderLock& operator=(const ReaderLock&) = delete;

  private:
    SharedMutex& mu_;
};

/// Whole-scope guard holding a SharedMutex exclusively.
class SF_SCOPED_CAPABILITY WriterLock {
  public:
    explicit WriterLock(SharedMutex& mu) SF_ACQUIRE(mu) : mu_(mu) {
        mu_.lock();
    }
    ~WriterLock() SF_RELEASE() { mu_.unlock(); }

    WriterLock(const WriterLock&) = delete;
    WriterLock& operator=(const WriterLock&) = delete;

  private:
    SharedMutex& mu_;
};

/// Droppable / re-takable RAII guard; the handle CondVar waits on.
class SF_SCOPED_CAPABILITY UniqueLock {
  public:
    explicit UniqueLock(Mutex& mu) SF_ACQUIRE(mu) : lk_(mu.mu_) {}
    ~UniqueLock() SF_RELEASE() {}  // lk_'s destructor releases iff held

    UniqueLock(const UniqueLock&) = delete;
    UniqueLock& operator=(const UniqueLock&) = delete;

    /// Re-acquire after unlock(); the analysis tracks the hand-off.
    void lock() SF_ACQUIRE() { lk_.lock(); }
    void unlock() SF_RELEASE() { lk_.unlock(); }
    bool owns_lock() const { return lk_.owns_lock(); }

  private:
    friend class CondVar;
    std::unique_lock<std::mutex> lk_;
};

/// Condition variable bound to util::UniqueLock.
///
/// wait() atomically releases and re-acquires the lock, so from the
/// caller's (and the analysis's) point of view the capability is held
/// continuously across the call — guarded reads in the surrounding
/// `while` loop check cleanly. No predicate overloads on purpose (see
/// file comment).
class CondVar {
  public:
    CondVar() = default;
    CondVar(const CondVar&) = delete;
    CondVar& operator=(const CondVar&) = delete;

    void wait(UniqueLock& lk) { cv_.wait(lk.lk_); }

    template <typename Clock, typename Duration>
    std::cv_status wait_until(
        UniqueLock& lk,
        const std::chrono::time_point<Clock, Duration>& deadline) {
        return cv_.wait_until(lk.lk_, deadline);
    }

    template <typename Rep, typename Period>
    std::cv_status wait_for(UniqueLock& lk,
                            const std::chrono::duration<Rep, Period>& d) {
        return cv_.wait_for(lk.lk_, d);
    }

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

}  // namespace sunfloor::util
