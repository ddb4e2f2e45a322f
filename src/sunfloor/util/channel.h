// Bounded multi-producer channel with blocking and non-blocking ends.
//
// The service layer's hand-off primitive: producers push work items,
// consumers pop them in global FIFO order (a single lock orders every
// push, so each producer's items are also received in the order it sent
// them). Capacity is a hard bound — a full channel blocks senders (or
// fails try_send), which is what turns an accept loop or a submission
// path into back-pressure instead of unbounded queue growth.
//
// Shutdown contract: close() wakes everything. Senders blocked in send()
// return false immediately; receivers drain whatever was accepted before
// the close and then recv() returns false. Nothing sent after close() is
// accepted, so "close, then join the consumers" is a complete shutdown.
//
// Lock-order contract with service::JobEngine
// -------------------------------------------
// The shared accept loop (service/accept_loop.h) hands accepted sockets
// to handler threads through a Channel<int>; under service::Server each
// handler then calls into the JobEngine (submit/status/wait), which takes
// the engine's own mutex. The channel
// lock `mu_` is a *leaf*: every Channel method fully releases it before
// returning (including before notifying a condition variable), and the
// channel never invokes user code, so no thread can hold `mu_` while
// acquiring `JobEngine::mu_` through this class. The reverse nesting —
// calling a *blocking* Channel method while holding the engine lock —
// must never be introduced: send()/recv() park on a condition variable,
// and parking while holding the engine lock would stall every engine
// client behind channel back-pressure. That ordering (channel lock
// strictly before engine lock) is asserted statically below via
// SF_ACQUIRED_BEFORE on the lock_rank tokens, and JobEngine::mu_
// carries the matching SF_ACQUIRED_AFTER.
#pragma once

#include <cstddef>
#include <deque>
#include <utility>

#include "sunfloor/util/mutex.h"

namespace sunfloor {

/// Outcome of a non-blocking send: the two failure modes are distinct so
/// callers can tell back-pressure ("try again / reject with queue-full")
/// from shutdown ("stop producing").
enum class TrySend { Ok, Full, Closed };

/// Outcome of a non-blocking receive; Closed means closed *and* drained.
enum class TryRecv { Ok, Empty, Closed };

template <typename T>
class Channel {
  public:
    /// A channel holding at most `capacity` items (minimum 1).
    explicit Channel(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity) {}

    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;

    /// Block until there is room (or the channel closes); false when the
    /// value was not accepted because of a close.
    bool send(T value) SF_EXCLUDES(mu_) {
        util::UniqueLock lock(mu_);
        while (!closed_ && items_.size() >= capacity_) send_cv_.wait(lock);
        if (closed_) return false;
        items_.push_back(std::move(value));
        lock.unlock();
        recv_cv_.notify_one();
        return true;
    }

    /// Non-blocking send; never waits for room.
    TrySend try_send(T value) SF_EXCLUDES(mu_) {
        util::UniqueLock lock(mu_);
        if (closed_) return TrySend::Closed;
        if (items_.size() >= capacity_) return TrySend::Full;
        items_.push_back(std::move(value));
        lock.unlock();
        recv_cv_.notify_one();
        return TrySend::Ok;
    }

    /// Block until an item arrives (or the channel closes empty); false
    /// only when closed and fully drained.
    bool recv(T& out) SF_EXCLUDES(mu_) {
        util::UniqueLock lock(mu_);
        while (!closed_ && items_.empty()) recv_cv_.wait(lock);
        if (items_.empty()) return false;  // closed and drained
        out = std::move(items_.front());
        items_.pop_front();
        lock.unlock();
        send_cv_.notify_one();
        return true;
    }

    /// Non-blocking receive; Empty leaves `out` untouched.
    TryRecv try_recv(T& out) SF_EXCLUDES(mu_) {
        util::UniqueLock lock(mu_);
        if (items_.empty()) return closed_ ? TryRecv::Closed : TryRecv::Empty;
        out = std::move(items_.front());
        items_.pop_front();
        lock.unlock();
        send_cv_.notify_one();
        return TryRecv::Ok;
    }

    /// Close the channel: wakes every blocked sender (they return false)
    /// and every blocked receiver (they drain, then return false).
    /// Idempotent. The wake happens strictly after `mu_` is released —
    /// close() never notifies while holding the lock, so woken waiters
    /// re-acquire without an immediate convoy.
    void close() SF_EXCLUDES(mu_) {
        {
            util::MutexLock lock(mu_);
            closed_ = true;
        }
        send_cv_.notify_all();
        recv_cv_.notify_all();
    }

    bool closed() const SF_EXCLUDES(mu_) {
        util::MutexLock lock(mu_);
        return closed_;
    }

    /// Items currently buffered (a snapshot; racy by nature).
    std::size_t size() const SF_EXCLUDES(mu_) {
        util::MutexLock lock(mu_);
        return items_.size();
    }

    std::size_t capacity() const { return capacity_; }

  private:
    const std::size_t capacity_;
    /// Leaf lock; see the lock-order contract in the file comment.
    mutable util::Mutex mu_ SF_ACQUIRED_BEFORE(util::lock_rank::engine);
    util::CondVar send_cv_;  ///< signals senders: room or closed
    util::CondVar recv_cv_;  ///< signals receivers: item or closed
    std::deque<T> items_ SF_GUARDED_BY(mu_);
    bool closed_ SF_GUARDED_BY(mu_) = false;
};

}  // namespace sunfloor
