// Small fixed-size thread pool with a FIFO work queue.
//
// The exploration engine shards independent synthesis runs across workers;
// nothing in the pool is specific to synthesis, so other sharded workloads
// (batch evaluation, multi-start annealing) can reuse it. Determinism is
// the caller's job: tasks must not share mutable state, and any randomness
// must be seeded per task, never per worker.
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "sunfloor/util/mutex.h"

namespace sunfloor {

class ThreadPool {
  public:
    /// Spawn `num_threads` workers; 0 picks the hardware concurrency.
    /// Throws std::system_error when the OS refuses a thread, after
    /// joining the workers already started.
    explicit ThreadPool(int num_threads = 0);

    /// Drains the queue (runs every pending task) before joining.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    int num_threads() const { return static_cast<int>(workers_.size()); }

    /// Enqueue one task. Exceptions escaping the task are discarded (a
    /// worker thread has nowhere to rethrow them); tasks that can fail
    /// should capture their own errors, or use parallel_for, which
    /// propagates the first exception to the caller.
    void submit(std::function<void()> task) SF_EXCLUDES(mu_);

    /// Block until the queue is empty and every worker is idle.
    void wait_idle() SF_EXCLUDES(mu_);

    /// Run fn(0) .. fn(n-1), distributing indices over the workers via a
    /// shared queue, and wait for all of them. The calling thread only
    /// coordinates. If any call throws, unclaimed indices are abandoned
    /// and the first exception (in completion order) is rethrown here.
    void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

    /// std::thread::hardware_concurrency with a sane floor of 1.
    static int default_thread_count();

  private:
    void worker_loop() SF_EXCLUDES(mu_);
    /// Let the workers finish the queue, then join them.
    void stop_and_join() SF_EXCLUDES(mu_);

    std::vector<std::thread> workers_;
    util::Mutex mu_;
    std::queue<std::function<void()>> queue_ SF_GUARDED_BY(mu_);
    util::CondVar work_cv_;   ///< signals workers: task or stop
    util::CondVar idle_cv_;   ///< signals waiters: possibly idle
    int busy_ SF_GUARDED_BY(mu_) = 0;
    bool stop_ SF_GUARDED_BY(mu_) = false;
};

}  // namespace sunfloor
