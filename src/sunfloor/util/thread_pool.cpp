#include "sunfloor/util/thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>

#include "sunfloor/obs/trace.h"

namespace sunfloor {

int ThreadPool::default_thread_count() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int num_threads) {
    if (num_threads <= 0) num_threads = default_thread_count();
    workers_.reserve(static_cast<std::size_t>(num_threads));
    try {
        for (int i = 0; i < num_threads; ++i)
            workers_.emplace_back([this] { worker_loop(); });
    } catch (...) {
        // The OS refused a thread. Unwinding past the running workers
        // would terminate the process (they are joinable) or hang (the
        // condition variable they wait on is destroyed), so they stop and
        // join before the error leaves the constructor.
        stop_and_join();
        throw;
    }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
    {
        util::MutexLock lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
    {
        util::MutexLock lock(mu_);
        queue_.push(std::move(task));
    }
    work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
    util::UniqueLock lock(mu_);
    while (!(queue_.empty() && busy_ == 0)) idle_cv_.wait(lock);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    // One task per worker pulling indices off a shared counter keeps the
    // queue small and balances uneven per-index cost.
    auto next = std::make_shared<std::atomic<std::size_t>>(0);
    auto aborted = std::make_shared<std::atomic<bool>>(false);
    util::Mutex ex_mu;
    std::exception_ptr first_ex;
    const int tasks = static_cast<int>(
        std::min<std::size_t>(n, static_cast<std::size_t>(num_threads())));
    for (int t = 0; t < tasks; ++t) {
        submit([next, aborted, n, &fn, &ex_mu, &first_ex] {
            for (std::size_t i = (*next)++; i < n && !*aborted;
                 i = (*next)++) {
                try {
                    fn(i);
                } catch (...) {
                    *aborted = true;  // skip the unclaimed indices
                    util::MutexLock lock(ex_mu);
                    if (!first_ex) first_ex = std::current_exception();
                }
            }
        });
    }
    wait_idle();
    if (first_ex) std::rethrow_exception(first_ex);
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            util::UniqueLock lock(mu_);
            while (!stop_ && queue_.empty()) work_cv_.wait(lock);
            if (queue_.empty()) return;  // stop_ set and nothing left to run
            task = std::move(queue_.front());
            queue_.pop();
            ++busy_;
        }
        try {
            obs::ScopedSpan span("pool.task");
            task();
        } catch (...) {
            // submit() discards escaping exceptions (see header); letting
            // one out of a worker thread would terminate the process.
        }
        {
            util::MutexLock lock(mu_);
            --busy_;
        }
        idle_cv_.notify_all();
    }
}

}  // namespace sunfloor
