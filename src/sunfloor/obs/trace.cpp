#include "sunfloor/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <ostream>
#include <vector>

#include "sunfloor/util/mutex.h"
#include "sunfloor/util/strings.h"

namespace sunfloor::obs {

namespace detail {

std::atomic<bool> g_tracing{false};

namespace {

struct TraceEvent {
    const char* name;
    const char* arg_name;  ///< nullptr = no args object
    long long arg_value;
    std::uint64_t ts_ns;   ///< since start_tracing()
    char phase;            ///< 'B' or 'E'
};

/// One thread's recording buffer. Owned jointly by the thread (its
/// thread_local slot) and the global buffer list, so a worker thread
/// exiting before stop_tracing() leaves its events intact.
struct ThreadBuffer {
    std::vector<TraceEvent> events;
    std::uint32_t tid = 0;
};

util::Mutex g_mu;
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers SF_GUARDED_BY(g_mu);
std::uint32_t g_next_tid SF_GUARDED_BY(g_mu) = 1;
/// Written under g_mu by start_tracing() (a quiescent point — see the
/// header contract), then read lock-free by now_ns() on every record.
/// Deliberately NOT guarded_by(g_mu): the quiescence contract, not the
/// lock, is what makes the reads safe.
std::chrono::steady_clock::time_point g_t0;
/// Bumped on start_tracing(); a thread whose cached buffer belongs to an
/// earlier trace re-registers instead of appending to stale storage.
std::atomic<std::uint64_t> g_epoch{0};

struct ThreadSlot {
    std::shared_ptr<ThreadBuffer> buf;
    std::uint64_t epoch = 0;
};

ThreadBuffer& thread_buffer() {
    thread_local ThreadSlot slot;
    // Lock-free steady state: after a thread's first span of a trace its
    // cached buffer matches the epoch and appends take no lock.
    const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
    if (slot.epoch != epoch || !slot.buf) {
        util::MutexLock lock(g_mu);
        slot.buf = std::make_shared<ThreadBuffer>();
        slot.buf->tid = g_next_tid++;
        slot.epoch = epoch;
        g_buffers.push_back(slot.buf);
    }
    return *slot.buf;
}

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - g_t0)
            .count());
}

void record(const char* name, char phase, const char* arg_name,
            long long arg_value) {
    // The common case takes no lock: the buffer was registered on this
    // thread's first span of the trace and only this thread appends.
    thread_buffer().events.push_back(
        {name, arg_name, arg_value, now_ns(), phase});
}

}  // namespace

void span_begin(const char* name) { record(name, 'B', nullptr, 0); }

void span_begin(const char* name, const char* arg_name, long long arg_value) {
    record(name, 'B', arg_name, arg_value);
}

void span_end(const char* name) { record(name, 'E', nullptr, 0); }

}  // namespace detail

bool start_tracing() {
    util::MutexLock lock(detail::g_mu);
    if (detail::g_tracing.load(std::memory_order_relaxed)) return false;
    detail::g_buffers.clear();
    detail::g_next_tid = 1;
    ++detail::g_epoch;
    detail::g_t0 = std::chrono::steady_clock::now();
    detail::g_tracing.store(true, std::memory_order_release);
    return true;
}

namespace {

/// The span's category: the name up to its first '.', so "pipeline",
/// "explore", "sim", ... become Perfetto track filters for free.
std::string span_category(const char* name) {
    const char* dot = std::strchr(name, '.');
    return dot ? std::string(name, dot) : std::string(name);
}

}  // namespace

bool stop_tracing(std::ostream& os) {
    std::vector<std::shared_ptr<detail::ThreadBuffer>> buffers;
    {
        util::MutexLock lock(detail::g_mu);
        if (!detail::g_tracing.load(std::memory_order_relaxed)) return false;
        detail::g_tracing.store(false, std::memory_order_release);
        buffers.swap(detail::g_buffers);
    }

    struct Flat {
        const detail::TraceEvent* ev;
        std::uint32_t tid;
    };
    std::vector<Flat> all;
    for (const auto& b : buffers)
        for (const auto& ev : b->events) all.push_back({&ev, b->tid});
    // Stable: same-timestamp events keep their per-thread order, so a
    // zero-duration span still writes B before E.
    std::stable_sort(all.begin(), all.end(),
                     [](const Flat& a, const Flat& b) {
                         return a.ev->ts_ns < b.ev->ts_ns;
                     });

    os << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const detail::TraceEvent& ev = *all[i].ev;
        os << "{\"name\": \"" << ev.name << "\", \"cat\": \""
           << span_category(ev.name) << "\", \"ph\": \"" << ev.phase
           << "\", \"ts\": "
           << format("%.3f", static_cast<double>(ev.ts_ns) / 1000.0)
           << ", \"pid\": 1, \"tid\": " << all[i].tid;
        if (ev.arg_name)
            os << ", \"args\": {\"" << ev.arg_name
               << "\": " << ev.arg_value << "}";
        os << "}" << (i + 1 < all.size() ? "," : "") << "\n";
    }
    os << "]\n}\n";
    return true;
}

void discard_trace() {
    util::MutexLock lock(detail::g_mu);
    detail::g_tracing.store(false, std::memory_order_release);
    detail::g_buffers.clear();
}

std::size_t trace_buffered_events() {
    util::MutexLock lock(detail::g_mu);
    std::size_t n = 0;
    for (const auto& b : detail::g_buffers) n += b->events.size();
    return n;
}

}  // namespace sunfloor::obs
