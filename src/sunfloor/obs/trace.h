// Span tracer emitting Chrome/Perfetto trace-event JSON.
//
// Instrumentation sites construct a ScopedSpan around a unit of work
// (a pipeline stage, an explored grid point, a simulator phase). While no
// sink is installed the guard is one relaxed atomic load and a branch, a
// cost every untraced perfbench timing includes. With a sink installed
// (start_tracing), each span appends a begin and an end event to a
// per-thread buffer: only the owning thread ever writes its buffer, so
// recording takes no lock and imposes no cross-thread ordering — which is
// also why tracing can never perturb results (pinned byte-exactly by
// obs_identity_test.cpp). stop_tracing() merges the buffers, sorts by
// timestamp and writes the Trace Event Format JSON that chrome://tracing
// and https://ui.perfetto.dev open directly.
//
// Contract: span names (and arg names) must be string literals or other
// storage outliving the trace — the buffer stores the pointers.
// start/stop must bracket the traced work from a quiescent point (no
// instrumented work in flight when stop_tracing runs); the CLI starts
// before a run and stops after its thread pools have joined.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace sunfloor::obs {

namespace detail {

extern std::atomic<bool> g_tracing;

void span_begin(const char* name);
void span_begin(const char* name, const char* arg_name, long long arg_value);
void span_end(const char* name);

}  // namespace detail

/// True while a sink is installed. Relaxed: a span that misses the flip
/// by a cycle is simply not recorded.
inline bool tracing_enabled() {
    return detail::g_tracing.load(std::memory_order_relaxed);
}

/// RAII begin/end span pair on the calling thread. The optional integer
/// arg lands in the event's "args" object (e.g. the grid-point index); a
/// null `arg_name` records no arg.
class ScopedSpan {
  public:
    explicit ScopedSpan(const char* name) {
        if (tracing_enabled()) {
            name_ = name;
            detail::span_begin(name);
        }
    }
    ScopedSpan(const char* name, const char* arg_name, long long arg_value) {
        if (tracing_enabled()) {
            name_ = name;
            detail::span_begin(name, arg_name, arg_value);
        }
    }
    ~ScopedSpan() {
        if (name_) detail::span_end(name_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    const char* name_ = nullptr;  ///< non-null only when recording
};

/// Install the (process-wide) trace sink and start recording. Returns
/// false when tracing is already active.
bool start_tracing();

/// Stop recording, merge every thread's buffer and write the trace JSON.
/// Returns false (nothing written) when tracing was not active.
bool stop_tracing(std::ostream& os);

/// Stop recording and drop everything buffered (tests, error paths).
void discard_trace();

/// Events currently buffered over all threads (diagnostics: what a trace
/// has recorded so far, and that nothing records without a sink).
std::size_t trace_buffered_events();

}  // namespace sunfloor::obs
