// Thread-safe metrics registry: counters, gauges and fixed-bucket
// histograms behind stable names.
//
// This is the one substrate behind every statistic the tool used to keep
// in bespoke per-subsystem structs (pipeline::SessionStats, annealer move
// accounting, simulator instrumentation): subsystems register instruments
// once and bump them with single atomic operations; a snapshot renders
// every registered instrument into one JSON document with a stable schema
// (`sunfloor_cli ... --metrics out.metrics.json`).
//
// Registries form a tree: an instrument created in a registry with a
// parent delegates every update to the same-named instrument of the
// parent, so a per-session registry stays exact for that session while
// the process-global registry (Registry::global()) accumulates totals
// over all sessions — one add updates both. Lookups take a mutex; updates
// are lock-free atomics, so the intended pattern is "resolve the handle
// once, bump it on the hot path".
//
// Metrics never feed back into results: synthesis/simulation outputs are
// byte-identical whether or not anything reads the registry (pinned by
// obs_identity_test.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sunfloor/util/mutex.h"

namespace sunfloor::obs {

/// Monotonically increasing integer (events, cache hits, pivots).
class Counter {
  public:
    void add(long long n = 1) {
        v_.fetch_add(n, std::memory_order_relaxed);
        if (parent_) parent_->add(n);
    }
    long long value() const { return v_.load(std::memory_order_relaxed); }

  private:
    friend class Registry;
    std::atomic<long long> v_{0};
    Counter* parent_ = nullptr;
};

/// Double-valued accumulator (milliseconds spent, last-seen levels).
/// add() delegates to the parent like a counter; set() is local only —
/// "the last value some session wrote" has no meaning process-wide.
class Gauge {
  public:
    void add(double d) {
        double cur = v_.load(std::memory_order_relaxed);
        while (!v_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
        }
        if (parent_) parent_->add(d);
    }
    void set(double d) { v_.store(d, std::memory_order_relaxed); }
    double value() const { return v_.load(std::memory_order_relaxed); }

  private:
    friend class Registry;
    std::atomic<double> v_{0.0};
    Gauge* parent_ = nullptr;
};

/// Fixed-bucket histogram. `bounds` are inclusive upper bounds of the
/// finite buckets, strictly increasing; one implicit overflow bucket
/// catches everything above the last bound. Buckets are fixed at
/// registration so snapshots have a stable shape run over run.
class Histogram {
  public:
    void observe(double v) {
        std::size_t b = 0;
        while (b < bounds_.size() && v > bounds_[b]) ++b;
        counts_[b].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        double cur = sum_.load(std::memory_order_relaxed);
        while (!sum_.compare_exchange_weak(cur, cur + v,
                                           std::memory_order_relaxed)) {
        }
        if (parent_) parent_->observe(v);
    }

    const std::vector<double>& bounds() const { return bounds_; }
    /// Per-bucket counts, bounds().size() + 1 entries (last = overflow).
    std::vector<long long> bucket_counts() const;
    long long count() const { return count_.load(std::memory_order_relaxed); }
    double sum() const { return sum_.load(std::memory_order_relaxed); }

  private:
    friend class Registry;
    explicit Histogram(std::vector<double> bounds);
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<long long>[]> counts_;
    std::atomic<long long> count_{0};
    std::atomic<double> sum_{0.0};
    Histogram* parent_ = nullptr;
};

class Registry {
  public:
    /// A registry delegating every instrument update to the same-named
    /// instrument of `parent` (nullptr = standalone).
    explicit Registry(Registry* parent = nullptr) : parent_(parent) {}
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /// The process-wide registry — what `--metrics` snapshots.
    static Registry& global();

    /// Find-or-register. Handles stay valid for the registry's lifetime;
    /// resolve once and keep the pointer on hot paths.
    Counter& counter(std::string_view name) SF_EXCLUDES(mu_);
    Gauge& gauge(std::string_view name) SF_EXCLUDES(mu_);
    /// `bounds` is consumed on first registration; later calls with the
    /// same name return the existing histogram (bounds must not differ —
    /// enforced with std::logic_error, a naming bug).
    Histogram& histogram(std::string_view name, std::vector<double> bounds)
        SF_EXCLUDES(mu_);

    /// Render every instrument, sorted by name, as one JSON document:
    ///   {"schema_version": 1,
    ///    "counters":   {"<name>": <int>, ...},
    ///    "gauges":     {"<name>": <double>, ...},
    ///    "histograms": {"<name>": {"bounds": [...], "counts": [...],
    ///                              "count": <int>, "sum": <double>}, ...}}
    void write_json(std::ostream& os) const SF_EXCLUDES(mu_);

  private:
    /// When registries nest, a child's `mu_` is held while resolving the
    /// same-named instrument in `parent_` (child lock before parent
    /// lock, always); the parent never calls down into a child, so the
    /// order is acyclic. Not expressible per-instance with
    /// SF_ACQUIRED_BEFORE (both locks are the same member of the same
    /// class), hence documented here instead.
    Registry* parent_;
    mutable util::Mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
        SF_GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
        SF_GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        histograms_ SF_GUARDED_BY(mu_);
};

}  // namespace sunfloor::obs
