// Observability layer units: metrics registry semantics (delegation,
// histogram bucketing, reset, JSON schema) and the span tracer (balanced
// begin/end pairs, per-thread buffers, disabled-path no-ops). Every
// snapshot and trace must parse with the protocol's parse_json.
#include <gtest/gtest.h>

#include <map>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sunfloor/obs/metrics.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/util/json.h"

namespace sunfloor::obs {
namespace {

// ------------------------------------------------------------- metrics

TEST(Metrics, CounterAccumulatesAndDelegatesToParent) {
    Registry parent;
    Registry child(&parent);
    Counter& c = child.counter("x.events");
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42);
    // One add updated both the session-local and the parent instrument.
    EXPECT_EQ(parent.counter("x.events").value(), 42);
    // Find-or-register hands back the same instrument.
    EXPECT_EQ(&child.counter("x.events"), &c);
}

TEST(Metrics, GaugeAddDelegatesButSetStaysLocal) {
    Registry parent;
    Registry child(&parent);
    Gauge& g = child.gauge("x.ms");
    g.add(1.5);
    g.add(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 4.0);
    EXPECT_DOUBLE_EQ(parent.gauge("x.ms").value(), 4.0);
    g.set(99.0);  // "last value" is meaningless process-wide
    EXPECT_DOUBLE_EQ(g.value(), 99.0);
    EXPECT_DOUBLE_EQ(parent.gauge("x.ms").value(), 4.0);
}

TEST(Metrics, HistogramBucketsByInclusiveUpperBoundWithOverflow) {
    Registry reg;
    Histogram& h = reg.histogram("x.h", {1.0, 4.0, 8.0});
    for (double v : {0.0, 1.0, 1.5, 4.0, 9.0, 100.0}) h.observe(v);
    // Inclusive upper bounds: 1.0 lands in the first bucket, 4.0 in the
    // second; 9.0 and 100.0 overflow.
    const std::vector<long long> want{2, 2, 0, 2};
    EXPECT_EQ(h.bucket_counts(), want);
    EXPECT_EQ(h.count(), 6);
    EXPECT_DOUBLE_EQ(h.sum(), 115.5);
}

TEST(Metrics, HistogramDelegatesObservationsToParent) {
    Registry parent;
    Registry child(&parent);
    child.histogram("x.h", {1.0, 2.0}).observe(1.5);
    Histogram& ph = parent.histogram("x.h", {1.0, 2.0});
    const std::vector<long long> want{0, 1, 0};
    EXPECT_EQ(ph.bucket_counts(), want);
}

TEST(Metrics, HistogramRejectsBadBounds) {
    Registry reg;
    EXPECT_THROW(reg.histogram("a", {}), std::logic_error);
    EXPECT_THROW(reg.histogram("b", {1.0, 1.0}), std::logic_error);
    EXPECT_THROW(reg.histogram("c", {2.0, 1.0}), std::logic_error);
}

TEST(Metrics, HistogramReRegistrationWithDifferentBoundsThrows) {
    Registry reg;
    reg.histogram("x.h", {1.0, 2.0});
    EXPECT_NO_THROW(reg.histogram("x.h", {1.0, 2.0}));
    EXPECT_THROW(reg.histogram("x.h", {1.0, 3.0}), std::logic_error);
}

TEST(Metrics, JsonSnapshotHasStableSchemaAndSortedNames) {
    Registry reg;
    reg.counter("b.second").add(2);
    reg.counter("a.first").add(1);
    reg.gauge("g.ms").add(1.25);
    reg.histogram("h.occ", {1.0, 2.0}).observe(1.5);
    std::ostringstream os;
    reg.write_json(os);
    const std::string json = os.str();

    const JsonParseResult parsed = parse_json(json);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"a.first\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"b.second\": 2"), std::string::npos);
    EXPECT_LT(json.find("\"a.first\""), json.find("\"b.second\""));
    EXPECT_NE(json.find("\"bounds\": [1, 2]"), std::string::npos);
    EXPECT_NE(json.find("\"counts\": [0, 1, 0]"), std::string::npos);
}

TEST(Metrics, ConcurrentAddsThroughDelegationAreLossless) {
    Registry parent;
    Registry child(&parent);
    Counter& c = child.counter("x.n");
    Gauge& g = child.gauge("x.ms");
    constexpr int kThreads = 4;
    constexpr int kAdds = 5000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&] {
            for (int i = 0; i < kAdds; ++i) {
                c.add();
                g.add(1.0);
            }
        });
    for (auto& w : workers) w.join();
    EXPECT_EQ(c.value(), kThreads * kAdds);
    EXPECT_EQ(parent.counter("x.n").value(), kThreads * kAdds);
    EXPECT_DOUBLE_EQ(g.value(), kThreads * kAdds);
    EXPECT_DOUBLE_EQ(parent.gauge("x.ms").value(), kThreads * kAdds);
}

// -------------------------------------------------------------- tracer

/// One trace event as written by stop_tracing (one object per line).
struct ParsedEvent {
    std::string name;
    std::string phase;
    int tid = -1;
};

std::vector<ParsedEvent> parse_events(const std::string& trace) {
    static const std::regex re(
        "\\{\"name\": \"([^\"]+)\", \"cat\": \"[^\"]+\", \"ph\": "
        "\"([BE])\", \"ts\": [0-9.]+, \"pid\": 1, \"tid\": ([0-9]+)");
    std::vector<ParsedEvent> events;
    for (auto it = std::sregex_iterator(trace.begin(), trace.end(), re);
         it != std::sregex_iterator(); ++it)
        events.push_back({(*it)[1], (*it)[2], std::stoi((*it)[3])});
    return events;
}

/// Balanced per-(thread, name): every begin has a later end.
void expect_balanced(const std::vector<ParsedEvent>& events) {
    std::map<std::pair<int, std::string>, int> open;
    for (const auto& ev : events) {
        int& depth = open[{ev.tid, ev.name}];
        if (ev.phase == "B") {
            ++depth;
        } else {
            --depth;
            EXPECT_GE(depth, 0) << "E before B for " << ev.name;
        }
    }
    for (const auto& [key, depth] : open)
        EXPECT_EQ(depth, 0) << "unbalanced span " << key.second
                            << " on tid " << key.first;
}

TEST(Trace, DisabledTracingRecordsNothing) {
    ASSERT_FALSE(tracing_enabled());
    {
        ScopedSpan span("test.noop");
        ScopedSpan with_arg("test.noop", "i", 3);
    }
    EXPECT_EQ(trace_buffered_events(), 0u);
    std::ostringstream os;
    EXPECT_FALSE(stop_tracing(os));
    EXPECT_TRUE(os.str().empty());
}

TEST(Trace, SpansProduceBalancedValidJson) {
    ASSERT_TRUE(start_tracing());
    EXPECT_FALSE(start_tracing());  // already active
    {
        ScopedSpan outer("test.outer", "k", 7);
        ScopedSpan inner("test.inner");
    }
    EXPECT_EQ(trace_buffered_events(), 4u);

    std::ostringstream os;
    ASSERT_TRUE(stop_tracing(os));
    const std::string trace = os.str();

    const JsonParseResult parsed = parse_json(trace);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    EXPECT_NE(trace.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
    // The span-name prefix before the first '.' is the category.
    EXPECT_NE(trace.find("\"name\": \"test.outer\", \"cat\": \"test\""),
              std::string::npos);
    EXPECT_NE(trace.find("\"args\": {\"k\": 7}"), std::string::npos);

    const auto events = parse_events(trace);
    ASSERT_EQ(events.size(), 4u);
    expect_balanced(events);
    // LIFO nesting: outer begins first and ends last.
    EXPECT_EQ(events.front().name, "test.outer");
    EXPECT_EQ(events.back().name, "test.outer");
    EXPECT_EQ(trace_buffered_events(), 0u);
}

TEST(Trace, PerThreadBuffersGetDistinctTids) {
    ASSERT_TRUE(start_tracing());
    constexpr int kThreads = 4;
    constexpr int kSpans = 50;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([] {
            for (int i = 0; i < kSpans; ++i) {
                ScopedSpan span("test.work", "i", i);
            }
        });
    for (auto& w : workers) w.join();

    std::ostringstream os;
    ASSERT_TRUE(stop_tracing(os));
    const std::string trace = os.str();
    const JsonParseResult parsed = parse_json(trace);
    EXPECT_TRUE(parsed.ok) << parsed.error;

    const auto events = parse_events(trace);
    EXPECT_EQ(events.size(),
              static_cast<std::size_t>(2 * kThreads * kSpans));
    expect_balanced(events);
    std::map<int, int> per_tid;
    for (const auto& ev : events) ++per_tid[ev.tid];
    EXPECT_EQ(per_tid.size(), static_cast<std::size_t>(kThreads));
    for (const auto& [tid, n] : per_tid) EXPECT_EQ(n, 2 * kSpans) << tid;
}

TEST(Trace, DiscardDropsBufferedEvents) {
    ASSERT_TRUE(start_tracing());
    { ScopedSpan span("test.discarded"); }
    EXPECT_GT(trace_buffered_events(), 0u);
    discard_trace();
    EXPECT_FALSE(tracing_enabled());
    EXPECT_EQ(trace_buffered_events(), 0u);
    std::ostringstream os;
    EXPECT_FALSE(stop_tracing(os));
}

TEST(Trace, RestartAfterStopYieldsFreshTrace) {
    ASSERT_TRUE(start_tracing());
    { ScopedSpan span("test.first"); }
    std::ostringstream first;
    ASSERT_TRUE(stop_tracing(first));

    ASSERT_TRUE(start_tracing());
    { ScopedSpan span("test.second"); }
    std::ostringstream second;
    ASSERT_TRUE(stop_tracing(second));
    // The first trace's events must not leak into the second.
    EXPECT_EQ(second.str().find("test.first"), std::string::npos);
    EXPECT_NE(second.str().find("test.second"), std::string::npos);
}

}  // namespace
}  // namespace sunfloor::obs
