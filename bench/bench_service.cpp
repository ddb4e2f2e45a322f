// Throughput of the sunfloord job engine, distilled by run_benches.sh
// into BENCH_service.json.
//
// Two benchmarks, one question: what does the warm-session cache buy a
// sequence of related synthesis requests?
//   BM_service_cold - every request is served by a fresh JobEngine, so
//     each one pays the full one-shot pipeline (partition, assignment,
//     routing, evaluation). This is the no-daemon baseline: N CLI runs.
//   BM_service_warm - one persistent engine (pre-warmed outside the
//     timed region) serves the same request stream; requests that share
//     the spec and partition inputs reuse the expensive stage artifacts
//     and only recompute the frequency-dependent tail.
// Both report requests/sec plus client-observed p50/p99 latency; the
// distiller forms warm/cold speedup and (optionally) enforces
// SERVICE_WARM_SPEEDUP_FLOOR against it. Results are byte-identical
// either way (tests/service_test.cpp pins that), so the speedup is pure
// profit.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <vector>

#include "sunfloor/service/job_engine.h"
#include "sunfloor/service/protocol.h"
#include "sunfloor/spec/parser.h"
#include "sunfloor/specgen/specgen.h"

using namespace sunfloor;
using namespace sunfloor::service;

namespace {

// A mid-size generated design: big enough that the partition/assignment
// stages dominate one request, the regime the warm cache targets.
DesignSpec service_spec() {
    specgen::GenParams gp;
    gp.family = specgen::GenFamily::Pipeline;
    gp.num_cores = 16;
    gp.num_layers = 2;
    return specgen::generate(gp, 7);
}

// The request stream: one spec, a sweep of operating frequencies. All
// requests share the spec's warm session, whose stage caches serve the
// partition artifacts across the whole stream.
std::vector<JobRequest> service_requests() {
    const DesignSpec spec = service_spec();
    std::ostringstream os;
    write_design(os, spec);
    const std::string text = os.str();
    std::vector<JobRequest> reqs;
    for (const double mhz : {400.0, 425.0, 450.0, 475.0, 500.0, 525.0}) {
        JobRequest req;
        req.kind = JobKind::Synth;
        req.client = "bench";
        req.spec = spec;
        req.spec_text = text;
        req.params.freq_mhz = {mhz};
        req.params.floorplan = false;
        reqs.push_back(std::move(req));
    }
    return reqs;
}

double run_one(JobEngine& engine, const JobRequest& req) {
    const auto t0 = std::chrono::steady_clock::now();
    const Submission sub = engine.submit(req);
    if (!sub.accepted) return -1.0;
    JobStatus st;
    engine.wait(sub.id, st);
    if (st.state != JobState::Done) return -1.0;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

void report_latencies(benchmark::State& state,
                      std::vector<double>& lat_ms) {
    if (lat_ms.empty()) return;
    std::sort(lat_ms.begin(), lat_ms.end());
    const auto pct = [&](double p) {
        const auto idx = static_cast<std::size_t>(
            p * static_cast<double>(lat_ms.size() - 1));
        return lat_ms[idx];
    };
    state.counters["p50_ms"] = pct(0.50);
    state.counters["p99_ms"] = pct(0.99);
    state.counters["requests"] =
        static_cast<double>(lat_ms.size() / state.iterations());
    state.counters["requests_per_sec"] = benchmark::Counter(
        static_cast<double>(lat_ms.size()), benchmark::Counter::kIsRate);
}

void BM_service_cold(benchmark::State& state) {
    const std::vector<JobRequest> reqs = service_requests();
    std::vector<double> lat_ms;
    for (auto _ : state) {
        for (const JobRequest& req : reqs) {
            // A fresh engine per request: no shared session, the full
            // one-shot cost — the price of not running the daemon.
            EngineOptions opts;
            opts.workers = 1;
            JobEngine engine(opts);
            const double ms = run_one(engine, req);
            if (ms < 0) {
                state.SkipWithError("cold request failed");
                return;
            }
            lat_ms.push_back(ms);
        }
    }
    report_latencies(state, lat_ms);
}
BENCHMARK(BM_service_cold)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_service_warm(benchmark::State& state) {
    const std::vector<JobRequest> reqs = service_requests();
    EngineOptions opts;
    opts.workers = 1;
    JobEngine engine(opts);
    // Warm-up pass outside the timed region: after it the session holds
    // every stage artifact the stream needs.
    for (const JobRequest& req : reqs) {
        if (run_one(engine, req) < 0) {
            state.SkipWithError("warm-up request failed");
            return;
        }
    }
    std::vector<double> lat_ms;
    for (auto _ : state) {
        for (const JobRequest& req : reqs) {
            const double ms = run_one(engine, req);
            if (ms < 0) {
                state.SkipWithError("warm request failed");
                return;
            }
            lat_ms.push_back(ms);
        }
    }
    report_latencies(state, lat_ms);
}
BENCHMARK(BM_service_warm)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
