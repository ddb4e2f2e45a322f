// Overhead of the sunfloor::obs layer, distilled by run_benches.sh into
// BENCH_obs.json.
//
// Three questions, one benchmark each:
//   BM_span_disabled     - cost of a ScopedSpan while no sink is
//     installed (one relaxed load + branch). Multiplied by the spans a
//     real exploration emits, this bounds the instrumentation tax of a
//     plain (untraced) run; the acceptance bar is < 2%.
//   BM_span_enabled      - cost of a recorded span (two events into the
//     per-thread buffer), i.e. the price of actually tracing.
//   BM_explore_traced/untraced - a fixed exploration with and without a
//     trace sink; the wall-time ratio is the end-to-end overhead, and
//     the traced run also reports its span count (events / 2) so the
//     per-span numbers can be anchored to real workloads.
#include <benchmark/benchmark.h>

#include <sstream>

#include "common.h"
#include "sunfloor/explore/explorer.h"
#include "sunfloor/obs/trace.h"

using namespace sunfloor;
using namespace sunfloor::bench;

namespace {

// Matches the obs tests' fast configuration: enough work to be
// representative (both synthesis phases, LP placement, evaluation), small
// enough that one exploration fits a bench iteration.
ParamGrid obs_grid() {
    ParamGrid grid;
    grid.set_axis(ParamAxis::frequencies_hz({350e6, 450e6}));
    grid.set_axis(ParamAxis::max_tsvs({15, 25}));
    grid.set_axis(ParamAxis::thetas({4.0}));
    return grid;
}

SynthesisConfig obs_cfg() {
    SynthesisConfig cfg = paper_cfg();
    cfg.run_floorplan = false;
    cfg.max_switches = 5;
    return cfg;
}

constexpr int kSpanBatch = 1024;

void BM_span_disabled(benchmark::State& state) {
    if (obs::tracing_enabled()) {
        state.SkipWithError("a trace sink is unexpectedly installed");
        return;
    }
    for (auto _ : state) {
        for (int i = 0; i < kSpanBatch; ++i) {
            obs::ScopedSpan span("bench.noop", "i", i);
            benchmark::DoNotOptimize(&span);
        }
    }
    state.SetItemsProcessed(state.iterations() * kSpanBatch);
}
BENCHMARK(BM_span_disabled)->Unit(benchmark::kMicrosecond);

void BM_span_enabled(benchmark::State& state) {
    obs::start_tracing();
    for (auto _ : state) {
        for (int i = 0; i < kSpanBatch; ++i) {
            obs::ScopedSpan span("bench.recorded", "i", i);
            benchmark::DoNotOptimize(&span);
        }
        // Keep the buffer bounded; the drop is outside the timed region.
        state.PauseTiming();
        obs::discard_trace();
        obs::start_tracing();
        state.ResumeTiming();
    }
    obs::discard_trace();
    state.SetItemsProcessed(state.iterations() * kSpanBatch);
}
BENCHMARK(BM_span_enabled)->Unit(benchmark::kMicrosecond);

// arg 0: untraced (the production default), arg 1: trace sink installed.
void BM_explore(benchmark::State& state) {
    static const DesignSpec spec = prepared_benchmark("D_36_4");
    const bool traced = state.range(0) != 0;

    ExploreOptions opts;
    opts.num_threads = 1;
    const ParamGrid grid = obs_grid();

    // A fresh Explorer (and session) per iteration: the same work every
    // iteration, with points sharing (phase, theta) sharing partitions as
    // in every production run.
    std::size_t events = 0;
    for (auto _ : state) {
        if (traced) obs::start_tracing();
        const ExploreResult res =
            Explorer(spec, obs_cfg(), opts).run(grid);
        benchmark::DoNotOptimize(res.stats.valid_designs);
        if (traced) {
            state.PauseTiming();
            events += obs::trace_buffered_events();
            obs::discard_trace();
            state.ResumeTiming();
        }
    }
    if (traced)
        state.counters["spans_per_run"] = static_cast<double>(
            events / 2 / static_cast<std::size_t>(state.iterations()));
    state.SetLabel(traced ? "traced" : "untraced");
}
BENCHMARK(BM_explore)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    // Banner on stderr: run_benches.sh parses this bench's stdout as JSON.
    std::fprintf(stderr,
                 "Observability overhead: ScopedSpan guard cost and the "
                 "traced-vs-untraced exploration wall-time ratio\n"
                 "expect: disabled spans cost ~1 ns and the end-to-end "
                 "overhead without a sink stays under 2%%.\n\n");
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
