// Property test (the contract between the two evaluation backends): on
// every paper benchmark, the flit-level simulator at vanishing load
// reproduces the analytic zero-load latency of noc/evaluation.cpp for
// every routed flow, to 1e-6 cycles. Both backends price a path from
// the same Topology and WireModel, so any drift here means one of them
// changed its latency convention.
#include <gtest/gtest.h>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/noc/evaluation.h"
#include "sunfloor/sim/simulator.h"
#include "sunfloor/spec/benchmarks.h"

namespace sunfloor {
namespace {

SynthesisConfig fast_cfg() {
    SynthesisConfig cfg;
    cfg.run_floorplan = false;  // latency needs only LP switch positions
    cfg.max_switches = 6;       // bound the per-benchmark sweep
    return cfg;
}

TEST(SimZeroLoad, AgreesWithAnalyticLatencyOnEveryPaperBenchmark) {
    for (const std::string& name : benchmark_names()) {
        SCOPED_TRACE(name);
        const DesignSpec spec = make_benchmark(name);
        const SynthesisConfig cfg = fast_cfg();
        const SynthesisResult res = run_synthesis(spec, cfg);

        sim::SimParams params;
        params.inject.packet_length_flits = 1;  // head == tail == packet

        int checked_designs = 0;
        for (const DesignPoint& dp : res.points) {
            if (!dp.topo->all_flows_routed()) continue;
            if (checked_designs >= 3) break;  // bound the runtime
            ++checked_designs;
            const sim::SimReport rep = sim::Simulator(dp.topo, spec, cfg.eval)
                                           .run_zero_load(params);
            EXPECT_TRUE(rep.drained);
            ASSERT_EQ(rep.flow_avg_latency_cycles.size(),
                      static_cast<std::size_t>(dp.topo->num_flows()));
            for (int f = 0; f < dp.topo->num_flows(); ++f) {
                const double analytic = flow_latency(dp.topo, f, cfg.eval);
                EXPECT_NEAR(rep.flow_avg_latency_cycles[
                                static_cast<std::size_t>(f)],
                            analytic, 1e-6)
                    << "flow " << f << " of " << name << " ("
                    << dp.switch_count << " switches)";
            }
        }
        EXPECT_GT(checked_designs, 0)
            << name << ": no routed design to check";
    }
}

TEST(SimZeroLoad, MultiFlitPacketsAddExactlyThePipelineTail) {
    // With deep buffers and a serialization-free probe, a P-flit packet
    // lands its tail exactly P-1 cycles after its head on every flow.
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    const SynthesisResult res = run_synthesis(spec, cfg);
    const int best = res.best_power_index();
    ASSERT_GE(best, 0);
    const DesignPoint& dp = res.points[static_cast<std::size_t>(best)];

    sim::SimParams one;
    one.inject.packet_length_flits = 1;
    sim::SimParams four = one;
    four.inject.packet_length_flits = 4;
    four.buffer_depth_flits = 16;
    const sim::SimReport r1 =
        sim::Simulator(dp.topo, spec, cfg.eval).run_zero_load(one);
    const sim::SimReport r4 =
        sim::Simulator(dp.topo, spec, cfg.eval).run_zero_load(four);
    for (int f = 0; f < dp.topo->num_flows(); ++f) {
        const auto uf = static_cast<std::size_t>(f);
        ASSERT_GE(r1.flow_avg_latency_cycles[uf], 0.0);
        EXPECT_NEAR(r4.flow_avg_latency_cycles[uf],
                    r1.flow_avg_latency_cycles[uf] + 3.0, 1e-6);
    }
}

}  // namespace
}  // namespace sunfloor
