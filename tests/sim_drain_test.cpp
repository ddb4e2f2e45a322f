// Drain/progress test: the runtime counterpart of the static
// deadlock-freedom proof of noc/deadlock.h. On synthesized topologies —
// whose channel dependency graphs the synthesis flow keeps acyclic —
// the wormhole simulator must drain every in-flight flit within a
// bounded number of post-injection cycles, under uniform and bursty
// traffic, long packets and deliberately tight buffers. A cycle of
// blocked flits would hit the drain bound and fail `drained`.
#include <gtest/gtest.h>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/noc/deadlock.h"
#include "sunfloor/sim/simulator.h"
#include "sunfloor/spec/benchmarks.h"

namespace sunfloor {
namespace {

SynthesisConfig fast_cfg() {
    SynthesisConfig cfg;
    cfg.run_floorplan = false;
    cfg.max_switches = 6;
    return cfg;
}

TEST(SimDrain, SynthesizedTopologiesDrainUnderStress) {
    for (const char* name : {"D_36_4", "D_35_bot", "D_26_media"}) {
        SCOPED_TRACE(name);
        const DesignSpec spec = make_benchmark(name);
        const SynthesisConfig cfg = fast_cfg();
        const SynthesisResult res = run_synthesis(spec, cfg);
        const int best = res.best_power_index();
        ASSERT_GE(best, 0);
        const DesignPoint& dp = res.points[static_cast<std::size_t>(best)];

        // The static guarantees the simulator's progress rests on.
        EXPECT_TRUE(is_routing_deadlock_free(dp.topo));
        EXPECT_TRUE(is_message_dependent_deadlock_free(dp.topo, spec.comm));

        for (const sim::Traffic traffic :
             {sim::Traffic::Uniform, sim::Traffic::Bursty}) {
            sim::SimParams p;
            p.inject.traffic = traffic;
            p.inject.injection_scale = 1.0;  // full specified bandwidth
            p.inject.packet_length_flits = 6;
            p.buffer_depth_flits = 2;        // stress the credit loop
            p.warmup_cycles = 500;
            p.measure_cycles = 4000;
            const sim::SimReport rep =
                sim::Simulator(dp.topo, spec, cfg.eval).run(spec, cfg.eval, p);
            EXPECT_TRUE(rep.drained)
                << sim::traffic_to_string(traffic) << ": "
                << rep.in_flight_flits_at_end << " flits stuck";
            EXPECT_EQ(rep.in_flight_flits_at_end, 0);
            // Conservation: every measured packet was delivered.
            EXPECT_EQ(rep.received_packets, rep.injected_packets);
            EXPECT_EQ(rep.received_flits, rep.injected_flits);
            EXPECT_GT(rep.injected_packets, 0);
        }
    }
}

TEST(SimDrain, DrainBoundIsReportedWhenExceeded) {
    // Fifty times the specified bandwidth queues far more flits at the
    // sources than the drain bound can deliver: the run must come back
    // drained = false after exactly kDrainMaxCycles of drain (and not
    // loop on) — the bound is real.
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    const SynthesisResult res = run_synthesis(spec, cfg);
    const int best = res.best_power_index();
    ASSERT_GE(best, 0);
    const DesignPoint& dp = res.points[static_cast<std::size_t>(best)];
    sim::SimParams p;
    p.warmup_cycles = 0;
    p.measure_cycles = 10000;
    p.inject.injection_scale = 50.0;
    p.inject.packet_length_flits = 8;
    const sim::SimReport rep =
        sim::Simulator(dp.topo, spec, cfg.eval).run(spec, cfg.eval, p);
    EXPECT_FALSE(rep.drained);
    EXPECT_GT(rep.in_flight_flits_at_end, 0);
    EXPECT_EQ(rep.cycles_run,
              p.warmup_cycles + p.measure_cycles + sim::kDrainMaxCycles);
}

}  // namespace
}  // namespace sunfloor
