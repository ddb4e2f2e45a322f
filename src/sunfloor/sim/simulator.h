// Cycle-driven flit-level traffic simulator over a synthesized Topology.
//
// The analytic evaluator (noc/evaluation.cpp) prices a path at zero
// load; this simulator plays the same paths under real injected traffic
// and measures what contention does to them. The microarchitecture is
// the classic wormhole fabric the xpipes-style library implies:
//
//  * Every NocLink carries one flit per cycle and ends in a FIFO input
//    buffer of `buffer_depth_flits` at its downstream node. Upstream
//    nodes track free downstream slots as credits (counted at send
//    time, over buffered plus in-flight flits), so a full buffer
//    backpressures the sender — nothing is ever dropped.
//  * Packets are wormhole-switched: once a head flit wins an output
//    link, the link is allocated to that packet until its tail passes;
//    competing heads wait in their input FIFOs. Arbitration is
//    deterministic round-robin per output link.
//  * Output selection follows SimParams::routing. Under the default
//    deterministic policy (up-down) every packet replays its flow's
//    already-computed path (topo.flow_path) exactly. Under an adaptive
//    policy (west-first, odd-even) each head flit picks per hop among
//    the policy's admissible next links (routing/route_sets.h):
//    the candidate with the most free downstream credits wins, ties
//    prefer the baked path's link and then the smallest link id — so at
//    zero load adaptive packets follow the power-optimal baked paths,
//    and only contention makes them deviate. Selection is a pure
//    function of the cycle-start state, keeping runs bit-deterministic.
//  * Timing matches the analytic convention exactly (evaluation.h): a
//    link traversal costs one cycle when it enters a switch (the switch
//    traversal) plus pipeline_stages - 1 extra cycles on pipelined long
//    wires; entering the destination core's NI is free. Hence measured
//    latency at vanishing load reproduces flow_latency() to the cycle,
//    which sim_zero_load_test.cpp pins on every paper benchmark.
//
// A run is warmup -> measurement -> drain: statistics cover packets
// *generated* during the measurement window (the simulation keeps
// going until they all arrive), and the drain phase then runs the
// network empty — a runtime cross-check of the static deadlock-freedom
// analysis of noc/deadlock.h, reported as SimReport::drained.
//
// Internally the engine is CSR/SoA, not object-per-flit: all static
// lookups (paths, ports, route sets) are flattened once into a shared
// SimIndex (sim/sim_index.h), flit state lives as struct-of-arrays
// fields in fixed-capacity power-of-two ring buffers per link (sized
// from buffer_depth_flits and the pipeline depth, so the steady state
// allocates nothing), and per-cycle work is driven by active-link
// bitsets so idle links cost nothing. The Simulator class below keeps
// the index and the engine arenas warm across runs — a rate sweep pays
// the setup once.
//
// Everything is single-threaded and deterministic: one Rng seeded from
// SimParams::seed drives all injection processes, so any two runs with
// equal (topology, spec, eval, params) are bit-identical. Parallel
// callers (the explore backend) run independent simulator instances
// over a shared immutable SimIndex.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sunfloor/noc/evaluation.h"
#include "sunfloor/noc/topology.h"
#include "sunfloor/routing/policy.h"
#include "sunfloor/sim/injection.h"
#include "sunfloor/sim/sim_index.h"
#include "sunfloor/spec/parser.h"
#include "sunfloor/util/rng.h"

namespace sunfloor::sim {

struct SimParams {
    InjectionParams inject{};

    /// Routing discipline for in-network output selection. Deterministic
    /// policies replay the baked flow paths (the pre-policy behaviour,
    /// bit for bit); adaptive ones select per hop within the policy's
    /// route set. Must match the policy the topology was synthesized
    /// with, or the route sets may not be deadlock-verified.
    routing::RoutingPolicyId routing = routing::RoutingPolicyId::UpDown;

    /// Per-link downstream FIFO depth (flits).
    int buffer_depth_flits = 4;

    /// Cycles simulated before measurement starts (fills the pipeline).
    long long warmup_cycles = 2000;

    /// Length of the measurement window (cycles). Packets generated in
    /// this window are the measured population.
    long long measure_cycles = 10000;

    /// After injection stops, the network must go empty within this many
    /// additional cycles or the run reports drained = false. Bounded so
    /// a (hypothetical) deadlocked configuration terminates.
    long long drain_max_cycles = 200000;

    std::uint64_t seed = Rng::kDefaultSeed;
};

struct SimReport {
    // --- packet accounting (measured population only) -------------------
    long long injected_packets = 0;  ///< generated in the window
    long long received_packets = 0;  ///< ... that reached their sink
    long long injected_flits = 0;
    long long received_flits = 0;

    // --- latency of measured packets (generation -> tail ejection) ------
    double avg_latency_cycles = 0.0;
    double p99_latency_cycles = 0.0;
    double max_latency_cycles = 0.0;
    /// Head-flit latency (generation -> head ejection); equals the
    /// analytic zero-load path latency as load vanishes.
    double avg_head_latency_cycles = 0.0;

    /// Per-flow mean packet latency; -1 for flows with no measured
    /// packet (zero rate, or none generated in the window).
    std::vector<double> flow_avg_latency_cycles;

    // --- throughput ------------------------------------------------------
    /// Mean flits/cycle offered by the injection processes.
    double offered_flits_per_cycle = 0.0;
    /// Flits ejected per cycle during the measurement window (all
    /// traffic, not only measured packets).
    double accepted_flits_per_cycle = 0.0;

    /// Per-link: flits sent / measurement cycles, in [0, 1].
    std::vector<double> link_utilization;

    // --- run outcome -----------------------------------------------------
    bool drained = false;     ///< network empty at the end of the drain
    long long cycles_run = 0; ///< total simulated cycles
    long long in_flight_flits_at_end = 0;  ///< 0 when drained
};

/// Reusable simulator over one design: builds (or adopts) the SimIndex
/// once and keeps the engine's ring arenas allocated between runs, so a
/// rate sweep or a repeated-measurement loop pays the flattening and
/// allocation cost a single time. Not thread-safe — one instance per
/// thread; the underlying SimIndex is immutable and freely shared.
class Simulator {
  public:
    /// Flatten `topo` for simulation under `routing`. For adaptive
    /// policies this builds and verifies the route sets (throws
    /// std::logic_error when the policy does not contain the topology's
    /// baked paths).
    Simulator(const Topology& topo, const DesignSpec& spec,
              const EvalParams& eval,
              routing::RoutingPolicyId routing =
                  routing::RoutingPolicyId::UpDown);

    /// Adopt a prebuilt (possibly shared) index.
    explicit Simulator(std::shared_ptr<const SimIndex> index);

    Simulator(Simulator&&) noexcept;
    Simulator& operator=(Simulator&&) noexcept;
    ~Simulator();

    /// One full warmup -> measure -> drain run. `spec` and `eval` must be
    /// the ones the index was built from (they feed the injection rates;
    /// checked by flow count). params.routing must equal the index's
    /// policy — throws std::invalid_argument on mismatch, and when not
    /// every flow is routed.
    SimReport run(const DesignSpec& spec, const EvalParams& eval,
                  const SimParams& params);

    /// Zero-load probe: one packet per routed flow, injected in
    /// isolation (flow k starts only after flow k-1 fully drained),
    /// through the same simulation machinery. With packet_length_flits = 1
    /// the reported flow_avg_latency_cycles equal the analytic
    /// flow_latency() exactly. Unrouted flows report -1; injection
    /// rates/traffic shaping are ignored. The probe replays the *baked*
    /// paths, which is exact for adaptive policies too: at zero load
    /// every link has full credit, so adaptive selection degenerates to
    /// its tie-break — the baked path. params.routing must equal the
    /// index's policy.
    SimReport run_zero_load(SimParams params);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace sunfloor::sim
