// Path computation (Section VI, Algorithm 3), generalized over pluggable
// routing disciplines.
//
// Flows are routed one at a time in the order the configured
// RoutingPolicy schedules (decreasing bandwidth for every shipped policy)
// over the switch graph. Every ordered switch pair is a candidate
// physical link; candidate hops are priced by the shared
// routing::LinkCostModel (marginal power, Algorithm 3's INF/SOFT_INF
// thresholds) and searched with Dijkstra over the policy's (switch,
// state) product graph, so only paths inside the policy's admissible
// route set are ever considered. With the default `up-down` policy
// this is the paper's flow, bit for bit.
//
// The search kernel. Each flow runs one binary-heap Dijkstra, and a cold
// synthesis of the seven paper specs runs ~1.4 x 10^5 of them, so
// everything a search reads that outlives it is prepared beforehand:
//   * per compute_paths call, and again after indirect switches are
//     added: the policy's admissible successors of every (switch, state)
//     node — RoutingPolicy::next_state evaluated once per pair instead of
//     once per relaxation — the cost model's per-pair terms, and each
//     (core, class)'s first and last link;
//   * per flow: the cost model's per-flow terms (routing/cost_model.h);
//   * the distance, predecessor and heap buffers are reused across flows.
// States leave the heap in (distance, state id) order, lazily skipping
// stale entries, and a popped state relaxes its successors with the strict
// `<` test; the search stops when the destination switch pops. A pop's
// relaxations touch distinct states, so their order cannot matter, and
// every hop cost is bit-equal to Algorithm 3's unsplit expression (see
// cost_model.h). Routes, links and bandwidths are therefore identical to
// the unprepared search kept in tests/oracle/path_compute_reference.h,
// which tests/path_compute_equivalence_test.cpp compares it against.
//
// Deadlock freedom:
//   * routing deadlock  — every shipped policy's route set is a two-phase
//     discipline over a strict total switch order (routing/policy.h),
//     which makes the channel dependency graph acyclic for any set of
//     admissible paths; the evaluation stage re-verifies each design via
//     build_cdg, and routing/route_sets.h verifies the *enlarged*
//     adaptive route sets the simulator draws from;
//   * message-dependent deadlock — request and response flows use disjoint
//     physical links (class-separated channels), so the two classes can
//     never couple into a cycle (see deadlock.h).
//
// When flows remain unroutable because endpoints ran out of ports, one
// indirect (core-less) switch per affected layer is inserted and the failed
// flows are retried through it (Section VI's indirect switches).
#pragma once

#include <vector>

#include "sunfloor/core/design_point.h"

namespace sunfloor {

struct PathComputeResult {
    bool ok = false;
    std::vector<int> failed_flows;      ///< flow ids left unrouted
    int indirect_switches_added = 0;
    std::vector<int> capacity_violations;  ///< link ids oversubscribed
};

/// Route every flow of `spec` on `topo` (which must already contain the
/// core->switch links from build_initial_topology), creating inter-switch
/// links as needed.
PathComputeResult compute_paths(Topology& topo, const DesignSpec& spec,
                                const SynthesisConfig& cfg);

}  // namespace sunfloor
