// Pluggable routing disciplines (route-set policies) for the path
// computation and the flit-level simulator.
//
// Section VI of the paper routes every flow over a single hard-wired
// discipline: inter-switch paths ascend in switch index and then descend
// (up*/down* order), which keeps the channel dependency graph acyclic by
// construction. This module turns that discipline into one of several
// pluggable RoutingPolicy implementations, separating the three concerns
// the original compute_paths() fused:
//
//   1. admissible-path enumeration — the policy's route set, expressed as
//      a small deterministic automaton over (switch, state) product nodes:
//      next_state() answers "may a packet in `state` hop u -> v, and in
//      which state does it continue?". The path computation searches only
//      admissible transitions; the simulator's adaptive output selection
//      chooses per hop among them (routing/route_sets.h);
//   2. the link cost model — marginal power, shared by every policy
//      (routing/cost_model.h);
//   3. flow-order scheduling — which flow routes first (schedule_flows).
//
// The three shipped policies are turn-restriction disciplines over strict
// total orders of the switch set. The classic mesh turn models (west-first,
// odd-even) do not transfer verbatim to the irregular switch graphs this
// flow synthesizes — there is no grid, so "west" and "column parity" are
// reinterpreted against a total switch order, the same generalization that
// turns dimension-order routing into up*/down*:
//
//   * UpDown    — ascend in switch index, then descend. This is the
//     paper's discipline, extracted verbatim: with this policy the path
//     computation is bit-identical to the pre-redesign compute_paths().
//     Deterministic in the simulator (packets follow their computed path).
//   * WestFirst — all "westward" (index-decreasing) hops must come first;
//     after the first eastward hop a packet may never turn west again.
//     The mirror image of UpDown, so its route sets prefer low-index
//     switches as intermediates. Adaptive in the simulator.
//   * OddEven   — ascend-then-descend over the parity-interleaved order
//     (all even-index switches before all odd-index ones), so which turns
//     a packet may take at a switch depends on the switch's parity — the
//     spirit of Chiu's odd-even restriction on an irregular graph.
//     Adaptive in the simulator.
//
// Every such two-phase discipline over a strict total order yields acyclic
// channel dependencies for any set of admissible paths (phase-0 hops
// strictly increase the order, phase-1 hops strictly decrease it, and a
// packet switches phase at most once). The synthesis flow nevertheless
// re-verifies each design through build_cdg / build_extended_cdg — and the
// *enlarged* adaptive route sets through the route-set CDGs of
// routing/route_sets.h — rather than trusting the construction alone.
//
// Policies must be pure functions of a switch's immutable attributes
// (index, layer): positions move during placement/floorplanning, so a
// position-dependent discipline would make the simulator's route sets
// disagree with the routing-time ones. SwitchView deliberately exposes
// only the stable attributes.
#pragma once

#include <string>
#include <vector>

#include "sunfloor/spec/comm_spec.h"

namespace sunfloor::routing {

/// The shipped routing disciplines. Values are stable (they appear in
/// ParamGrid axes and cache keys).
enum class RoutingPolicyId {
    UpDown,     ///< the paper's up*/down* order (default, deterministic)
    WestFirst,  ///< west-first turn restriction over the index order
    OddEven,    ///< parity-interleaved ascend/descend order
};

/// "up-down", "west-first" or "odd-even" — the single source for CLI
/// parsing, cache keys and exports (one enum_names table behind all
/// three helpers).
const char* routing_to_string(RoutingPolicyId id);

/// Inverse of routing_to_string; ASCII case-insensitive, returns false on
/// any other input.
bool routing_from_string(const std::string& s, RoutingPolicyId& out);

/// "up-down|west-first|odd-even" — for uniform CLI error messages.
std::string routing_choices();

/// The immutable attributes of a switch a policy may consult. Positions
/// are deliberately absent (see the header comment).
struct SwitchView {
    int index = 0;
    int layer = 0;
};

/// One routing discipline: a route-set automaton plus the flow-order
/// schedule. Implementations are stateless and shared (routing_policy()
/// hands out singletons); every method must be pure.
class RoutingPolicy {
  public:
    virtual ~RoutingPolicy() = default;

    virtual RoutingPolicyId id() const = 0;
    const char* name() const { return routing_to_string(id()); }

    /// States of the route-set automaton; a packet starts every path in
    /// initial_state().
    virtual int num_states() const = 0;
    virtual int initial_state() const = 0;

    /// State after hopping u -> v from `state`, or -1 when the hop is
    /// outside the policy's route set. Only inter-switch hops consult the
    /// automaton; core<->switch links are fixed per flow.
    virtual int next_state(const SwitchView& u, const SwitchView& v,
                           int state) const = 0;

    /// Whether the simulator may pick per hop among the policy's
    /// admissible next links (credit-aware adaptive output selection), or
    /// must replay the computed path exactly. The default policy is
    /// deterministic so the measured numbers of the paper's flow stay
    /// bit-stable.
    virtual bool adaptive_in_sim() const = 0;

    /// Flow routing order. The default is the ordering of [16] the paper
    /// uses: decreasing bandwidth, ties by flow id, so the heaviest flows
    /// get the cheapest, shortest routes.
    virtual std::vector<int> schedule_flows(const CommSpec& comm) const;
};

/// The shared singleton implementing `id`.
const RoutingPolicy& routing_policy(RoutingPolicyId id);

}  // namespace sunfloor::routing
