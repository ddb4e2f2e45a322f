#include "sunfloor/routing/route_sets.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace sunfloor::routing {

namespace {

const std::vector<RouteOption> kNoOptions;

/// Per-class switch-pair channel lists: links[cls][u * nsw + v] are the
/// physical channels u -> v carrying class `cls`.
struct PairLinks {
    int nsw = 0;
    std::vector<std::vector<int>> links[2];
    /// Predecessor switches per (cls, v): every u with links u -> v.
    std::vector<std::vector<int>> preds[2];

    explicit PairLinks(const Topology& topo) : nsw(topo.num_switches()) {
        const std::size_t cells = static_cast<std::size_t>(nsw) * nsw;
        for (int c = 0; c < 2; ++c) {
            links[c].assign(cells, {});
            preds[c].assign(static_cast<std::size_t>(nsw), {});
        }
        for (int l = 0; l < topo.num_links(); ++l) {
            const auto& lk = topo.link(l);
            if (!lk.src.is_switch() || !lk.dst.is_switch()) continue;
            const int c = static_cast<int>(lk.cls);
            auto& cell = links[c][static_cast<std::size_t>(lk.src.index) *
                                      nsw +
                                  lk.dst.index];
            if (cell.empty())
                preds[c][static_cast<std::size_t>(lk.dst.index)].push_back(
                    lk.src.index);
            cell.push_back(l);
        }
    }
};

SwitchView view(const Topology& topo, int sw) {
    return {sw, topo.switch_at(sw).layer};
}

}  // namespace

const std::vector<RouteOption>& RouteSets::options(int flow, int sw,
                                                   int state) const {
    const auto& per_flow = options_.at(static_cast<std::size_t>(flow));
    if (per_flow.empty()) return kNoOptions;
    return per_flow.at(node(sw, state));
}

RouteSetsCsr RouteSets::export_csr(int num_switches) const {
    RouteSetsCsr csr;
    csr.num_states = num_states_;
    csr.initial_state = initial_state_;
    csr.adaptive = adaptive_;
    const std::size_t F = options_.size();
    const std::size_t nodes =
        static_cast<std::size_t>(num_switches) * num_states_;
    csr.opt_off.reserve(F * nodes + 1);
    csr.opt_off.push_back(0);
    csr.baked.assign(F * nodes, -1);
    csr.first.assign(F, -1);
    for (std::size_t f = 0; f < F; ++f) {
        csr.first[f] = firsts_[f];
        const auto& opts = options_[f];
        const auto& baked = baked_[f];
        for (std::size_t n = 0; n < nodes; ++n) {
            if (!opts.empty()) {
                for (const RouteOption& o : opts[n]) {
                    csr.opt_link.push_back(o.link);
                    csr.opt_state.push_back(o.next_state);
                }
                csr.baked[f * nodes + n] = baked[n];
            }
            csr.opt_off.push_back(static_cast<int>(csr.opt_link.size()));
        }
    }
    return csr;
}

RouteSets build_route_sets(const Topology& topo, const DesignSpec& spec,
                           const RoutingPolicy& policy) {
    RouteSets rs;
    const int S = policy.num_states();
    const int nsw = topo.num_switches();
    rs.num_states_ = S;
    rs.initial_state_ = policy.initial_state();
    rs.adaptive_ = policy.adaptive_in_sim();
    const int F = topo.num_flows();
    rs.options_.resize(static_cast<std::size_t>(F));
    rs.baked_.resize(static_cast<std::size_t>(F));
    rs.firsts_.assign(static_cast<std::size_t>(F), -1);

    const PairLinks pairs(topo);
    const std::size_t nodes = static_cast<std::size_t>(nsw) * S;

    for (int f = 0; f < F; ++f) {
        if (!topo.has_path(f)) continue;
        const auto& path = topo.flow_path(f);
        const Flow& flow = spec.comm.flow(f);
        const int cls = static_cast<int>(flow.type);
        const int first = path.front();
        const int last = path.back();
        const int ss = topo.link(first).dst.index;
        const int sd = topo.link(last).src.index;
        rs.firsts_[static_cast<std::size_t>(f)] = first;
        auto& opts = rs.options_[static_cast<std::size_t>(f)];
        auto& baked = rs.baked_[static_cast<std::size_t>(f)];
        opts.assign(nodes, {});
        baked.assign(nodes, -1);

        // Backward reachability to sd over the (switch, state) product
        // graph of admissible class-`cls` hops. A packet is done once it
        // reaches sd (it ejects there), so sd has no outgoing hops.
        std::vector<char> back(nodes, 0);
        std::deque<std::size_t> queue;
        for (int s = 0; s < S; ++s) {
            back[rs.node(sd, s)] = 1;
            queue.push_back(rs.node(sd, s));
        }
        while (!queue.empty()) {
            const std::size_t n = queue.front();
            queue.pop_front();
            const int v = static_cast<int>(n) / S;
            const int t = static_cast<int>(n) % S;
            for (int u : pairs.preds[cls][static_cast<std::size_t>(v)]) {
                if (u == sd) continue;  // no hops leave the destination
                for (int s = 0; s < S; ++s) {
                    if (back[rs.node(u, s)]) continue;
                    if (policy.next_state(view(topo, u), view(topo, v), s) !=
                        t)
                        continue;
                    back[rs.node(u, s)] = 1;
                    queue.push_back(rs.node(u, s));
                }
            }
        }

        // Forward reachability from (ss, s0) through backward-viable
        // nodes; only these product nodes get option entries (a packet
        // can never occupy any other).
        std::vector<char> fwd(nodes, 0);
        const std::size_t start = rs.node(ss, policy.initial_state());
        if (back[start]) {
            fwd[start] = 1;
            queue.push_back(start);
        }
        while (!queue.empty()) {
            const std::size_t n = queue.front();
            queue.pop_front();
            const int u = static_cast<int>(n) / S;
            const int s = static_cast<int>(n) % S;
            if (u == sd) continue;
            for (int v = 0; v < nsw; ++v) {
                if (v == u ||
                    pairs.links[cls][static_cast<std::size_t>(u) * nsw + v]
                        .empty())
                    continue;
                const int t =
                    policy.next_state(view(topo, u), view(topo, v), s);
                if (t < 0 || !back[rs.node(v, t)] || fwd[rs.node(v, t)])
                    continue;
                fwd[rs.node(v, t)] = 1;
                queue.push_back(rs.node(v, t));
            }
        }

        // Options: every admissible physical channel towards a
        // backward-viable node; the destination switch offers exactly the
        // ejection link.
        for (int u = 0; u < nsw; ++u) {
            for (int s = 0; s < S; ++s) {
                const std::size_t n = rs.node(u, s);
                if (!fwd[n]) continue;
                if (u == sd) {
                    opts[n].push_back({last, s});
                    continue;
                }
                for (int v = 0; v < nsw; ++v) {
                    if (v == u) continue;
                    const auto& cell =
                        pairs.links[cls][static_cast<std::size_t>(u) * nsw +
                                         v];
                    if (cell.empty()) continue;
                    const int t =
                        policy.next_state(view(topo, u), view(topo, v), s);
                    if (t < 0 || !back[rs.node(v, t)]) continue;
                    for (int l : cell) opts[n].push_back({l, t});
                }
                std::sort(opts[n].begin(), opts[n].end(),
                          [](const RouteOption& a, const RouteOption& b) {
                              return a.link < b.link;
                          });
            }
        }

        // Replay the automaton over the baked path, both to record the
        // tie-break table and to verify containment: every baked hop must
        // be among the node's options.
        int s = policy.initial_state();
        int u = ss;
        for (std::size_t i = 1; i + 1 < path.size(); ++i) {
            const int l = path[i];
            const int v = topo.link(l).dst.index;
            const auto& node_opts = opts[rs.node(u, s)];
            const auto it = std::find_if(
                node_opts.begin(), node_opts.end(),
                [l](const RouteOption& o) { return o.link == l; });
            if (it == node_opts.end())
                throw std::logic_error(
                    "route set does not contain flow " + std::to_string(f) +
                    "'s computed path: the policy does not match the "
                    "discipline the topology was routed with (e.g. "
                    "SimParams::routing != SynthesisConfig::routing), or "
                    "the policy is not a pure function of immutable "
                    "switch attributes");
            baked[rs.node(u, s)] = l;
            s = it->next_state;
            u = v;
        }
        if (u != sd || opts[rs.node(sd, s)].empty())
            throw std::logic_error(
                "route set does not reach the computed path's destination");
        baked[rs.node(sd, s)] = last;
    }
    return rs;
}

}  // namespace sunfloor::routing
