#include "sunfloor/core/path_compute.h"

#include <algorithm>
#include <functional>

#include "sunfloor/routing/cost_model.h"
#include "sunfloor/routing/policy.h"
#include "sunfloor/util/strings.h"

namespace sunfloor {

namespace {

constexpr double kInf = routing::LinkCostModel::kInfCost;

class PathComputer {
  public:
    PathComputer(Topology& topo, const DesignSpec& spec,
                 const SynthesisConfig& cfg,
                 const routing::RoutingPolicy& policy)
        : topo_(topo), spec_(spec), policy_(policy),
          cost_(topo, spec, cfg) {
        num_layers_ = std::max(1, spec.cores.num_layers());
        index_core_links();
        build_successors();
    }

    PathComputeResult run() {
        PathComputeResult res;
        // Flow-order scheduling is the policy's third concern; every
        // shipped policy uses the decreasing-bandwidth order of [16].
        const std::vector<int> order = policy_.schedule_flows(spec_.comm);

        std::vector<int> failed;
        for (int f : order)
            if (!route_flow(f)) failed.push_back(f);

        if (!failed.empty()) {
            // Indirect switches (Section VI): one per layer touched by a
            // failed flow, used as extra intermediate hops.
            res.indirect_switches_added = add_indirect_switches(failed);
            cost_.rebuild();
            build_successors();
            std::vector<int> still_failed;
            for (int f : failed)
                if (!route_flow(f)) still_failed.push_back(f);
            failed = std::move(still_failed);
        }

        for (int l = 0; l < topo_.num_links(); ++l)
            if (topo_.link(l).bw_mbps > cost_.capacity_mbps() + 1e-9)
                res.capacity_violations.push_back(l);

        res.failed_flows = std::move(failed);
        res.ok = res.failed_flows.empty() && res.capacity_violations.empty();
        return res;
    }

  private:
    /// One admissible hop out of a product state: to switch `v`, arriving
    /// in product state `next`.
    struct Successor {
        int v;
        int next;
    };

    // The first core->switch and switch->core link of each (core, class),
    // by lowest id. Routing opens only switch->switch links, so the index
    // stays valid for the whole run.
    void index_core_links() {
        const std::size_t slots =
            2 * static_cast<std::size_t>(topo_.num_cores());
        first_link_.assign(slots, -1);
        last_link_.assign(slots, -1);
        for (int l = 0; l < topo_.num_links(); ++l) {
            const auto& lk = topo_.link(l);
            const int cls = static_cast<int>(lk.cls);
            if (lk.src.is_core()) {
                int& slot = first_link_[core_slot(lk.src.index, cls)];
                if (slot < 0) slot = l;
            }
            if (lk.dst.is_core()) {
                int& slot = last_link_[core_slot(lk.dst.index, cls)];
                if (slot < 0) slot = l;
            }
        }
    }
    static std::size_t core_slot(int core, int cls) {
        return 2 * static_cast<std::size_t>(core) + cls;
    }
    int core_link(const std::vector<int>& index, int core, FlowType cls) const {
        if (core < 0 || core >= topo_.num_cores()) return -1;
        return index[core_slot(core, static_cast<int>(cls))];
    }

    // The policy's admissible hops out of every (switch, state) product
    // node, in increasing target switch order — the order in which a
    // search over all switches would relax them. The policies are pure
    // functions of switch index and layer, so the lists hold until
    // switches are added.
    void build_successors() {
        const int nsw = topo_.num_switches();
        const int S = policy_.num_states();
        const std::size_t nstates = static_cast<std::size_t>(S) * nsw;
        succ_begin_.assign(nstates + 1, 0);
        succ_.clear();
        for (int u = 0; u < nsw; ++u) {
            const routing::SwitchView vu{u, topo_.switch_at(u).layer};
            for (int state = 0; state < S; ++state) {
                for (int v = 0; v < nsw; ++v) {
                    if (v == u) continue;
                    const routing::SwitchView vv{v, topo_.switch_at(v).layer};
                    const int nstate = policy_.next_state(vu, vv, state);
                    if (nstate >= 0) succ_.push_back({v, S * v + nstate});
                }
                succ_begin_[static_cast<std::size_t>(S * u + state) + 1] =
                    static_cast<int>(succ_.size());
            }
        }
        dist_.resize(nstates);
        prev_.resize(nstates);
    }

    // Dijkstra over the policy's (switch, state) product graph: only hops
    // the route-set automaton admits are expanded, so any returned path is
    // in the policy's route set by construction (e.g. up*/down* under the
    // default policy: an ascending segment followed by a descending one).
    // States pop in (distance, state id) order and relax their successors
    // in target order, so ties resolve exactly as in a full scan. Leaves
    // the switch sequence in route_, empty on failure.
    void find_route(int sw_s, int sw_d) {
        const int S = policy_.num_states();
        // prev_ is read only along a chain of states reached in this
        // search, each of which it sets; only the start needs a reset.
        std::fill(dist_.begin(), dist_.end(), kInf);
        heap_.clear();
        route_.clear();
        const auto push = [this](double d, int st) {
            heap_.emplace_back(d, st);
            std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
        };
        const int start = S * sw_s + policy_.initial_state();
        dist_[static_cast<std::size_t>(start)] = 0.0;
        prev_[static_cast<std::size_t>(start)] = -1;
        push(0.0, start);
        while (!heap_.empty()) {
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
            const auto [d, st] = heap_.back();
            heap_.pop_back();
            if (d > dist_[static_cast<std::size_t>(st)]) continue;
            const int u = st / S;
            if (u == sw_d) break;
            const int end = succ_begin_[static_cast<std::size_t>(st) + 1];
            for (int k = succ_begin_[static_cast<std::size_t>(st)]; k < end;
                 ++k) {
                const Successor s = succ_[static_cast<std::size_t>(k)];
                // A forbidden hop costs +inf, which never relaxes.
                const double c = cost_.hop_cost(u, s.v);
                const std::size_t nst = static_cast<std::size_t>(s.next);
                if (d + c < dist_[nst]) {
                    dist_[nst] = d + c;
                    prev_[nst] = st;
                    push(d + c, s.next);
                }
            }
        }
        int goal = -1;
        for (int state = 0; state < S; ++state) {
            const int st = S * sw_d + state;
            if (dist_[static_cast<std::size_t>(st)] < kInf &&
                (goal < 0 || dist_[static_cast<std::size_t>(st)] <
                                 dist_[static_cast<std::size_t>(goal)]))
                goal = st;
        }
        if (goal < 0) return;
        for (int st = goal; st >= 0; st = prev_[static_cast<std::size_t>(st)])
            route_.push_back(st / S);
        std::reverse(route_.begin(), route_.end());
    }

    bool route_flow(int flow_id) {
        if (topo_.has_path(flow_id)) return true;
        const Flow& f = spec_.comm.flow(flow_id);
        const int lf = core_link(first_link_, f.src, f.type);
        const int ll = core_link(last_link_, f.dst, f.type);
        if (lf < 0 || ll < 0) return false;
        const int sw_s = topo_.link(lf).dst.index;
        const int sw_d = topo_.link(ll).src.index;

        std::vector<int> links{lf};
        if (sw_s != sw_d) {
            cost_.prepare_flow(f);
            find_route(sw_s, sw_d);
            if (route_.empty()) return false;
            const int cls = static_cast<int>(f.type);
            for (std::size_t i = 0; i + 1 < route_.size(); ++i) {
                const int a = route_[i];
                const int b = route_[i + 1];
                int id = cost_.usable_link(a, b, cls, f.bw_mbps);
                if (id < 0) {
                    id = topo_.add_parallel_link(NodeRef::sw(a),
                                                 NodeRef::sw(b), f.type);
                    cost_.note_link_opened(id, a, b, cls);
                }
                links.push_back(id);
            }
        }
        links.push_back(ll);
        topo_.set_flow_path(flow_id, f, links);
        return true;
    }

    int add_indirect_switches(const std::vector<int>& failed) {
        std::vector<char> want(static_cast<std::size_t>(num_layers_), 0);
        for (int fid : failed) {
            const Flow& f = spec_.comm.flow(fid);
            want[static_cast<std::size_t>(spec_.cores.core(f.src).layer)] = 1;
            want[static_cast<std::size_t>(spec_.cores.core(f.dst).layer)] = 1;
        }
        int added = 0;
        for (int ly = 0; ly < num_layers_; ++ly) {
            if (!want[static_cast<std::size_t>(ly)]) continue;
            const Rect bb = spec_.cores.layer_bounding_box(ly);
            topo_.add_switch(format("isw_L%d", ly), ly, bb.center());
            ++added;
        }
        return added;
    }

    Topology& topo_;
    const DesignSpec& spec_;
    const routing::RoutingPolicy& policy_;
    routing::LinkCostModel cost_;
    int num_layers_ = 1;

    std::vector<int> first_link_;  ///< per (core, class); -1 when missing
    std::vector<int> last_link_;
    std::vector<int> succ_begin_;  ///< per product state, into succ_
    std::vector<Successor> succ_;
    // Search buffers, reused across flows.
    std::vector<double> dist_;
    std::vector<int> prev_;
    std::vector<std::pair<double, int>> heap_;
    std::vector<int> route_;  ///< switch sequence of the last search
};

}  // namespace

PathComputeResult compute_paths(Topology& topo, const DesignSpec& spec,
                                const SynthesisConfig& cfg) {
    return PathComputer(topo, spec, cfg,
                        routing::routing_policy(cfg.routing))
        .run();
}

}  // namespace sunfloor
