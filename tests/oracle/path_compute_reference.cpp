#include "oracle/path_compute_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "sunfloor/routing/cost_model.h"
#include "sunfloor/routing/policy.h"
#include "sunfloor/util/strings.h"

namespace sunfloor::oracle {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

ReferenceCostModel::ReferenceCostModel(const Topology& topo,
                                       const DesignSpec& spec,
                                       const SynthesisConfig& cfg)
    : topo_(topo), spec_(spec), cfg_(cfg), lib_(cfg.eval.flit_width_bits),
      wire_(cfg.eval.flit_width_bits) {
    capacity_mbps_ =
        cfg.eval.freq_hz * (cfg.eval.flit_width_bits / 8.0) * 1e-6;
    max_sw_size_ = NocLibrary::max_switch_size(cfg.eval.freq_hz);
    soft_inf_ = compute_soft_inf();
    num_layers_ = std::max(1, spec.cores.num_layers());
    rebuild();
}

void ReferenceCostModel::rebuild() {
    nsw_ = topo_.num_switches();
    const std::size_t cells = static_cast<std::size_t>(nsw_) * nsw_;
    for (int c = 0; c < 2; ++c) sw_links_[c].assign(cells, {});
    in_deg_.assign(static_cast<std::size_t>(nsw_), 0);
    out_deg_.assign(static_cast<std::size_t>(nsw_), 0);
    ill_.assign(static_cast<std::size_t>(std::max(1, num_layers_ - 1)), 0);
    for (int l = 0; l < topo_.num_links(); ++l) {
        const auto& lk = topo_.link(l);
        if (lk.dst.is_switch())
            ++in_deg_[static_cast<std::size_t>(lk.dst.index)];
        if (lk.src.is_switch())
            ++out_deg_[static_cast<std::size_t>(lk.src.index)];
        if (lk.src.is_switch() && lk.dst.is_switch())
            sw_links_[static_cast<int>(lk.cls)]
                     [cell(lk.src.index, lk.dst.index)]
                         .push_back(l);
        const int la = topo_.node_layer(lk.src);
        const int lb = topo_.node_layer(lk.dst);
        for (int b = std::min(la, lb); b < std::max(la, lb); ++b)
            ++ill_[static_cast<std::size_t>(b)];
    }
}

int ReferenceCostModel::usable_link(int i, int j, int cls, double bw) const {
    for (int id : sw_links_[cls][cell(i, j)])
        if (topo_.link(id).bw_mbps + bw <= capacity_mbps_ + 1e-9) return id;
    return -1;
}

double ReferenceCostModel::edge_cost(int i, int j, const Flow& f) const {
    const int li = topo_.switch_at(i).layer;
    const int lj = topo_.switch_at(j).layer;
    const int span = std::abs(li - lj);
    const int cls = static_cast<int>(f.type);
    const int existing = usable_link(i, j, cls, f.bw_mbps);

    double cost = 0.0;
    if (existing < 0) {
        if (span >= 2 && !cfg_.allow_multilayer_links) return kInf;
        for (int b = std::min(li, lj); b < std::max(li, lj); ++b) {
            const int used = ill_[static_cast<std::size_t>(b)];
            if (used + 1 > cfg_.max_ill) return kInf;
            if (cfg_.use_soft_thresholds &&
                used + 1 > cfg_.max_ill - routing::kSoftIllMargin)
                cost += soft_inf_;
        }
        const int out_i = out_deg_[static_cast<std::size_t>(i)];
        const int in_j = in_deg_[static_cast<std::size_t>(j)];
        if (out_i + 1 > max_sw_size_ || in_j + 1 > max_sw_size_) return kInf;
        if (cfg_.use_soft_thresholds &&
            (out_i + 1 > max_sw_size_ - routing::kSoftSwitchMargin ||
             in_j + 1 > max_sw_size_ - routing::kSoftSwitchMargin))
            cost += soft_inf_;
    }

    const double flits = lib_.flits_per_second(f.bw_mbps);
    const double len = manhattan(topo_.switch_at(i).position,
                                 topo_.switch_at(j).position);
    cost += flits * wire_.energy_pj_per_flit_mm() * len * 1e-9;
    cost += TsvModel::power_mw(flits, span);
    cost += flits *
            lib_.switch_energy_per_flit_pj(
                in_deg_[static_cast<std::size_t>(j)] + 1,
                out_deg_[static_cast<std::size_t>(j)] + 1) *
            1e-9;
    if (existing < 0) {
        cost += kWireIdleMwPerMmGhz * len * cfg_.eval.freq_hz / 1e9;
        cost += NocLibrary::switch_idle_power_mw(1, 1, cfg_.eval.freq_hz);
    }
    return cost;
}

void ReferenceCostModel::note_link_opened(int link_id, int i, int j,
                                          int cls) {
    sw_links_[cls][cell(i, j)].push_back(link_id);
    ++out_deg_[static_cast<std::size_t>(i)];
    ++in_deg_[static_cast<std::size_t>(j)];
    const int la = topo_.switch_at(i).layer;
    const int lb = topo_.switch_at(j).layer;
    for (int bd = std::min(la, lb); bd < std::max(la, lb); ++bd)
        ++ill_[static_cast<std::size_t>(bd)];
}

double ReferenceCostModel::compute_soft_inf() const {
    double diag = 1.0;
    for (int ly = 0; ly < std::max(1, spec_.cores.num_layers()); ++ly) {
        const Rect bb = spec_.cores.layer_bounding_box(ly);
        diag = std::max(diag, bb.w + bb.h + bb.x + bb.y);
    }
    const double max_flits = lib_.flits_per_second(spec_.comm.max_bw());
    const double worst_hop_mw =
        max_flits * wire_.energy_pj_per_flit_mm() * diag * 1e-9 +
        max_flits *
            lib_.switch_energy_per_flit_pj(max_sw_size_, max_sw_size_) *
            1e-9 +
        kWireIdleMwPerMmGhz * diag * cfg_.eval.freq_hz / 1e9;
    return routing::kSoftInfFactor * std::max(worst_hop_mw, 1e-6);
}

namespace {

class ReferencePathComputer {
  public:
    ReferencePathComputer(Topology& topo, const DesignSpec& spec,
                          const SynthesisConfig& cfg,
                          const routing::RoutingPolicy& policy)
        : topo_(topo), spec_(spec), policy_(policy), cost_(topo, spec, cfg) {
        num_layers_ = std::max(1, spec.cores.num_layers());
    }

    PathComputeResult run() {
        PathComputeResult res;
        const std::vector<int> order = policy_.schedule_flows(spec_.comm);

        std::vector<int> failed;
        for (int f : order)
            if (!route_flow(f)) failed.push_back(f);

        if (!failed.empty()) {
            res.indirect_switches_added = add_indirect_switches(failed);
            cost_.rebuild();
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
    routing::SwitchView view(int sw) const {
        return {sw, topo_.switch_at(sw).layer};
    }

    int first_link(const Flow& f) const {
        for (int l = 0; l < topo_.num_links(); ++l) {
            const auto& lk = topo_.link(l);
            if (lk.src == NodeRef::core(f.src) && lk.cls == f.type) return l;
        }
        return -1;
    }
    int last_link(const Flow& f) const {
        for (int l = 0; l < topo_.num_links(); ++l) {
            const auto& lk = topo_.link(l);
            if (lk.dst == NodeRef::core(f.dst) && lk.cls == f.type) return l;
        }
        return -1;
    }

    std::vector<int> find_route(int sw_s, int sw_d, const Flow& f) const {
        const int nsw = topo_.num_switches();
        const int S = policy_.num_states();
        const int nstates = S * nsw;
        std::vector<double> dist(static_cast<std::size_t>(nstates), kInf);
        std::vector<int> prev(static_cast<std::size_t>(nstates), -1);
        using Item = std::pair<double, int>;
        std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
        const int start = S * sw_s + policy_.initial_state();
        dist[static_cast<std::size_t>(start)] = 0.0;
        pq.push({0.0, start});
        while (!pq.empty()) {
            const auto [d, st] = pq.top();
            pq.pop();
            if (d > dist[static_cast<std::size_t>(st)]) continue;
            const int u = st / S;
            const int state = st % S;
            if (u == sw_d) break;
            for (int v = 0; v < nsw; ++v) {
                if (v == u) continue;
                const int nstate =
                    policy_.next_state(view(u), view(v), state);
                if (nstate < 0) continue;
                const double c = cost_.edge_cost(u, v, f);
                if (c == kInf) continue;
                const int nst = S * v + nstate;
                if (d + c < dist[static_cast<std::size_t>(nst)]) {
                    dist[static_cast<std::size_t>(nst)] = d + c;
                    prev[static_cast<std::size_t>(nst)] = st;
                    pq.push({d + c, nst});
                }
            }
        }
        int goal = -1;
        for (int state = 0; state < S; ++state) {
            const int st = S * sw_d + state;
            if (dist[static_cast<std::size_t>(st)] < kInf &&
                (goal < 0 || dist[static_cast<std::size_t>(st)] <
                                 dist[static_cast<std::size_t>(goal)]))
                goal = st;
        }
        if (goal < 0) return {};
        std::vector<int> seq;
        for (int st = goal; st >= 0; st = prev[static_cast<std::size_t>(st)])
            seq.push_back(st / S);
        std::reverse(seq.begin(), seq.end());
        return seq;
    }

    bool route_flow(int flow_id) {
        if (topo_.has_path(flow_id)) return true;
        const Flow& f = spec_.comm.flow(flow_id);
        const int lf = first_link(f);
        const int ll = last_link(f);
        if (lf < 0 || ll < 0) return false;
        const int sw_s = topo_.link(lf).dst.index;
        const int sw_d = topo_.link(ll).src.index;

        std::vector<int> links{lf};
        if (sw_s != sw_d) {
            const auto seq = find_route(sw_s, sw_d, f);
            if (seq.empty()) return false;
            const int cls = static_cast<int>(f.type);
            for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
                const int a = seq[i];
                const int b = seq[i + 1];
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
    ReferenceCostModel cost_;
    int num_layers_ = 1;
};

}  // namespace

PathComputeResult compute_paths_reference(Topology& topo,
                                          const DesignSpec& spec,
                                          const SynthesisConfig& cfg) {
    return ReferencePathComputer(topo, spec, cfg,
                                 routing::routing_policy(cfg.routing))
        .run();
}

}  // namespace sunfloor::oracle
