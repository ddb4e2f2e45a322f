#include "sunfloor/routing/cost_model.h"

#include <algorithm>
#include <cmath>

namespace sunfloor::routing {

LinkCostModel::LinkCostModel(const Topology& topo, const DesignSpec& spec,
                             const SynthesisConfig& cfg)
    : topo_(topo), spec_(spec), cfg_(cfg), lib_(cfg.eval.flit_width_bits),
      wire_(cfg.eval.flit_width_bits) {
    capacity_mbps_ =
        cfg.eval.freq_hz * (cfg.eval.flit_width_bits / 8.0) * 1e-6;
    max_sw_size_ = NocLibrary::max_switch_size(cfg.eval.freq_hz);
    soft_inf_ = compute_soft_inf();
    num_layers_ = std::max(1, spec.cores.num_layers());
    soft_max_ill_ = static_cast<long long>(cfg.max_ill) - kSoftIllMargin;
    soft_max_sw_ = static_cast<long long>(max_sw_size_) - kSoftSwitchMargin;
    switch_idle_mw_ = NocLibrary::switch_idle_power_mw(1, 1, cfg.eval.freq_hz);
    rebuild();
}

void LinkCostModel::rebuild() {
    nsw_ = topo_.num_switches();
    const std::size_t cells = static_cast<std::size_t>(nsw_) * nsw_;
    for (int c = 0; c < 2; ++c) {
        sw_links_[c].assign(cells, {});
    }
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
                     [cell(lk.src.index, lk.dst.index)].push_back(l);
        const int la = topo_.node_layer(lk.src);
        const int lb = topo_.node_layer(lk.dst);
        for (int b = std::min(la, lb); b < std::max(la, lb); ++b)
            ++ill_[static_cast<std::size_t>(b)];
    }

    const double freq = cfg_.eval.freq_hz;
    pairs_.assign(cells, {});
    max_span_ = 0;
    for (int i = 0; i < nsw_; ++i) {
        const NocSwitch& si = topo_.switch_at(i);
        for (int j = 0; j < nsw_; ++j) {
            const NocSwitch& sj = topo_.switch_at(j);
            PairTerms& p = pairs_[cell(i, j)];
            p.len = manhattan(si.position, sj.position);
            p.idle_mw = kWireIdleMwPerMmGhz * p.len * freq / 1e9;
            p.lo = std::min(si.layer, sj.layer);
            p.span = std::abs(si.layer - sj.layer);
            p.forbidden = p.span >= 2 && !cfg_.allow_multilayer_links;
            for (int cls = 0; cls < 2; ++cls)
                p.has_channel[cls] = !sw_links_[cls][cell(i, j)].empty();
            max_span_ = std::max(max_span_, p.span);
        }
    }
    dst_mw_.assign(static_cast<std::size_t>(nsw_), 0.0);
    tsv_mw_.assign(static_cast<std::size_t>(max_span_) + 1, 0.0);
}

double LinkCostModel::compute_soft_inf() const {
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
    return kSoftInfFactor * std::max(worst_hop_mw, 1e-6);
}

int LinkCostModel::usable_link(int i, int j, int cls, double bw) const {
    for (int id : sw_links_[cls][cell(i, j)])
        if (topo_.link(id).bw_mbps + bw <= capacity_mbps_ + 1e-9)
            return id;
    return -1;
}

void LinkCostModel::prepare_flow(const Flow& f) {
    cls_ = static_cast<int>(f.type);
    bw_ = f.bw_mbps;
    const double flits = lib_.flits_per_second(f.bw_mbps);
    flit_wire_pj_ = flits * wire_.energy_pj_per_flit_mm();
    for (int s = 0; s <= max_span_; ++s)
        tsv_mw_[static_cast<std::size_t>(s)] = TsvModel::power_mw(flits, s);
    for (int j = 0; j < nsw_; ++j)
        dst_mw_[static_cast<std::size_t>(j)] =
            flits *
            lib_.switch_energy_per_flit_pj(
                in_deg_[static_cast<std::size_t>(j)] + 1,
                out_deg_[static_cast<std::size_t>(j)] + 1) *
            1e-9;
}

void LinkCostModel::note_link_opened(int link_id, int i, int j, int cls) {
    sw_links_[cls][cell(i, j)].push_back(link_id);
    pairs_[cell(i, j)].has_channel[cls] = true;
    ++out_deg_[static_cast<std::size_t>(i)];
    ++in_deg_[static_cast<std::size_t>(j)];
    const int la = topo_.switch_at(i).layer;
    const int lb = topo_.switch_at(j).layer;
    for (int bd = std::min(la, lb); bd < std::max(la, lb); ++bd)
        ++ill_[static_cast<std::size_t>(bd)];
}

}  // namespace sunfloor::routing
