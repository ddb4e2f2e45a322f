// The link cost model of Algorithm 3, extracted from the path computation
// so every RoutingPolicy prices candidate hops identically.
//
// The cost of routing a flow across the ordered switch pair (i, j) is the
// *marginal* power of carrying it there — dynamic wire + TSV energy,
// destination-switch traversal energy, plus the idle cost of opening the
// physical link when no existing parallel channel has spare capacity.
// Algorithm 3's hard (INF) and soft (SOFT_INF) thresholds gate:
//   * vertical adjacency  — links across >= 2 layers are forbidden unless
//     the technology allows them (Phase 1 freedom);
//   * max_ill             — a new link may not push any crossed adjacent
//     boundary past the budget; within kSoftIllMargin of it costs
//     SOFT_INF;
//   * max_switch_size     — ports on either endpoint may not exceed the
//     largest switch usable at the target frequency; within
//     kSoftSwitchMargin of it costs SOFT_INF.
//
// A routing prices millions of hops, so the cost is split by how long
// each part stays fixed, and each part is computed once:
//   * per pair, for the whole routing (rebuild(), again after indirect
//     switches are added): Manhattan length, layer span, whether the span
//     is forbidden and the wire idle power of a new link;
//   * per flow, for one search (prepare_flow()): flit rate x wire energy,
//     TSV power per span, and every switch's destination energy at the
//     port degrees the search starts from (degrees change only when a
//     routed flow opens links, between searches);
//   * per hop (hop_cost()): a spare parallel channel, the max_ill budget
//     and the port limits, which read the live accounting.
//
// Bit-equality rule: hop_cost() adds the parts in the order of Algorithm
// 3's single expression (soft surcharges, wire, TSV, destination switch,
// wire idle, switch idle), and each precomputed part is a prefix
// of its product's operand order (flits * e_wire is precomputed, never
// e_wire * len). So every cost is bit-equal to the unsplit evaluation the
// test oracle (tests/oracle/path_compute_reference.h) keeps. The checks
// that return +inf may run in any order, since each of them returns +inf.
//
// The model carries the mutable accounting the incremental routing needs
// (per-pair channel lists, port degrees, boundary crossings); the caller
// reports every opened link through note_link_opened() and calls rebuild()
// after structural topology changes (e.g. indirect-switch insertion).
#pragma once

#include <limits>
#include <vector>

#include "sunfloor/core/design_point.h"

namespace sunfloor::routing {

/// Algorithm 3's soft thresholds: soft_max_ill = max_ill - kSoftIllMargin,
/// soft_max_switch_size = max_switch_size - kSoftSwitchMargin, and
/// SOFT_INF = kSoftInfFactor * (max cost of any hop).
inline constexpr int kSoftIllMargin = 2;
inline constexpr int kSoftSwitchMargin = 1;
inline constexpr double kSoftInfFactor = 10.0;

class LinkCostModel {
  public:
    static constexpr double kInfCost = std::numeric_limits<double>::infinity();

    LinkCostModel(const Topology& topo, const DesignSpec& spec,
                  const SynthesisConfig& cfg);

    /// Re-derive the cached topology state (degrees, channel lists,
    /// boundary crossings) and the per-pair terms after switches or links
    /// changed outside note_link_opened().
    void rebuild();

    /// Usable link bandwidth (MB/s) of one physical channel.
    double capacity_mbps() const { return capacity_mbps_; }

    /// Existing (i, j) channel of the class with room for `bw`; -1 when
    /// none (a fresh physical link would have to be opened).
    int usable_link(int i, int j, int cls, double bw) const;

    /// Fix the per-flow terms for the next searches: `f`'s class,
    /// bandwidth, flit energy per mm, TSV power per span and destination
    /// energy per switch. Call again after note_link_opened().
    void prepare_flow(const Flow& f);

    /// CHECK_CONSTRAINTS(i, j) of Algorithm 3 combined with the marginal
    /// power cost of moving the prepared flow over switch link
    /// (i, j); kInfCost when a hard constraint forbids the hop.
    double hop_cost(int i, int j) const;

    /// Account a newly opened physical channel `link_id` from switch `i`
    /// to switch `j` of message class `cls`.
    void note_link_opened(int link_id, int i, int j, int cls);

  private:
    /// The terms of one ordered switch pair that stay fixed while routing.
    struct PairTerms {
        double len = 0.0;      ///< Manhattan length (mm)
        double idle_mw = 0.0;  ///< wire idle power of a new link
        int lo = 0;            ///< lowest adjacent boundary crossed
        int span = 0;          ///< layers crossed
        bool forbidden = false;  ///< a new link may not span this pair
        bool has_channel[2] = {false, false};  ///< per class
    };

    std::size_t cell(int i, int j) const {
        return static_cast<std::size_t>(i) * nsw_ + j;
    }
    bool has_spare_channel(std::size_t c) const;
    double compute_soft_inf() const;

    const Topology& topo_;
    const DesignSpec& spec_;
    const SynthesisConfig& cfg_;
    const NocLibrary lib_;  ///< at cfg_'s flit width
    const WireModel wire_;
    double capacity_mbps_ = 0.0;
    int max_sw_size_ = 0;
    double soft_inf_ = 0.0;
    int num_layers_ = 1;
    // Soft thresholds, widened so max_ill - kSoftIllMargin cannot
    // overflow.
    long long soft_max_ill_ = 0;
    long long soft_max_sw_ = 0;
    double switch_idle_mw_ = 0.0;  ///< idle power of the two grown ports

    int nsw_ = 0;
    std::vector<std::vector<int>> sw_links_[2];  ///< channels per (i,j), class
    std::vector<int> in_deg_;
    std::vector<int> out_deg_;
    std::vector<int> ill_;  ///< crossings per adjacent boundary
    std::vector<PairTerms> pairs_;
    int max_span_ = 0;

    // The prepared flow.
    int cls_ = 0;
    double bw_ = 0.0;
    double flit_wire_pj_ = 0.0;   ///< flits/s * wire pJ per flit mm
    std::vector<double> tsv_mw_;  ///< TSV power per span
    std::vector<double> dst_mw_;  ///< destination-switch energy per switch
};

inline bool LinkCostModel::has_spare_channel(std::size_t c) const {
    if (!pairs_[c].has_channel[cls_]) return false;
    for (int id : sw_links_[cls_][c])
        if (topo_.link(id).bw_mbps + bw_ <= capacity_mbps_ + 1e-9)
            return true;
    return false;
}

inline double LinkCostModel::hop_cost(int i, int j) const {
    const std::size_t c = cell(i, j);
    const PairTerms& p = pairs_[c];
    // Reuse an existing parallel channel with spare capacity if any;
    // otherwise a fresh physical link must be opened.
    const bool reuse = has_spare_channel(c);

    double cost = 0.0;
    if (!reuse) {
        // Hard constraints for opening a new physical link.
        if (p.forbidden) return kInfCost;
        const int out_i = out_deg_[static_cast<std::size_t>(i)];
        const int in_j = in_deg_[static_cast<std::size_t>(j)];
        if (out_i + 1 > max_sw_size_ || in_j + 1 > max_sw_size_)
            return kInfCost;
        for (int b = p.lo; b < p.lo + p.span; ++b) {
            const int used = ill_[static_cast<std::size_t>(b)];
            if (used + 1 > cfg_.max_ill) return kInfCost;
            if (cfg_.use_soft_thresholds && used + 1 > soft_max_ill_)
                cost += soft_inf_;
        }
        if (cfg_.use_soft_thresholds &&
            (out_i + 1 > soft_max_sw_ || in_j + 1 > soft_max_sw_))
            cost += soft_inf_;
    }

    // Marginal dynamic power of the wire and the destination switch.
    cost += flit_wire_pj_ * p.len * 1e-9;
    cost += tsv_mw_[static_cast<std::size_t>(p.span)];
    cost += dst_mw_[static_cast<std::size_t>(j)];
    if (!reuse) {
        // Opening the link adds its idle power and grows two crossbars.
        cost += p.idle_mw;
        cost += switch_idle_mw_;
    }
    return cost;
}

}  // namespace sunfloor::routing
