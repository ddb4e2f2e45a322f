// Path computation (Section VI, Algorithm 3) as a direct transcription:
// a fresh binary-heap Dijkstra per flow that enumerates every candidate
// hop through RoutingPolicy::next_state and prices it with a full
// evaluation of the hop cost. The library's compute_paths prepares the
// per-pair and per-flow cost terms and walks precomputed successor lists
// instead; tests require the two to route every flow identically, and
// every prepared hop cost to equal edge_cost() bit for bit.
#pragma once

#include <vector>

#include "sunfloor/core/path_compute.h"

namespace sunfloor::oracle {

/// Algorithm 3's hop cost, evaluated in full on every call, with the
/// same incremental accounting as routing::LinkCostModel.
class ReferenceCostModel {
  public:
    ReferenceCostModel(const Topology& topo, const DesignSpec& spec,
                       const SynthesisConfig& cfg);

    void rebuild();
    double capacity_mbps() const { return capacity_mbps_; }
    int usable_link(int i, int j, int cls, double bw) const;
    /// CHECK_CONSTRAINTS(i, j) plus the marginal cost of moving `f` over
    /// switch link (i, j); +inf when a hard constraint forbids the hop.
    double edge_cost(int i, int j, const Flow& f) const;
    void note_link_opened(int link_id, int i, int j, int cls);

  private:
    std::size_t cell(int i, int j) const {
        return static_cast<std::size_t>(i) * nsw_ + j;
    }
    double compute_soft_inf() const;

    const Topology& topo_;
    const DesignSpec& spec_;
    const SynthesisConfig& cfg_;
    const NocLibrary lib_;
    const WireModel wire_;
    double capacity_mbps_ = 0.0;
    int max_sw_size_ = 0;
    double soft_inf_ = 0.0;
    int num_layers_ = 1;

    int nsw_ = 0;
    std::vector<std::vector<int>> sw_links_[2];
    std::vector<int> in_deg_;
    std::vector<int> out_deg_;
    std::vector<int> ill_;
};

/// Same contract as sunfloor::compute_paths.
PathComputeResult compute_paths_reference(Topology& topo,
                                          const DesignSpec& spec,
                                          const SynthesisConfig& cfg);

}  // namespace sunfloor::oracle
