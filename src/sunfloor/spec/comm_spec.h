// Communication specification (Section IV, Definition 2): the traffic
// flows of the application with bandwidth, latency constraint and message
// type (request/response). The message type feeds the message-dependent
// deadlock avoidance of the path computation.
#pragma once

#include <vector>

namespace sunfloor {

enum class FlowType { Request, Response };

/// One traffic flow between two cores.
struct Flow {
    int src = 0;                     ///< core id
    int dst = 0;                     ///< core id
    double bw_mbps = 0.0;            ///< average bandwidth demand
    double max_latency_cycles = 0.0; ///< constraint; <=0 means unconstrained
    FlowType type = FlowType::Request;
};

/// All flows of an application.
class CommSpec {
  public:
    /// Add a flow; returns its id. Throws on non-finite or negative
    /// bandwidth, non-finite latency constraint, or src == dst.
    int add_flow(Flow flow);

    int num_flows() const { return static_cast<int>(flows_.size()); }
    const Flow& flow(int id) const {
        return flows_.at(static_cast<std::size_t>(id));
    }
    const std::vector<Flow>& flows() const { return flows_; }

    /// max_bw of Definition 3: the largest bandwidth over all flows.
    double max_bw() const;

    /// min_lat of Definition 3: the tightest (smallest positive) latency
    /// constraint; returns 0 when no flow is constrained.
    double min_lat() const;

    /// Sum of all flow bandwidths.
    double total_bw() const;

  private:
    std::vector<Flow> flows_;
};

}  // namespace sunfloor
