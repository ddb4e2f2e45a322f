// NoC topology data model: switches, unidirectional links, and the paths
// assigned to every traffic flow.
//
// A Topology is the output of the synthesis engine (Fig. 3: "Topology
// synthesis & floorplan" step) and the input of the evaluation, deadlock
// and export machinery. It is self-contained: core centers and layers are
// snapshotted from the CoreSpec at construction so the structure can be
// evaluated before and after floorplan legalization updates the switch
// positions.
//
// A finished topology is immutable and shared: the pipeline publishes each
// one once, as a SharedTopology, and every artifact and design point that
// holds it shares that one object.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sunfloor/spec/comm_spec.h"
#include "sunfloor/spec/core_spec.h"
#include "sunfloor/util/geometry.h"

namespace sunfloor {

/// Endpoint of a link: a core's network interface or a switch.
struct NodeRef {
    enum class Kind { Core, Switch };
    Kind kind = Kind::Core;
    int index = 0;

    static NodeRef core(int i) { return {Kind::Core, i}; }
    static NodeRef sw(int i) { return {Kind::Switch, i}; }
    bool is_core() const { return kind == Kind::Core; }
    bool is_switch() const { return kind == Kind::Switch; }
    friend bool operator==(const NodeRef&, const NodeRef&) = default;
};

struct NocSwitch {
    std::string name;
    int layer = 0;
    Point position{};  ///< center, mm, within its layer
};

/// A unidirectional physical link. Every link carries exactly one message
/// class (request or response): the synthesis flow separates the two
/// classes onto disjoint physical resources, which is the message-dependent
/// deadlock avoidance scheme of [14]/[16] (see deadlock.h). Bandwidth
/// accumulates as flows are assigned.
struct NocLink {
    NodeRef src;
    NodeRef dst;
    FlowType cls = FlowType::Request;
    double bw_mbps = 0.0;
};

class Topology {
  public:
    /// Snapshot core geometry from `cores`; `num_flows` sizes the path table.
    Topology(const CoreSpec& cores, int num_flows);

    int num_cores() const { return static_cast<int>(core_centers_.size()); }
    int num_flows() const { return static_cast<int>(paths_.size()); }

    // --- switches ---------------------------------------------------------
    int add_switch(std::string name, int layer, Point position = {});
    int num_switches() const { return static_cast<int>(switches_.size()); }
    const NocSwitch& switch_at(int i) const {
        return switches_.at(static_cast<std::size_t>(i));
    }
    NocSwitch& switch_at(int i) {
        return switches_.at(static_cast<std::size_t>(i));
    }

    // --- links --------------------------------------------------------------
    /// Add a link of one message class; returns its id. Repeated calls
    /// return the existing id. Request and response links between the same
    /// endpoints are distinct physical channels.
    int add_link(NodeRef src, NodeRef dst, FlowType cls = FlowType::Request);

    /// Always create a fresh physical channel, even when one already
    /// exists: the path computation opens parallel links between the same
    /// switch pair when a single channel's bandwidth saturates.
    int add_parallel_link(NodeRef src, NodeRef dst, FlowType cls);

    std::optional<int> find_link(NodeRef src, NodeRef dst,
                                 FlowType cls = FlowType::Request) const;
    int num_links() const { return static_cast<int>(links_.size()); }
    const NocLink& link(int id) const {
        return links_.at(static_cast<std::size_t>(id));
    }
    NocLink& link(int id) { return links_.at(static_cast<std::size_t>(id)); }

    /// Input/output port counts of a switch: one port per incident link
    /// (the paper's switch_size_inp / switch_size_out of Definition 6).
    int switch_in_degree(int sw) const;
    int switch_out_degree(int sw) const;

    // --- flow paths ---------------------------------------------------------
    /// Assign `links` (a contiguous src->dst chain) as the path of `flow`,
    /// accumulating its bandwidth and message class onto the links.
    /// Throws std::invalid_argument when the chain is not contiguous, does
    /// not join the flow's endpoints, crosses a link of the other message
    /// class, or the flow already has a path (std::out_of_range for a bad
    /// id); a rejected path changes nothing.
    void set_flow_path(int flow_id, const Flow& flow,
                       const std::vector<int>& links);

    bool has_path(int flow_id) const {
        return paths_.at(static_cast<std::size_t>(flow_id)).length > 0;
    }
    /// The link ids of a flow's path, src to dst; empty while unrouted.
    /// Valid until the next set_flow_path on this topology.
    std::span<const int> flow_path(int flow_id) const {
        const PathRef& p = paths_.at(static_cast<std::size_t>(flow_id));
        return {path_links_.data() + p.offset,
                static_cast<std::size_t>(p.length)};
    }
    bool all_flows_routed() const;

    // --- geometry -----------------------------------------------------------
    int node_layer(NodeRef n) const;
    Point node_position(NodeRef n) const;
    /// Planar component of a link's length (mm).
    double link_planar_length(int id) const;
    /// |layer(src) - layer(dst)| of a link.
    int link_layers_crossed(int id) const;

    /// Number of links crossing between layers min(a,b) and max(a,b) —
    /// ill(i, j) of Definition 6. A link crossing several layers consumes a
    /// vertical slot in every boundary it punches through.
    int inter_layer_links(int layer_a, int layer_b) const;
    /// Total vertical link crossings over all adjacent-layer boundaries.
    int total_inter_layer_links() const;
    /// Maximum crossings over any single adjacent-layer boundary (what the
    /// max_ill constraint bounds).
    int max_ill_used(int num_layers) const;

    /// Aggregate bandwidth traversing a switch (sum over flows and hops).
    double switch_through_bw(int sw) const;

    /// Update a core position snapshot (after re-floorplanning).
    void set_core_geometry(int core, Point center, int layer);

    // --- content identity -----------------------------------------------------
    /// Bitwise content equality over everything a topology holds: the core
    /// snapshots, the switches (name, layer, position), the links (ends,
    /// class, bandwidth) and the flow paths by flow id (the order they
    /// were set in does not matter) — exactly the fields cas::enc_topology
    /// writes into a store address. Doubles compare by bit
    /// pattern, so -0.0 and +0.0 differ (Point's == calls them equal) and
    /// a NaN equals only the same payload. The pipeline's placement and
    /// evaluation caches verify every hit with this.
    bool same_content(const Topology& other) const;

    /// 64-bit hash over the same fields: topologies with same_content()
    /// hash alike. Not stable across builds or platforms; in-memory
    /// probes only.
    std::uint64_t content_hash() const;

  private:
    /// Where one flow's path sits in path_links_.
    struct PathRef {
        int offset = 0;
        int length = 0;  ///< 0: unrouted
    };

    std::vector<Point> core_centers_;
    std::vector<int> core_layers_;
    std::vector<NocSwitch> switches_;
    std::vector<NocLink> links_;
    /// Flow paths in CSR form: every path's link ids, in the order the
    /// paths were set, indexed per flow by paths_.
    std::vector<int> path_links_;
    std::vector<PathRef> paths_;
};

/// A finished, immutable Topology shared by every holder: copying the
/// handle copies a pointer. Reads go through `->` and `*`, and the handle
/// converts to `const Topology&` so it passes wherever one is taken.
/// Never null. To change a design's topology, copy it out first
/// (`Topology t = *dp.topo;`).
class SharedTopology {
  public:
    /// Publish `topo`: move it into a new shared object.
    explicit SharedTopology(Topology topo)
        : ptr_(std::make_shared<const Topology>(std::move(topo))) {}

    const Topology& operator*() const { return *ptr_; }
    const Topology* operator->() const { return ptr_.get(); }
    operator const Topology&() const { return *ptr_; }

  private:
    std::shared_ptr<const Topology> ptr_;
};

}  // namespace sunfloor
