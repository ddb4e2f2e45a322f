// A small weighted directed-graph container.
//
// It holds the partitioning graphs PG/SPG/LPG (Definitions 3-5 of the
// paper, core/partition_graphs.h) and the channel dependency graphs of
// noc/deadlock.h, whose acyclicity has_cycle checks.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace sunfloor {

/// Weighted directed graph over vertices 0..num_vertices()-1.
/// Parallel edges are permitted (add_edge never merges); callers that need
/// merged weights use merge_edge().
class Digraph {
  public:
    struct Edge {
        int src = 0;
        int dst = 0;
        double weight = 0.0;
    };

    Digraph() = default;
    explicit Digraph(int num_vertices);

    int num_vertices() const { return static_cast<int>(adj_.size()); }
    int num_edges() const { return static_cast<int>(edges_.size()); }

    /// Append a directed edge; returns the edge index.
    /// Throws std::out_of_range for invalid endpoints.
    int add_edge(int src, int dst, double weight = 1.0);

    /// Add `weight` onto the existing src->dst edge, creating it if absent.
    /// Returns the edge index. Linear in out-degree(src).
    int merge_edge(int src, int dst, double weight);

    const Edge& edge(int e) const { return edges_.at(static_cast<std::size_t>(e)); }

    /// Indices of edges leaving v.
    const std::vector<int>& out_edges(int v) const {
        return adj_.at(static_cast<std::size_t>(v));
    }
    /// Indices of edges entering v.
    const std::vector<int>& in_edges(int v) const {
        return radj_.at(static_cast<std::size_t>(v));
    }

    int out_degree(int v) const { return static_cast<int>(out_edges(v).size()); }
    int in_degree(int v) const { return static_cast<int>(in_edges(v).size()); }

    /// Find the first edge src->dst, if any. Linear in out-degree(src).
    std::optional<int> find_edge(int src, int dst) const;

    const std::vector<Edge>& edges() const { return edges_; }

  private:
    void check_vertex(int v) const {
        if (v < 0 || v >= num_vertices())
            throw std::out_of_range("Digraph: vertex out of range");
    }

    std::vector<Edge> edges_;
    std::vector<std::vector<int>> adj_;   // out-edge indices per vertex
    std::vector<std::vector<int>> radj_;  // in-edge indices per vertex
};

/// True when the directed graph contains a cycle. An acyclic channel
/// dependency graph proves routing deadlock freedom (noc/deadlock.h).
bool has_cycle(const Digraph& g);

}  // namespace sunfloor
