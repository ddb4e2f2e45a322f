#include "sunfloor/graph/digraph.h"

namespace sunfloor {

Digraph::Digraph(int num_vertices) {
    if (num_vertices < 0)
        throw std::invalid_argument("Digraph: negative vertex count");
    adj_.resize(static_cast<std::size_t>(num_vertices));
    radj_.resize(static_cast<std::size_t>(num_vertices));
}

int Digraph::add_edge(int src, int dst, double weight) {
    check_vertex(src);
    check_vertex(dst);
    const int e = num_edges();
    edges_.push_back({src, dst, weight});
    adj_[static_cast<std::size_t>(src)].push_back(e);
    radj_[static_cast<std::size_t>(dst)].push_back(e);
    return e;
}

int Digraph::merge_edge(int src, int dst, double weight) {
    if (auto e = find_edge(src, dst)) {
        edges_[static_cast<std::size_t>(*e)].weight += weight;
        return *e;
    }
    return add_edge(src, dst, weight);
}

std::optional<int> Digraph::find_edge(int src, int dst) const {
    check_vertex(src);
    check_vertex(dst);
    for (int e : adj_[static_cast<std::size_t>(src)])
        if (edges_[static_cast<std::size_t>(e)].dst == dst) return e;
    return std::nullopt;
}

// Iterative three-colour DFS: a cycle exists iff it finds a back edge.
bool has_cycle(const Digraph& g) {
    const int n = g.num_vertices();
    enum class Color : unsigned char { White, Grey, Black };
    std::vector<Color> color(static_cast<std::size_t>(n), Color::White);
    // Stack of (vertex, next out-edge position).
    std::vector<std::pair<int, std::size_t>> stack;
    for (int s = 0; s < n; ++s) {
        if (color[static_cast<std::size_t>(s)] != Color::White) continue;
        stack.push_back({s, 0});
        color[static_cast<std::size_t>(s)] = Color::Grey;
        while (!stack.empty()) {
            auto& [v, pos] = stack.back();
            const auto& out = g.out_edges(v);
            if (pos < out.size()) {
                const int w = g.edge(out[pos++]).dst;
                const Color cw = color[static_cast<std::size_t>(w)];
                if (cw == Color::Grey) return true;
                if (cw == Color::White) {
                    color[static_cast<std::size_t>(w)] = Color::Grey;
                    stack.push_back({w, 0});
                }
            } else {
                color[static_cast<std::size_t>(v)] = Color::Black;
                stack.pop_back();
            }
        }
    }
    return false;
}

}  // namespace sunfloor
