#include "sunfloor/noc/topology.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <stdexcept>

#include "sunfloor/util/rng.h"

namespace sunfloor {

namespace {

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_point(const Point& a, const Point& b) {
    return same_bits(a.x, b.x) && same_bits(a.y, b.y);
}

/// Word-at-a-time hash (a multiply per word, splitmix64 to finish): the
/// hash only picks a bucket, and every hit is verified by same_content.
class ContentHasher {
  public:
    void add(std::uint64_t w) {
        h_ = ((h_ << 5 | h_ >> 59) ^ w) * 0x517cc1b727220a95ULL;
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
    void add(int v) {
        add(static_cast<std::uint64_t>(static_cast<unsigned>(v)));
    }
    void add(const Point& p) {
        add(p.x);
        add(p.y);
    }
    std::uint64_t done() const { return splitmix64(h_); }

  private:
    std::uint64_t h_ = 0;
};

}  // namespace

Topology::Topology(const CoreSpec& cores, int num_flows)
    : paths_(static_cast<std::size_t>(num_flows)) {
    core_centers_.reserve(static_cast<std::size_t>(cores.num_cores()));
    core_layers_.reserve(static_cast<std::size_t>(cores.num_cores()));
    for (const auto& c : cores.cores()) {
        core_centers_.push_back(c.center());
        core_layers_.push_back(c.layer);
    }
}

int Topology::add_switch(std::string name, int layer, Point position) {
    if (layer < 0) throw std::invalid_argument("Topology: negative layer");
    switches_.push_back({std::move(name), layer, position});
    return num_switches() - 1;
}

int Topology::add_link(NodeRef src, NodeRef dst, FlowType cls) {
    if (auto existing = find_link(src, dst, cls)) return *existing;
    return add_parallel_link(src, dst, cls);
}

int Topology::add_parallel_link(NodeRef src, NodeRef dst, FlowType cls) {
    if (src == dst) throw std::invalid_argument("Topology: self link");
    auto check = [&](NodeRef n) {
        const int limit = n.is_core() ? num_cores() : num_switches();
        if (n.index < 0 || n.index >= limit)
            throw std::out_of_range("Topology: link endpoint out of range");
    };
    check(src);
    check(dst);
    if (src.is_core() && dst.is_core())
        throw std::invalid_argument(
            "Topology: core-to-core links are not part of the architecture");
    links_.push_back({src, dst, cls, 0.0});
    return num_links() - 1;
}

std::optional<int> Topology::find_link(NodeRef src, NodeRef dst,
                                       FlowType cls) const {
    for (int i = 0; i < num_links(); ++i) {
        const auto& l = links_[static_cast<std::size_t>(i)];
        if (l.src == src && l.dst == dst && l.cls == cls) return i;
    }
    return std::nullopt;
}

int Topology::switch_in_degree(int sw) const {
    int d = 0;
    for (const auto& l : links_)
        if (l.dst == NodeRef::sw(sw)) ++d;
    return d;
}

int Topology::switch_out_degree(int sw) const {
    int d = 0;
    for (const auto& l : links_)
        if (l.src == NodeRef::sw(sw)) ++d;
    return d;
}

void Topology::set_flow_path(int flow_id, const Flow& flow,
                             const std::vector<int>& links) {
    PathRef& path = paths_.at(static_cast<std::size_t>(flow_id));
    if (path.length > 0)
        throw std::invalid_argument("Topology: flow already routed");
    if (links.empty())
        throw std::invalid_argument("Topology: empty path");
    // Validate contiguity and endpoints.
    const auto& first = link(links.front());
    const auto& last = link(links.back());
    if (!(first.src == NodeRef::core(flow.src)))
        throw std::invalid_argument("Topology: path does not start at source");
    if (!(last.dst == NodeRef::core(flow.dst)))
        throw std::invalid_argument("Topology: path does not end at target");
    for (std::size_t i = 0; i + 1 < links.size(); ++i)
        if (!(link(links[i]).dst == link(links[i + 1]).src))
            throw std::invalid_argument("Topology: path is not contiguous");

    for (int l : links)
        if (link(l).cls != flow.type)
            throw std::invalid_argument(
                "Topology: flow routed over a link of the other message class");
    // Every check passed: only now append, so a rejected path leaves
    // nothing behind.
    for (int l : links) link(l).bw_mbps += flow.bw_mbps;
    path.offset = static_cast<int>(path_links_.size());
    path.length = static_cast<int>(links.size());
    path_links_.insert(path_links_.end(), links.begin(), links.end());
}

bool Topology::all_flows_routed() const {
    for (const PathRef& p : paths_)
        if (p.length == 0) return false;
    return true;
}

int Topology::node_layer(NodeRef n) const {
    return n.is_core() ? core_layers_.at(static_cast<std::size_t>(n.index))
                       : switch_at(n.index).layer;
}

Point Topology::node_position(NodeRef n) const {
    return n.is_core() ? core_centers_.at(static_cast<std::size_t>(n.index))
                       : switch_at(n.index).position;
}

double Topology::link_planar_length(int id) const {
    const auto& l = link(id);
    return manhattan(node_position(l.src), node_position(l.dst));
}

int Topology::link_layers_crossed(int id) const {
    const auto& l = link(id);
    return std::abs(node_layer(l.src) - node_layer(l.dst));
}

int Topology::inter_layer_links(int layer_a, int layer_b) const {
    const int lo = std::min(layer_a, layer_b);
    const int hi = std::max(layer_a, layer_b);
    int count = 0;
    for (int i = 0; i < num_links(); ++i) {
        const auto& l = links_[static_cast<std::size_t>(i)];
        const int la = std::min(node_layer(l.src), node_layer(l.dst));
        const int lb = std::max(node_layer(l.src), node_layer(l.dst));
        // The link punches through every boundary in [la, lb); it occupies
        // a vertical slot in boundary (lo, hi) when that boundary lies
        // inside its span.
        if (la <= lo && hi <= lb) ++count;
    }
    return count;
}

int Topology::total_inter_layer_links() const {
    int total = 0;
    for (int i = 0; i < num_links(); ++i)
        total += link_layers_crossed(i);
    return total;
}

int Topology::max_ill_used(int num_layers) const {
    int worst = 0;
    for (int b = 0; b + 1 < num_layers; ++b)
        worst = std::max(worst, inter_layer_links(b, b + 1));
    return worst;
}

double Topology::switch_through_bw(int sw) const {
    // Every link entering the switch delivers its accumulated bandwidth
    // into the crossbar; summing over incoming links counts each flow once
    // per traversal of this switch.
    double bw = 0.0;
    for (const auto& l : links_)
        if (l.dst == NodeRef::sw(sw)) bw += l.bw_mbps;
    return bw;
}

void Topology::set_core_geometry(int core, Point center, int layer) {
    core_centers_.at(static_cast<std::size_t>(core)) = center;
    core_layers_.at(static_cast<std::size_t>(core)) = layer;
}

bool Topology::same_content(const Topology& other) const {
    if (core_layers_ != other.core_layers_ ||
        switches_.size() != other.switches_.size() ||
        links_.size() != other.links_.size() ||
        path_links_.size() != other.path_links_.size() ||
        paths_.size() != other.paths_.size())
        return false;
    for (int f = 0; f < num_flows(); ++f) {
        const std::span<const int> a = flow_path(f);
        const std::span<const int> b = other.flow_path(f);
        if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) return false;
    }
    for (std::size_t c = 0; c < core_centers_.size(); ++c)
        if (!same_point(core_centers_[c], other.core_centers_[c]))
            return false;
    for (std::size_t i = 0; i < switches_.size(); ++i) {
        const NocSwitch& a = switches_[i];
        const NocSwitch& b = other.switches_[i];
        if (a.layer != b.layer || !same_point(a.position, b.position) ||
            a.name != b.name)
            return false;
    }
    for (std::size_t l = 0; l < links_.size(); ++l) {
        const NocLink& a = links_[l];
        const NocLink& b = other.links_[l];
        if (!(a.src == b.src) || !(a.dst == b.dst) || a.cls != b.cls ||
            !same_bits(a.bw_mbps, b.bw_mbps))
            return false;
    }
    return true;
}

std::uint64_t Topology::content_hash() const {
    ContentHasher h;
    h.add(num_cores());
    for (std::size_t c = 0; c < core_centers_.size(); ++c) {
        h.add(core_layers_[c]);
        h.add(core_centers_[c]);
    }
    h.add(num_switches());
    for (const NocSwitch& sw : switches_) {
        h.add(static_cast<std::uint64_t>(std::hash<std::string>{}(sw.name)));
        h.add(sw.layer);
        h.add(sw.position);
    }
    h.add(num_links());
    for (const NocLink& l : links_) {
        h.add(l.src.is_core() ? l.src.index : ~l.src.index);
        h.add(l.dst.is_core() ? l.dst.index : ~l.dst.index);
        h.add(static_cast<int>(l.cls));
        h.add(l.bw_mbps);
    }
    h.add(num_flows());
    for (int f = 0; f < num_flows(); ++f) {
        const std::span<const int> path = flow_path(f);
        h.add(static_cast<int>(path.size()));
        for (const int id : path) h.add(id);
    }
    return h.done();
}

}  // namespace sunfloor
