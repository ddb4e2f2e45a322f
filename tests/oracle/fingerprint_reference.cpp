#include "oracle/fingerprint_reference.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>

#include "sunfloor/util/strings.h"

namespace sunfloor::oracle {

namespace {

std::string int_list_key(std::span<const int> v) {
    std::string out;
    out.reserve(v.size() * 3);
    for (int x : v) {
        if (!out.empty()) out += ',';
        out += std::to_string(x);
    }
    return out;
}

}  // namespace

std::string double_bits_reference(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return format("%016llx", static_cast<unsigned long long>(bits));
}

std::string rng_key_reference(const RngState& state) {
    char buf[4 * 16 + 1];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx%016llx%016llx",
                  static_cast<unsigned long long>(state.s[0]),
                  static_cast<unsigned long long>(state.s[1]),
                  static_cast<unsigned long long>(state.s[2]),
                  static_cast<unsigned long long>(state.s[3]));
    return buf;
}

std::string topology_fingerprint_reference(const Topology& topo) {
    std::string s;
    s.reserve(static_cast<std::size_t>(64 * topo.num_cores() +
                                       64 * topo.num_links() +
                                       8 * topo.num_flows()));
    auto add_point = [&](const Point& p) {
        s += double_bits_reference(p.x);
        s += ',';
        s += double_bits_reference(p.y);
    };
    s += "co:";
    for (int c = 0; c < topo.num_cores(); ++c) {
        const NodeRef n = NodeRef::core(c);
        s += std::to_string(topo.node_layer(n));
        s += '@';
        add_point(topo.node_position(n));
        s += ';';
    }
    s += "sw:";
    for (int i = 0; i < topo.num_switches(); ++i) {
        const NocSwitch& sw = topo.switch_at(i);
        s += sw.name;
        s += '/';
        s += std::to_string(sw.layer);
        s += '@';
        add_point(sw.position);
        s += ';';
    }
    s += "lk:";
    for (int l = 0; l < topo.num_links(); ++l) {
        const NocLink& lk = topo.link(l);
        s += format("%c%d>%c%d/%d=%s;", lk.src.is_core() ? 'c' : 's',
                    lk.src.index, lk.dst.is_core() ? 'c' : 's', lk.dst.index,
                    static_cast<int>(lk.cls),
                    double_bits_reference(lk.bw_mbps).c_str());
    }
    s += "fl:";
    for (int f = 0; f < topo.num_flows(); ++f) {
        s += int_list_key(topo.flow_path(f));
        s += ';';
    }
    return s;
}

std::string partition_key_reference(const pipeline::PartitionGraphId& graph,
                                    double alpha, const PartitionOptions& opts,
                                    int k, const RngState& rng) {
    using Kind = pipeline::PartitionGraphId::Kind;
    std::string g = "pg";
    if (graph.kind == Kind::SPG)
        g = "spg;th=" + double_bits_reference(graph.theta) +
            ";tm=" + double_bits_reference(graph.theta_max);
    if (graph.kind == Kind::LPG) g = format("lpg;ly=%d", graph.layer);
    return "pt|" + g +
           format("|a=%s;ns=%d;rf=%d;mb=%d;mp=%d|k=%d|r=%s",
                  double_bits_reference(alpha).c_str(), opts.num_starts,
                  opts.refine ? 1 : 0, opts.max_block_size, kMaxPasses,
                  k, rng_key_reference(rng).c_str());
}

std::string routing_key_reference(const CoreAssignment& assign,
                                  const std::string& routing_cfg) {
    return "rt|cs=" + int_list_key(assign.core_switch) +
           ";sl=" + int_list_key(assign.switch_layer) + "|" + routing_cfg;
}

}  // namespace sunfloor::oracle
