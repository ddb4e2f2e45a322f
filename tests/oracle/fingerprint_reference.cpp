#include "oracle/fingerprint_reference.h"

#include <cstdint>
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

}  // namespace sunfloor::oracle
