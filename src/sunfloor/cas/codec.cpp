#include "sunfloor/cas/codec.h"

#include <cstdint>
#include <exception>
#include <utility>
#include <vector>

#include "sunfloor/cas/bincode.h"

namespace sunfloor::cas {

namespace {

void enc_rng(Enc& e, const RngState& s) {
    for (int i = 0; i < 4; ++i) e.u64(s.s[i]);
}

RngState dec_rng(Dec& d) {
    RngState s;
    for (int i = 0; i < 4; ++i) s.s[i] = d.u64();
    return s;
}

void enc_report(Enc& e, const EvalReport& r) {
    e.f64(r.power.switch_mw);
    e.f64(r.power.s2s_link_mw);
    e.f64(r.power.c2s_link_mw);
    e.f64(r.power.ni_mw);
    e.f64(r.avg_latency_cycles);
    e.f64(r.max_latency_cycles);
    e.i32(r.latency_violations);
    e.u8(r.all_flows_routed ? 1 : 0);
    e.f64(r.switch_area_mm2);
    e.f64(r.ni_area_mm2);
    e.f64(r.tsv_macro_area_mm2);
    e.i32(r.total_tsvs);
    e.i32(r.max_ill_used);
    e.doubles(r.wire_lengths_mm);
    e.doubles(r.flow_latency_cycles);
}

EvalReport dec_report(Dec& d) {
    EvalReport r;
    r.power.switch_mw = d.f64();
    r.power.s2s_link_mw = d.f64();
    r.power.c2s_link_mw = d.f64();
    r.power.ni_mw = d.f64();
    r.avg_latency_cycles = d.f64();
    r.max_latency_cycles = d.f64();
    r.latency_violations = d.i32();
    r.all_flows_routed = d.u8() != 0;
    r.switch_area_mm2 = d.f64();
    r.ni_area_mm2 = d.f64();
    r.tsv_macro_area_mm2 = d.f64();
    r.total_tsvs = d.i32();
    r.max_ill_used = d.i32();
    r.wire_lengths_mm = d.doubles();
    r.flow_latency_cycles = d.doubles();
    return r;
}

}  // namespace

// -------------------------------------------------------- shared encoders

void enc_spec(Enc& e, const DesignSpec& s) {
    e.str(s.name);
    e.u32(static_cast<std::uint32_t>(s.cores.cores().size()));
    for (const Core& c : s.cores.cores()) {
        e.str(c.name);
        e.f64(c.width);
        e.f64(c.height);
        e.f64(c.position.x);
        e.f64(c.position.y);
        e.i32(c.layer);
    }
    e.u32(static_cast<std::uint32_t>(s.comm.flows().size()));
    for (const Flow& f : s.comm.flows()) {
        e.i32(f.src);
        e.i32(f.dst);
        e.f64(f.bw_mbps);
        e.f64(f.max_latency_cycles);
        e.u8(f.type == FlowType::Request ? 0 : 1);
    }
}

bool dec_spec(Dec& d, DesignSpec& s) {
    s.name = d.str();
    const std::uint32_t nc = d.u32();
    try {
        for (std::uint32_t i = 0; i < nc && d.ok(); ++i) {
            Core c;
            c.name = d.str();
            c.width = d.f64();
            c.height = d.f64();
            c.position.x = d.f64();
            c.position.y = d.f64();
            c.layer = d.i32();
            s.cores.add_core(std::move(c));
        }
        const std::uint32_t nf = d.u32();
        for (std::uint32_t i = 0; i < nf && d.ok(); ++i) {
            Flow f;
            f.src = d.i32();
            f.dst = d.i32();
            f.bw_mbps = d.f64();
            f.max_latency_cycles = d.f64();
            const std::uint8_t t = d.u8();
            if (t > 1) return false;
            f.type = t == 0 ? FlowType::Request : FlowType::Response;
            if (f.src >= s.cores.num_cores() || f.dst >= s.cores.num_cores())
                return false;
            s.comm.add_flow(f);
        }
    } catch (const std::exception&) {
        // add_core/add_flow validation (duplicate names, non-finite
        // geometry, src == dst): malformed bytes, not a crash.
        return false;
    }
    return d.ok();
}

void enc_eval_params(Enc& e, const EvalParams& p) {
    e.f64(p.freq_hz);
    e.i32(p.flit_width_bits);
}

EvalParams dec_eval_params(Dec& d) {
    EvalParams p;
    p.freq_hz = d.f64();
    p.flit_width_bits = d.i32();
    return p;
}

void enc_topology(Enc& e, const Topology& t) {
    e.i32(t.num_cores());
    for (int c = 0; c < t.num_cores(); ++c) {
        const NodeRef n = NodeRef::core(c);
        const Point p = t.node_position(n);
        e.f64(p.x);
        e.f64(p.y);
        e.i32(t.node_layer(n));
    }
    e.i32(t.num_switches());
    for (int s = 0; s < t.num_switches(); ++s) {
        const NocSwitch& sw = t.switch_at(s);
        e.str(sw.name);
        e.i32(sw.layer);
        e.f64(sw.position.x);
        e.f64(sw.position.y);
    }
    e.i32(t.num_links());
    for (int l = 0; l < t.num_links(); ++l) {
        const NocLink& lk = t.link(l);
        e.u8(lk.src.is_core() ? 0 : 1);
        e.i32(lk.src.index);
        e.u8(lk.dst.is_core() ? 0 : 1);
        e.i32(lk.dst.index);
        e.u8(static_cast<std::uint8_t>(lk.cls));
        e.f64(lk.bw_mbps);
    }
    e.i32(t.num_flows());
    for (int f = 0; f < t.num_flows(); ++f) e.ints(t.flow_path(f));
}

// Construct the topology from the spec's cores, restore each core's
// geometry snapshot, append switches and links *in serialized order*
// (add_parallel_link never dedups, so ids are preserved), replay the flow
// paths in flow order through one reused buffer (which re-runs
// set_flow_path's id/contiguity/class invariants), then patch each link's
// accumulated bandwidth to the exact serialized bits. A short read or a
// mutator that rejects the data makes the whole topology corrupt. The
// caller publishes the result as its artifact's shared topology.
std::optional<Topology> dec_topology(Dec& d, const DesignSpec& spec) {
    const int num_cores = d.i32();
    if (!d.ok() || num_cores != spec.cores.num_cores()) return std::nullopt;
    try {
        Topology topo(spec.cores, spec.comm.num_flows());
        for (int c = 0; c < num_cores; ++c) {
            Point center;
            center.x = d.f64();
            center.y = d.f64();
            const int layer = d.i32();
            topo.set_core_geometry(c, center, layer);
        }
        // Untrusted counts: the loops stop at the first short read, and
        // nothing is reserved by them.
        const int num_switches = d.i32();
        if (!d.ok() || num_switches < 0) return std::nullopt;
        for (int s = 0; s < num_switches; ++s) {
            std::string name = d.str();
            const int layer = d.i32();
            Point pos;
            pos.x = d.f64();
            pos.y = d.f64();
            if (!d.ok()) return std::nullopt;
            topo.add_switch(std::move(name), layer, pos);
        }
        const int num_links = d.i32();
        if (!d.ok() || num_links < 0) return std::nullopt;
        // set_flow_path accumulates onto the links, so the serialized
        // bandwidths wait here until the paths are replayed.
        std::vector<double> bw;
        for (int l = 0; l < num_links; ++l) {
            const std::uint8_t sk = d.u8();
            const int src = d.i32();
            const std::uint8_t dk = d.u8();
            const int dst = d.i32();
            const std::uint8_t cls = d.u8();
            bw.push_back(d.f64());
            if (!d.ok() || cls > 1 || sk > 1 || dk > 1) return std::nullopt;
            topo.add_parallel_link(
                sk == 0 ? NodeRef::core(src) : NodeRef::sw(src),
                dk == 0 ? NodeRef::core(dst) : NodeRef::sw(dst),
                static_cast<FlowType>(cls));
        }
        const int num_flows = d.i32();
        if (!d.ok() || num_flows != spec.comm.num_flows()) return std::nullopt;
        std::vector<int> path;
        for (int f = 0; f < num_flows; ++f) {
            d.ints(path);
            if (!d.ok()) return std::nullopt;
            if (!path.empty()) topo.set_flow_path(f, spec.comm.flow(f), path);
        }
        for (int l = 0; l < num_links; ++l)
            topo.link(l).bw_mbps = bw[static_cast<std::size_t>(l)];
        return topo;
    } catch (const std::exception&) {
        // A mutator rejected the data (bad index, broken path): corrupt.
        return std::nullopt;
    }
}

// -------------------------------------------------------------- partition

std::string encode_partition(const pipeline::PartitionArtifact& a) {
    Enc e;
    e.u8(kTagPartition);
    e.ints(a.block);
    e.f64(a.cut_weight);
    e.i32(a.k);
    enc_rng(e, a.rng_after);
    return e.take();
}

std::optional<pipeline::PartitionArtifact> decode_partition(
    std::string_view blob, int k, int num_vertices) {
    Dec d(blob);
    if (d.u8() != kTagPartition) return std::nullopt;
    pipeline::PartitionArtifact a;
    a.block = d.ints();
    a.cut_weight = d.f64();
    a.k = d.i32();
    a.rng_after = dec_rng(d);
    if (!d.done()) return std::nullopt;
    // Phase 1 and phase 2 index switch tables with every block entry and
    // cores with every position: a cut of another size is corrupt.
    if (a.k != k || a.block.size() != static_cast<std::size_t>(num_vertices))
        return std::nullopt;
    for (const int b : a.block)
        if (b < 0 || b >= k) return std::nullopt;
    return a;
}

// ---------------------------------------------------------------- routing

std::string encode_routing(const pipeline::RoutingArtifact& a) {
    Enc e;
    e.u8(kTagRouting);
    enc_topology(e, *a.topo);
    e.u8(a.ok ? 1 : 0);
    e.str(a.fail_reason);
    e.i32(a.failed_flows);
    e.i32(a.capacity_violations);
    return e.take();
}

std::optional<pipeline::RoutingArtifact> decode_routing(
    std::string_view blob, const DesignSpec& spec) {
    Dec d(blob);
    if (d.u8() != kTagRouting) return std::nullopt;
    auto topo = dec_topology(d, spec);
    if (!topo) return std::nullopt;
    pipeline::RoutingArtifact a(std::move(*topo));
    a.ok = d.u8() != 0;
    a.fail_reason = d.str();
    a.failed_flows = d.i32();
    a.capacity_violations = d.i32();
    if (!d.done()) return std::nullopt;
    a.topo_hash = a.topo->content_hash();
    return a;
}

// -------------------------------------------------------------- placement

std::string encode_placement(const pipeline::PlacementArtifact& a) {
    Enc e;
    e.u8(kTagPlacement);
    enc_topology(e, *a.topo);
    e.doubles(a.layer_die_area_mm2);
    return e.take();
}

std::optional<pipeline::PlacementArtifact> decode_placement(
    std::string_view blob, const DesignSpec& spec) {
    Dec d(blob);
    if (d.u8() != kTagPlacement) return std::nullopt;
    auto topo = dec_topology(d, spec);
    if (!topo) return std::nullopt;
    pipeline::PlacementArtifact a(std::move(*topo));
    a.layer_die_area_mm2 = d.doubles();
    if (!d.done()) return std::nullopt;
    a.topo_hash = a.topo->content_hash();
    return a;
}

// ------------------------------------------------------------- evaluation

std::string encode_evaluation(const pipeline::EvaluatedDesign& a) {
    Enc e;
    e.u8(kTagEvaluation);
    e.str(a.point.phase);
    e.i32(a.point.switch_count);
    e.f64(a.point.theta);
    enc_topology(e, *a.point.topo);
    enc_report(e, a.point.report);
    e.doubles(a.point.layer_die_area_mm2);
    e.u8(a.point.valid ? 1 : 0);
    e.str(a.point.fail_reason);
    e.i32(a.point.capacity_violations);
    return e.take();
}

std::optional<pipeline::EvaluatedDesign> decode_evaluation(
    std::string_view blob, const DesignSpec& spec,
    const SharedTopology* placed) {
    Dec d(blob);
    if (d.u8() != kTagEvaluation) return std::nullopt;
    std::string phase = d.str();
    const int switch_count = d.i32();
    const double theta = d.f64();
    std::optional<DesignPoint> p;
    if (placed != nullptr) {
        // The design shares the caller's topology, so the blob must hold
        // exactly its bytes: any other topology is corrupt.
        Enc e;
        enc_topology(e, **placed);
        if (!d.expect(e.view())) return std::nullopt;
        p.emplace(*placed);
    } else {
        auto topo = dec_topology(d, spec);
        if (!topo) return std::nullopt;
        p.emplace(std::move(*topo));
    }
    p->phase = std::move(phase);
    p->switch_count = switch_count;
    p->theta = theta;
    p->report = dec_report(d);
    p->layer_die_area_mm2 = d.doubles();
    p->valid = d.u8() != 0;
    p->fail_reason = d.str();
    p->capacity_violations = d.i32();
    if (!d.done()) return std::nullopt;
    return pipeline::EvaluatedDesign(std::move(*p));
}

}  // namespace sunfloor::cas
