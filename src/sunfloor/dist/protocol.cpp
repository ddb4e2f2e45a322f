#include "sunfloor/dist/protocol.h"

#include <exception>
#include <utility>

#include "sunfloor/cas/bincode.h"
#include "sunfloor/explore/export.h"
#include "sunfloor/util/json.h"

namespace sunfloor::dist {

namespace {

using cas::Dec;
using cas::Enc;

// Payload tags: a request blob can never decode as a response.
constexpr std::uint8_t kTagRequest = 'Q';
constexpr std::uint8_t kTagResponse = 'S';

// --------------------------------------------------------------- spec

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
        // geometry, src == dst) — malformed payload, not a crash.
        return false;
    }
    return d.ok();
}

// ------------------------------------------------------- config pieces

void enc_config(Enc& e, const SynthesisConfig& c) {
    e.f64(c.eval.freq_hz);
    const NocTechParams& lp = c.eval.lib.params();
    e.i32(lp.flit_width_bits);
    e.f64(lp.switch_t0_ns);
    e.f64(lp.switch_t1_ns_per_port);
    e.f64(lp.switch_e0_pj);
    e.f64(lp.switch_e1_pj_per_port);
    e.f64(lp.switch_idle_c0_mw);
    e.f64(lp.switch_idle_c1_mw_per_port);
    e.f64(lp.switch_area_a0_mm2);
    e.f64(lp.switch_area_a1_mm2);
    e.f64(lp.switch_area_a2_mm2);
    e.f64(lp.ni_area_mm2);
    e.f64(lp.ni_energy_pj);
    e.f64(lp.ni_idle_mw_per_ghz);
    const WireParams& wp = c.eval.wire.params();
    e.f64(wp.delay_ns_per_mm);
    e.f64(wp.energy_pj_per_flit_mm);
    e.f64(wp.idle_mw_per_mm_ghz);
    e.f64(wp.max_unrepeated_mm);
    const TsvParams& tp = c.eval.tsv.params();
    e.f64(tp.delay_ps);
    e.f64(tp.energy_pj_per_flit_layer);
    e.f64(tp.tsv_pitch_um);
    e.f64(tp.tsv_diameter_um);
    e.i32(tp.overhead_wires_per_link);
    e.i32(tp.redundant_tsvs_per_link);
    e.i32(c.max_ill);
    e.u8(c.allow_multilayer_links ? 1 : 0);
    e.f64(c.alpha);
    e.f64(c.theta_min);
    e.f64(c.theta_max);
    e.f64(c.theta_step);
    e.i32(c.soft_ill_margin);
    e.i32(c.soft_switch_margin);
    e.f64(c.soft_inf_factor);
    e.u8(c.use_soft_thresholds ? 1 : 0);
    e.f64(c.latency_weight);
    e.str(routing::routing_to_string(c.routing));
    e.f64(c.link_capacity_utilization);
    e.i32(c.partition.num_starts);
    e.u8(c.partition.refine ? 1 : 0);
    e.i32(c.partition.max_block_size);
    e.i32(c.partition.max_passes);
    e.u64(c.seed);
    e.u8(c.run_floorplan ? 1 : 0);
    e.i32(c.min_switches);
    e.i32(c.max_switches);
}

bool dec_config(Dec& d, SynthesisConfig& c) {
    c.eval.freq_hz = d.f64();
    NocTechParams lp;
    lp.flit_width_bits = d.i32();
    lp.switch_t0_ns = d.f64();
    lp.switch_t1_ns_per_port = d.f64();
    lp.switch_e0_pj = d.f64();
    lp.switch_e1_pj_per_port = d.f64();
    lp.switch_idle_c0_mw = d.f64();
    lp.switch_idle_c1_mw_per_port = d.f64();
    lp.switch_area_a0_mm2 = d.f64();
    lp.switch_area_a1_mm2 = d.f64();
    lp.switch_area_a2_mm2 = d.f64();
    lp.ni_area_mm2 = d.f64();
    lp.ni_energy_pj = d.f64();
    lp.ni_idle_mw_per_ghz = d.f64();
    c.eval.lib = NocLibrary(lp);
    WireParams wp;
    wp.delay_ns_per_mm = d.f64();
    wp.energy_pj_per_flit_mm = d.f64();
    wp.idle_mw_per_mm_ghz = d.f64();
    wp.max_unrepeated_mm = d.f64();
    c.eval.wire = WireModel(wp);
    TsvParams tp;
    tp.delay_ps = d.f64();
    tp.energy_pj_per_flit_layer = d.f64();
    tp.tsv_pitch_um = d.f64();
    tp.tsv_diameter_um = d.f64();
    tp.overhead_wires_per_link = d.i32();
    tp.redundant_tsvs_per_link = d.i32();
    c.eval.tsv = TsvModel(tp);
    c.max_ill = d.i32();
    c.allow_multilayer_links = d.u8() != 0;
    c.alpha = d.f64();
    c.theta_min = d.f64();
    c.theta_max = d.f64();
    c.theta_step = d.f64();
    c.soft_ill_margin = d.i32();
    c.soft_switch_margin = d.i32();
    c.soft_inf_factor = d.f64();
    c.use_soft_thresholds = d.u8() != 0;
    c.latency_weight = d.f64();
    if (!routing::routing_from_string(d.str(), c.routing)) return false;
    c.link_capacity_utilization = d.f64();
    c.partition.num_starts = d.i32();
    c.partition.refine = d.u8() != 0;
    c.partition.max_block_size = d.i32();
    c.partition.max_passes = d.i32();
    c.seed = d.u64();
    c.run_floorplan = d.u8() != 0;
    c.min_switches = d.i32();
    c.max_switches = d.i32();
    return d.ok();
}

void enc_explore_opts(Enc& e, const ExploreOptions& o) {
    e.i32(o.num_threads);
    e.u64(o.base_seed);
    e.str(backend_to_string(o.backend));
    const sim::InjectionParams& ip = o.sim.inject;
    e.str(sim::traffic_to_string(ip.traffic));
    e.f64(ip.injection_scale);
    e.i32(ip.packet_length_flits);
    e.f64(ip.burst_on_to_off);
    e.f64(ip.burst_off_to_on);
    e.f64(ip.hotspot_factor);
    e.i32(ip.hotspot_core);
    e.str(routing::routing_to_string(o.sim.routing));
    e.i32(o.sim.buffer_depth_flits);
    e.i64(o.sim.warmup_cycles);
    e.i64(o.sim.measure_cycles);
    e.i64(o.sim.drain_max_cycles);
    e.u64(o.sim.seed);
}

bool dec_explore_opts(Dec& d, ExploreOptions& o) {
    o.num_threads = d.i32();
    o.base_seed = d.u64();
    if (!backend_from_string(d.str(), o.backend)) return false;
    sim::InjectionParams& ip = o.sim.inject;
    if (!sim::traffic_from_string(d.str(), ip.traffic)) return false;
    ip.injection_scale = d.f64();
    ip.packet_length_flits = d.i32();
    ip.burst_on_to_off = d.f64();
    ip.burst_off_to_on = d.f64();
    ip.hotspot_factor = d.f64();
    ip.hotspot_core = d.i32();
    if (!routing::routing_from_string(d.str(), o.sim.routing)) return false;
    o.sim.buffer_depth_flits = d.i32();
    o.sim.warmup_cycles = d.i64();
    o.sim.measure_cycles = d.i64();
    o.sim.drain_max_cycles = d.i64();
    o.sim.seed = d.u64();
    return d.ok();
}

void enc_point(Enc& e, const GridPoint& p) {
    e.i32(p.index);
    e.f64(p.freq_hz);
    e.i32(p.max_tsvs);
    e.i32(p.link_width_bits);
    e.str(phase_to_string(p.phase));
    e.f64(p.theta);
    e.str(routing::routing_to_string(p.routing));
}

bool dec_point(Dec& d, GridPoint& p) {
    p.index = d.i32();
    p.freq_hz = d.f64();
    p.max_tsvs = d.i32();
    p.link_width_bits = d.i32();
    if (!phase_from_string(d.str(), p.phase)) return false;
    p.theta = d.f64();
    if (!routing::routing_from_string(d.str(), p.routing)) return false;
    return d.ok();
}

void enc_sim_report(Enc& e, const sim::SimReport& r) {
    e.i64(r.injected_packets);
    e.i64(r.received_packets);
    e.i64(r.injected_flits);
    e.i64(r.received_flits);
    e.f64(r.avg_latency_cycles);
    e.f64(r.p99_latency_cycles);
    e.f64(r.max_latency_cycles);
    e.f64(r.avg_head_latency_cycles);
    e.doubles(r.flow_avg_latency_cycles);
    e.f64(r.offered_flits_per_cycle);
    e.f64(r.accepted_flits_per_cycle);
    e.doubles(r.link_utilization);
    e.u8(r.drained ? 1 : 0);
    e.i64(r.cycles_run);
    e.i64(r.in_flight_flits_at_end);
}

sim::SimReport dec_sim_report(Dec& d) {
    sim::SimReport r;
    r.injected_packets = d.i64();
    r.received_packets = d.i64();
    r.injected_flits = d.i64();
    r.received_flits = d.i64();
    r.avg_latency_cycles = d.f64();
    r.p99_latency_cycles = d.f64();
    r.max_latency_cycles = d.f64();
    r.avg_head_latency_cycles = d.f64();
    r.flow_avg_latency_cycles = d.doubles();
    r.offered_flits_per_cycle = d.f64();
    r.accepted_flits_per_cycle = d.f64();
    r.link_utilization = d.doubles();
    r.drained = d.u8() != 0;
    r.cycles_run = d.i64();
    r.in_flight_flits_at_end = d.i64();
    return r;
}

void enc_counters(Enc& e, const pipeline::StageCounters& c) {
    e.i64(c.hits);
    e.i64(c.misses);
    e.f64(c.compute_ms);
}

pipeline::StageCounters dec_counters(Dec& d) {
    pipeline::StageCounters c;
    c.hits = d.i64();
    c.misses = d.i64();
    c.compute_ms = d.f64();
    return c;
}

constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
}

}  // namespace

// ------------------------------------------------------- payload codec

std::string encode_shard_request(const ShardRequest& req) {
    Enc e;
    e.u32(kWireVersion);
    e.u8(kTagRequest);
    enc_spec(e, req.spec);
    enc_config(e, req.base_cfg);
    enc_explore_opts(e, req.opts);
    e.u32(static_cast<std::uint32_t>(req.points.size()));
    for (const GridPoint& p : req.points) enc_point(e, p);
    e.str(req.cas_dir);
    e.u64(req.cas_max_bytes);
    return e.take();
}

bool decode_shard_request(std::string_view payload, ShardRequest& out,
                          std::string& error) {
    Dec d(payload);
    if (d.u32() != kWireVersion || d.u8() != kTagRequest) {
        error = "shard request: bad version or tag";
        return false;
    }
    out.spec = DesignSpec{};
    if (!dec_spec(d, out.spec)) {
        error = "shard request: malformed spec";
        return false;
    }
    if (!dec_config(d, out.base_cfg) || !dec_explore_opts(d, out.opts)) {
        error = "shard request: malformed config";
        return false;
    }
    // Untrusted count: grow with the decoded points, never reserve it.
    const std::uint32_t n = d.u32();
    out.points.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
        GridPoint p;
        if (!dec_point(d, p)) {
            error = "shard request: malformed grid point";
            return false;
        }
        out.points.push_back(p);
    }
    out.cas_dir = d.str();
    out.cas_max_bytes = d.u64();
    if (!d.done()) {
        error = "shard request: truncated or trailing bytes";
        return false;
    }
    return true;
}

std::string encode_shard_response(const ShardResponse& resp) {
    Enc e;
    e.u32(kWireVersion);
    e.u8(kTagResponse);
    e.u32(static_cast<std::uint32_t>(resp.points.size()));
    for (const ShardPointResult& pr : resp.points) {
        e.str(pr.phase_used);
        e.u32(static_cast<std::uint32_t>(pr.designs.size()));
        for (const std::string& blob : pr.designs) e.str(blob);
        e.u32(static_cast<std::uint32_t>(pr.sim_reports.size()));
        for (const sim::SimReport& r : pr.sim_reports) enc_sim_report(e, r);
    }
    e.u32(static_cast<std::uint32_t>(resp.pareto.size()));
    for (const ParetoEntry& pe : resp.pareto) {
        e.i32(pe.point_index);
        e.i32(pe.design_index);
    }
    enc_counters(e, resp.stage.partition);
    enc_counters(e, resp.stage.routing);
    enc_counters(e, resp.stage.placement);
    enc_counters(e, resp.stage.position_lp);
    enc_counters(e, resp.stage.evaluation);
    return e.take();
}

bool decode_shard_response(std::string_view payload, ShardResponse& out,
                           std::string& error) {
    Dec d(payload);
    if (d.u32() != kWireVersion || d.u8() != kTagResponse) {
        error = "shard response: bad version or tag";
        return false;
    }
    // Untrusted count: grow with the decoded points, never reserve it.
    const std::uint32_t n = d.u32();
    out.points.clear();
    for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
        ShardPointResult pr;
        pr.phase_used = d.str();
        const std::uint32_t nd = d.u32();
        for (std::uint32_t k = 0; k < nd && d.ok(); ++k)
            pr.designs.push_back(d.str());
        const std::uint32_t ns = d.u32();
        for (std::uint32_t k = 0; k < ns && d.ok(); ++k)
            pr.sim_reports.push_back(dec_sim_report(d));
        out.points.push_back(std::move(pr));
    }
    const std::uint32_t np = d.u32();
    out.pareto.clear();
    for (std::uint32_t i = 0; i < np && d.ok(); ++i) {
        ParetoEntry pe;
        pe.point_index = d.i32();
        pe.design_index = d.i32();
        out.pareto.push_back(pe);
    }
    out.stage.partition = dec_counters(d);
    out.stage.routing = dec_counters(d);
    out.stage.placement = dec_counters(d);
    out.stage.position_lp = dec_counters(d);
    out.stage.evaluation = dec_counters(d);
    if (!d.done()) {
        error = "shard response: truncated or trailing bytes";
        return false;
    }
    return true;
}

std::string to_hex(std::string_view bytes) {
    std::string out;
    out.reserve(bytes.size() * 2);
    for (char c : bytes) {
        const auto b = static_cast<unsigned char>(c);
        out.push_back(kHexDigits[b >> 4]);
        out.push_back(kHexDigits[b & 0xf]);
    }
    return out;
}

bool from_hex(std::string_view hex, std::string& bytes) {
    if (hex.size() % 2 != 0) return false;
    bytes.clear();
    bytes.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2) {
        const int hi = hex_value(hex[i]);
        const int lo = hex_value(hex[i + 1]);
        if (hi < 0 || lo < 0) return false;
        bytes.push_back(static_cast<char>((hi << 4) | lo));
    }
    return true;
}

// ------------------------------------------------------------- framing

std::string make_shard_run_frame(const ShardRequest& req) {
    return "{\"op\":\"shard_run\",\"payload\":\"" +
           to_hex(encode_shard_request(req)) + "\"}";
}

std::string make_ok_frame(const ShardResponse& resp) {
    return "{\"ok\":true,\"payload\":\"" +
           to_hex(encode_shard_response(resp)) + "\"}";
}

std::string make_pong_frame() { return "{\"ok\":true}"; }

std::string make_error_frame(const std::string& msg) {
    return "{\"ok\":false,\"error\":" + json_quote(msg) + "}";
}

bool parse_worker_frame(const std::string& line, WorkerRequest& out,
                        std::string& error) {
    const JsonParseResult parsed = parse_json(line);
    if (!parsed.ok) {
        error = "malformed request frame: " + parsed.error;
        return false;
    }
    const JsonValue* op = parsed.value.find("op");
    if (op == nullptr || !op->is_string()) {
        error = "request frame has no op";
        return false;
    }
    if (op->as_string() == "ping") {
        out.op = WorkerRequest::Op::Ping;
        return true;
    }
    if (op->as_string() != "shard_run") {
        error = "unknown op \"" + op->as_string() + "\"";
        return false;
    }
    out.op = WorkerRequest::Op::ShardRun;
    const JsonValue* payload = parsed.value.find("payload");
    if (payload == nullptr || !payload->is_string()) {
        error = "shard_run frame has no payload";
        return false;
    }
    std::string bytes;
    if (!from_hex(payload->as_string(), bytes)) {
        error = "shard_run payload is not valid hex";
        return false;
    }
    return decode_shard_request(bytes, out.run, error);
}

bool parse_response_frame(const std::string& line, std::string& payload,
                          std::string& error) {
    payload.clear();
    const JsonParseResult parsed = parse_json(line);
    if (!parsed.ok) {
        error = "malformed response frame: " + parsed.error;
        return false;
    }
    const JsonValue* ok = parsed.value.find("ok");
    if (ok == nullptr || !ok->is_bool()) {
        error = "response frame has no ok field";
        return false;
    }
    if (!ok->as_bool()) {
        const JsonValue* err = parsed.value.find("error");
        error = err != nullptr && err->is_string() ? err->as_string()
                                                   : "unnamed worker error";
        return false;
    }
    const JsonValue* p = parsed.value.find("payload");
    if (p == nullptr) return true;  // ping response
    if (!p->is_string() || !from_hex(p->as_string(), payload)) {
        error = "response payload is not valid hex";
        return false;
    }
    return true;
}

}  // namespace sunfloor::dist
