#include "sunfloor/dist/protocol.h"

#include <utility>

#include "sunfloor/cas/bincode.h"
#include "sunfloor/cas/codec.h"
#include "sunfloor/explore/export.h"
#include "sunfloor/util/json.h"
#include "sunfloor/util/strings.h"

namespace sunfloor::dist {

namespace {

using cas::Dec;
using cas::Enc;

// Payload tags: a request blob can never decode as a response.
constexpr std::uint8_t kTagRequest = 'Q';
constexpr std::uint8_t kTagResponse = 'S';

// ------------------------------------------------------- config pieces

void enc_config(Enc& e, const SynthesisConfig& c) {
    cas::enc_eval_params(e, c.eval);
    e.i32(c.max_ill);
    e.u8(c.allow_multilayer_links ? 1 : 0);
    e.f64(c.alpha);
    e.f64(c.theta_min);
    e.f64(c.theta_max);
    e.f64(c.theta_step);
    e.u8(c.use_soft_thresholds ? 1 : 0);
    e.str(routing::routing_to_string(c.routing));
    e.u64(c.seed);
    e.u8(c.run_floorplan ? 1 : 0);
    e.i32(c.max_switches);
}

bool dec_config(Dec& d, SynthesisConfig& c) {
    c.eval = cas::dec_eval_params(d);
    c.max_ill = d.i32();
    c.allow_multilayer_links = d.u8() != 0;
    c.alpha = d.f64();
    c.theta_min = d.f64();
    c.theta_max = d.f64();
    c.theta_step = d.f64();
    c.use_soft_thresholds = d.u8() != 0;
    if (!routing::routing_from_string(d.str(), c.routing)) return false;
    c.seed = d.u64();
    c.run_floorplan = d.u8() != 0;
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
    e.str(routing::routing_to_string(o.sim.routing));
    e.i32(o.sim.buffer_depth_flits);
    e.i64(o.sim.warmup_cycles);
    e.i64(o.sim.measure_cycles);
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
    if (!routing::routing_from_string(d.str(), o.sim.routing)) return false;
    o.sim.buffer_depth_flits = d.i32();
    o.sim.warmup_cycles = d.i64();
    o.sim.measure_cycles = d.i64();
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

/// The complete frame: `head` + the payload length + "}\n", then the
/// payload. Inserting the header moves the blob within its own buffer,
/// whose growth slack almost always has room, instead of copying it into
/// a second multi-MB one.
std::string with_payload(std::string_view head, std::string payload) {
    std::string header(head);
    header += std::to_string(payload.size());
    header += "}\n";
    payload.insert(0, header);
    return payload;
}

/// A complete frame's parsed header line and the payload after it.
struct Frame {
    JsonValue header;
    std::string_view payload;
    bool has_payload = false;  ///< the header announced "bytes"
};

/// Read "bytes" from a parsed header: absent is 0 with `present` false.
bool bytes_member(const JsonValue& header, bool& present,
                  std::size_t& bytes, std::string& error) {
    const JsonValue* b = header.find("bytes");
    present = b != nullptr;
    bytes = 0;
    if (b == nullptr) return true;
    if (!b->is_integer() || b->as_int64() < 0) {
        error = "frame header: \"bytes\" is not a non-negative integer";
        return false;
    }
    bytes = static_cast<std::size_t>(b->as_int64());
    return true;
}

/// Split a complete frame into its header and a payload of exactly the
/// announced length. `what` names the direction in errors.
bool split_frame(const std::string& frame, const char* what, Frame& out,
                 std::string& error) {
    const std::size_t nl = frame.find('\n');
    if (nl == std::string::npos) {
        error = format("malformed %s frame: no header line", what);
        return false;
    }
    JsonParseResult parsed = parse_json(std::string_view(frame).substr(0, nl));
    if (!parsed.ok) {
        error = format("malformed %s frame: %s", what, parsed.error.c_str());
        return false;
    }
    out.header = std::move(parsed.value);
    std::size_t bytes = 0;
    if (!bytes_member(out.header, out.has_payload, bytes, error))
        return false;
    out.payload = std::string_view(frame).substr(nl + 1);
    if (out.payload.size() != bytes) {
        error = format("%s frame announces %zu payload bytes but carries %zu",
                       what, bytes, out.payload.size());
        return false;
    }
    return true;
}

/// A wire-version-2 frame carried its payload as "payload":"<hex>".
bool is_v2_frame(const Frame& f, const char* what, std::string& error) {
    if (f.header.find("payload") == nullptr) return false;
    error = format("%s frame carries a hex \"payload\" (wire version 2); "
                   "this build speaks wire version %u",
                   what, static_cast<unsigned>(kWireVersion));
    return true;
}

}  // namespace

// ------------------------------------------------------- payload codec

std::string encode_shard_request(const ShardRequest& req) {
    Enc e;
    e.u32(kWireVersion);
    e.u8(kTagRequest);
    e.u64(req.run_id);
    cas::enc_spec(e, req.spec);
    enc_config(e, req.base_cfg);
    enc_explore_opts(e, req.opts);
    e.u32(static_cast<std::uint32_t>(req.points.size()));
    for (const GridPoint& p : req.points) enc_point(e, p);
    e.str(req.cas_dir);
    return e.take();
}

bool decode_shard_request(std::string_view payload, ShardRequest& out,
                          std::string& error) {
    Dec d(payload);
    if (d.u32() != kWireVersion || d.u8() != kTagRequest) {
        error = "shard request: bad version or tag";
        return false;
    }
    out.run_id = d.u64();
    out.spec = DesignSpec{};
    if (!cas::dec_spec(d, out.spec)) {
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

// ------------------------------------------------------------- framing

std::string make_shard_run_frame(const ShardRequest& req) {
    return with_payload("{\"op\":\"shard_run\",\"bytes\":",
                        encode_shard_request(req));
}

std::string make_ok_frame(const ShardResponse& resp) {
    return with_payload("{\"ok\":true,\"bytes\":",
                        encode_shard_response(resp));
}

std::string make_pong_frame() { return "{\"ok\":true}\n"; }

std::string make_error_frame(const std::string& msg) {
    return "{\"ok\":false,\"error\":" + json_quote(msg) + "}\n";
}

bool frame_payload_size(std::string_view header, std::size_t& bytes,
                        std::string& error) {
    bytes = 0;
    const JsonParseResult parsed = parse_json(header);
    bool present = false;
    return !parsed.ok || bytes_member(parsed.value, present, bytes, error);
}

bool parse_worker_frame(const std::string& frame, WorkerRequest& out,
                        std::string& error) {
    Frame f;
    if (!split_frame(frame, "request", f, error)) return false;
    const JsonValue* op = f.header.find("op");
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
    if (is_v2_frame(f, "shard_run", error)) return false;
    if (!f.has_payload) {
        error = "shard_run frame has no bytes";
        return false;
    }
    return decode_shard_request(f.payload, out.run, error);
}

bool parse_response_frame(const std::string& frame, std::string& payload,
                          std::string& error) {
    payload.clear();
    Frame f;
    if (!split_frame(frame, "response", f, error)) return false;
    const JsonValue* ok = f.header.find("ok");
    if (ok == nullptr || !ok->is_bool()) {
        error = "response frame has no ok field";
        return false;
    }
    if (!ok->as_bool()) {
        const JsonValue* err = f.header.find("error");
        error = err != nullptr && err->is_string() ? err->as_string()
                                                   : "unnamed worker error";
        return false;
    }
    if (is_v2_frame(f, "response", error)) return false;
    payload.assign(f.payload);  // empty for a pong
    return true;
}

}  // namespace sunfloor::dist
