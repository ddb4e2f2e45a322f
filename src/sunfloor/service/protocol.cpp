#include "sunfloor/service/protocol.h"

#include <sstream>
#include <utility>

#include "sunfloor/explore/export.h"
#include "sunfloor/util/enum_names.h"
#include "sunfloor/util/json.h"
#include "sunfloor/util/strings.h"

namespace sunfloor::service {

namespace {

constexpr EnumName<JobKind> kKindNames[] = {
    {JobKind::Synth, "synth"},
    {JobKind::Explore, "explore"},
};

}  // namespace

const char* kind_to_string(JobKind k) {
    return enum_to_string<JobKind>(kKindNames, k, "synth");
}

bool kind_from_string(const std::string& s, JobKind& out) {
    return enum_from_string<JobKind>(kKindNames, s, out);
}

std::string kind_choices() { return enum_choices<JobKind>(kKindNames); }

SynthSetup synth_setup(const JobParams& p) {
    SynthSetup s;
    s.cfg.eval.freq_hz =
        (p.freq_mhz.empty() ? 400.0 : p.freq_mhz.front()) * 1e6;
    if (!p.max_tsvs.empty()) s.cfg.max_ill = p.max_tsvs.front();
    if (!p.routings.empty()) s.cfg.routing = p.routings.front();
    if (!p.phases.empty()) s.phase = p.phases.front();
    s.cfg.alpha = p.alpha;
    s.cfg.seed = static_cast<std::uint64_t>(p.seed);
    s.cfg.run_floorplan = p.floorplan;
    return s;
}

ExploreSetup explore_setup(const JobParams& p) {
    ExploreSetup s;
    s.cfg.alpha = p.alpha;
    s.cfg.run_floorplan = p.floorplan;
    if (!p.freq_mhz.empty()) {
        std::vector<double> hz;
        hz.reserve(p.freq_mhz.size());
        for (const double mhz : p.freq_mhz) hz.push_back(mhz * 1e6);
        s.grid.set_axis(ParamAxis::frequencies_hz(hz));
    }
    if (!p.max_tsvs.empty())
        s.grid.set_axis(ParamAxis::max_tsvs(p.max_tsvs));
    if (!p.width_bits.empty())
        s.grid.set_axis(ParamAxis::link_widths_bits(p.width_bits));
    if (!p.phases.empty()) s.grid.set_axis(ParamAxis::phases(p.phases));
    if (!p.thetas.empty()) s.grid.set_axis(ParamAxis::thetas(p.thetas));
    if (!p.routings.empty())
        s.grid.set_axis(ParamAxis::routing_policies(p.routings));
    s.base_seed = static_cast<std::uint64_t>(p.seed);
    return s;
}

namespace {

bool fail(std::string& error, std::string msg) {
    error = std::move(msg);
    return false;
}

/// Scalar-or-array: collect the element values of `v` (or `v` itself).
/// Empty arrays are rejected — "not provided" is spelled by omitting the
/// field, not by sending [].
bool collect_values(const JsonValue& v, const char* path,
                    std::vector<const JsonValue*>& out, std::string& error) {
    if (v.is_array()) {
        if (v.items().empty())
            return fail(error, format("field \"%s\" must not be an empty "
                                      "array",
                                      path));
        for (const auto& item : v.items()) out.push_back(&item);
        return true;
    }
    out.push_back(&v);
    return true;
}

bool read_positive_doubles(const JsonValue& v, const char* path,
                           std::vector<double>& out, std::string& error) {
    std::vector<const JsonValue*> vals;
    if (!collect_values(v, path, vals, error)) return false;
    for (const JsonValue* e : vals) {
        if (!e->is_number() || !(e->as_double() > 0.0))
            return fail(error, format("bad \"%s\" value: expected a finite "
                                      "number > 0",
                                      path));
        out.push_back(e->as_double());
    }
    return true;
}

bool read_positive_ints(const JsonValue& v, const char* path,
                        std::vector<int>& out, std::string& error) {
    std::vector<const JsonValue*> vals;
    if (!collect_values(v, path, vals, error)) return false;
    for (const JsonValue* e : vals) {
        if (!e->is_integer() || e->as_int64() < 1 ||
            e->as_int64() > 1000000000)
            return fail(error, format("bad \"%s\" value: expected an "
                                      "integer >= 1",
                                      path));
        out.push_back(static_cast<int>(e->as_int64()));
    }
    return true;
}

bool parse_config(const JsonValue& cfg, JobParams& p, std::string& error) {
    for (const auto& [key, val] : cfg.members()) {
        if (key == "freq_mhz") {
            if (!read_positive_doubles(val, "config.freq_mhz", p.freq_mhz,
                                       error))
                return false;
        } else if (key == "max_tsvs") {
            if (!read_positive_ints(val, "config.max_tsvs", p.max_tsvs,
                                    error))
                return false;
        } else if (key == "width_bits") {
            if (!read_positive_ints(val, "config.width_bits", p.width_bits,
                                    error))
                return false;
        } else if (key == "theta") {
            if (!read_positive_doubles(val, "config.theta", p.thetas, error))
                return false;
        } else if (key == "phase") {
            std::vector<const JsonValue*> vals;
            if (!collect_values(val, "config.phase", vals, error))
                return false;
            for (const JsonValue* e : vals) {
                SynthesisPhase ph{};
                if (!e->is_string() ||
                    !phase_from_string(e->as_string(), ph))
                    return fail(error,
                                format("bad \"config.phase\" value "
                                       "(expected %s)",
                                       phase_choices().c_str()));
                p.phases.push_back(ph);
            }
        } else if (key == "routing") {
            std::vector<const JsonValue*> vals;
            if (!collect_values(val, "config.routing", vals, error))
                return false;
            for (const JsonValue* e : vals) {
                routing::RoutingPolicyId id{};
                if (!e->is_string() ||
                    !routing::routing_from_string(e->as_string(), id))
                    return fail(error,
                                format("bad \"config.routing\" value "
                                       "(expected %s)",
                                       routing::routing_choices().c_str()));
                p.routings.push_back(id);
            }
        } else if (key == "alpha") {
            if (!val.is_number() || val.as_double() < 0.0 ||
                val.as_double() > 1.0)
                return fail(error, "bad \"config.alpha\" value: expected a "
                                   "number in [0, 1]");
            p.alpha = val.as_double();
        } else if (key == "seed") {
            if (!val.is_integer() || val.as_int64() < 0)
                return fail(error, "bad \"config.seed\" value: expected a "
                                   "non-negative integer");
            p.seed = val.as_int64();
        } else if (key == "floorplan") {
            if (!val.is_bool())
                return fail(error, "bad \"config.floorplan\" value: "
                                   "expected a bool");
            p.floorplan = val.as_bool();
        } else {
            return fail(error,
                        format("unknown field \"config.%s\"", key.c_str()));
        }
    }
    return true;
}

/// Synth jobs evaluate exactly one architectural point: multi-valued
/// axes and the explore-only axes are submit-time errors, not silently
/// truncated grids.
bool check_synth_axes(const JobParams& p, std::string& error) {
    struct Axis {
        const char* name;
        std::size_t count;
        bool explore_only;
    };
    const Axis axes[] = {
        {"config.freq_mhz", p.freq_mhz.size(), false},
        {"config.max_tsvs", p.max_tsvs.size(), false},
        {"config.phase", p.phases.size(), false},
        {"config.routing", p.routings.size(), false},
        {"config.theta", p.thetas.size(), true},
        {"config.width_bits", p.width_bits.size(), true},
    };
    for (const Axis& a : axes) {
        if (a.explore_only && a.count > 0)
            return fail(error, format("field \"%s\" is only valid for "
                                      "explore jobs",
                                      a.name));
        if (a.count > 1)
            return fail(error, format("field \"%s\" must be a single value "
                                      "for synth jobs",
                                      a.name));
    }
    return true;
}

bool parse_submit(const JsonValue& root, SubmitRequest& out,
                  std::string& error) {
    bool have_spec = false;
    for (const auto& [key, val] : root.members()) {
        if (key == "op") {
            continue;
        } else if (key == "client") {
            if (!val.is_string() || val.as_string().empty())
                return fail(error, "bad \"client\" value: expected a "
                                   "non-empty string");
            out.client = val.as_string();
        } else if (key == "kind") {
            if (!val.is_string() ||
                !kind_from_string(val.as_string(), out.kind))
                return fail(error, format("bad \"kind\" value (expected %s)",
                                          kind_choices().c_str()));
        } else if (key == "name") {
            if (!val.is_string() || val.as_string().empty())
                return fail(error, "bad \"name\" value: expected a "
                                   "non-empty string");
            out.spec_name = val.as_string();
        } else if (key == "spec") {
            if (!val.is_string() || val.as_string().empty())
                return fail(error, "bad \"spec\" value: expected a "
                                   "non-empty string");
            out.spec_text = val.as_string();
            have_spec = true;
        } else if (key == "config") {
            if (!val.is_object())
                return fail(error,
                            "bad \"config\" value: expected an object");
            if (!parse_config(val, out.params, error)) return false;
        } else if (key == "wait") {
            if (!val.is_bool())
                return fail(error, "bad \"wait\" value: expected a bool");
            out.wait = val.as_bool();
        } else {
            return fail(error, format("unknown field \"%s\" in submit "
                                      "request",
                                      key.c_str()));
        }
    }
    if (!have_spec)
        return fail(error, "submit request missing required field \"spec\"");
    if (out.kind == JobKind::Synth && !check_synth_axes(out.params, error))
        return false;
    return true;
}

bool parse_id_request(const JsonValue& root, const char* op, bool allow_wait,
                      Request& out, std::string& error) {
    bool have_id = false;
    for (const auto& [key, val] : root.members()) {
        if (key == "op") {
            continue;
        } else if (key == "id") {
            if (!val.is_integer() || val.as_int64() < 0)
                return fail(error, "bad \"id\" value: expected a "
                                   "non-negative integer");
            out.id = static_cast<std::uint64_t>(val.as_int64());
            have_id = true;
        } else if (allow_wait && key == "wait") {
            if (!val.is_bool())
                return fail(error, "bad \"wait\" value: expected a bool");
            out.wait = val.as_bool();
        } else {
            return fail(error, format("unknown field \"%s\" in %s request",
                                      key.c_str(), op));
        }
    }
    if (!have_id)
        return fail(error,
                    format("%s request missing required field \"id\"", op));
    return true;
}

bool reject_extra_fields(const JsonValue& root, const char* op,
                         std::string& error) {
    for (const auto& [key, val] : root.members()) {
        (void)val;
        if (key != "op")
            return fail(error, format("unknown field \"%s\" in %s request",
                                      key.c_str(), op));
    }
    return true;
}

}  // namespace

bool parse_request(std::string_view frame, long long max_frame_bytes,
                   Request& out, std::string& error) {
    if (max_frame_bytes > 0 &&
        frame.size() > static_cast<std::size_t>(max_frame_bytes))
        return fail(error, format("frame of %zu bytes exceeds the %lld "
                                  "byte limit",
                                  frame.size(), max_frame_bytes));
    const JsonParseResult parsed = parse_json(frame);
    if (!parsed.ok)
        return fail(error, "malformed JSON: " + parsed.error);
    if (!parsed.value.is_object())
        return fail(error, "request frame must be a JSON object");
    const JsonValue* opv = parsed.value.find("op");
    if (!opv)
        return fail(error, "request missing required field \"op\"");
    if (!opv->is_string())
        return fail(error, "bad \"op\" value: expected a string");
    const std::string& op = opv->as_string();
    out = Request{};
    if (op == "submit") {
        out.op = Request::Op::Submit;
        return parse_submit(parsed.value, out.submit, error);
    }
    if (op == "status") {
        out.op = Request::Op::Status;
        return parse_id_request(parsed.value, "status", false, out, error);
    }
    if (op == "result") {
        out.op = Request::Op::Result;
        return parse_id_request(parsed.value, "result", true, out, error);
    }
    if (op == "stats") {
        out.op = Request::Op::Stats;
        return reject_extra_fields(parsed.value, "stats", error);
    }
    if (op == "shutdown") {
        out.op = Request::Op::Shutdown;
        return reject_extra_fields(parsed.value, "shutdown", error);
    }
    return fail(error,
                format("unknown op \"%s\" (expected "
                       "submit|status|result|stats|shutdown)",
                       op.c_str()));
}

bool build_job_request(const SubmitRequest& submit, JobRequest& out,
                       std::string& error) {
    std::istringstream is(submit.spec_text);
    ParseResult parsed = parse_design(
        is, submit.spec_name.empty() ? "design" : submit.spec_name);
    if (!parsed.ok) return fail(error, "spec: " + parsed.error);
    out.kind = submit.kind;
    out.client = submit.client;
    out.spec = std::move(parsed.spec);
    out.spec_text = submit.spec_text;
    out.params = submit.params;
    return true;
}

namespace {

std::string num(double d) { return format("%.17g", d); }

void append_field(std::string& obj, const std::string& field) {
    if (obj.back() != '{') obj += ',';
    obj += field;
}

std::string config_json(const JobParams& p) {
    std::string cfg = "{";
    if (!p.freq_mhz.empty()) {
        std::string a = "\"freq_mhz\":[";
        for (std::size_t i = 0; i < p.freq_mhz.size(); ++i) {
            if (i) a += ',';
            a += num(p.freq_mhz[i]);
        }
        append_field(cfg, a + "]");
    }
    if (!p.max_tsvs.empty()) {
        std::string a = "\"max_tsvs\":[";
        for (std::size_t i = 0; i < p.max_tsvs.size(); ++i)
            a += format("%s%d", i ? "," : "", p.max_tsvs[i]);
        append_field(cfg, a + "]");
    }
    if (!p.width_bits.empty()) {
        std::string a = "\"width_bits\":[";
        for (std::size_t i = 0; i < p.width_bits.size(); ++i)
            a += format("%s%d", i ? "," : "", p.width_bits[i]);
        append_field(cfg, a + "]");
    }
    if (!p.thetas.empty()) {
        std::string a = "\"theta\":[";
        for (std::size_t i = 0; i < p.thetas.size(); ++i) {
            if (i) a += ',';
            a += num(p.thetas[i]);
        }
        append_field(cfg, a + "]");
    }
    if (!p.phases.empty()) {
        std::string a = "\"phase\":[";
        for (std::size_t i = 0; i < p.phases.size(); ++i)
            a += format("%s\"%s\"", i ? "," : "",
                        phase_to_string(p.phases[i]));
        append_field(cfg, a + "]");
    }
    if (!p.routings.empty()) {
        std::string a = "\"routing\":[";
        for (std::size_t i = 0; i < p.routings.size(); ++i)
            a += format("%s\"%s\"", i ? "," : "",
                        routing::routing_to_string(p.routings[i]));
        append_field(cfg, a + "]");
    }
    append_field(cfg, "\"alpha\":" + num(p.alpha));
    append_field(cfg, format("\"seed\":%lld", p.seed));
    append_field(cfg, std::string("\"floorplan\":") +
                          (p.floorplan ? "true" : "false"));
    return cfg + "}";
}

}  // namespace

std::string make_submit_frame(const SubmitRequest& submit) {
    std::string f = "{\"op\":\"submit\"";
    f += ",\"client\":" + json_quote(submit.client);
    f += format(",\"kind\":\"%s\"", kind_to_string(submit.kind));
    if (!submit.spec_name.empty())
        f += ",\"name\":" + json_quote(submit.spec_name);
    f += ",\"spec\":" + json_quote(submit.spec_text);
    f += ",\"config\":" + config_json(submit.params);
    f += std::string(",\"wait\":") + (submit.wait ? "true" : "false");
    return f + "}";
}

std::string make_status_frame(std::uint64_t id) {
    return format("{\"op\":\"status\",\"id\":%llu}",
                  static_cast<unsigned long long>(id));
}

std::string make_result_frame(std::uint64_t id, bool wait) {
    return format("{\"op\":\"result\",\"id\":%llu,\"wait\":%s}",
                  static_cast<unsigned long long>(id),
                  wait ? "true" : "false");
}

}  // namespace sunfloor::service
