// Wire protocol of the synthesis service: line-delimited JSON frames.
//
// One request per line, one JSON object per request; responses are one
// JSON object per line as well. The design-spec payload rides inside the
// frame as a string in the existing Section IV text format, so the spec
// writer/parser (and their round-trip and input-validation guarantees)
// are the payload codec — the protocol adds no second spec grammar.
//
// Requests (the "op" field selects the operation):
//
//   {"op":"submit","client":"ci","kind":"synth","spec":"<spec text>",
//    "config":{"freq_mhz":400,"max_tsvs":25,"alpha":1.0,"phase":"auto",
//              "routing":"up-down","seed":1,"floorplan":false},
//    "wait":true}
//   {"op":"status","id":7}
//   {"op":"result","id":7,"wait":true}
//   {"op":"stats"}
//   {"op":"shutdown"}
//
// "kind":"explore" turns the config's axis knobs (freq_mhz, max_tsvs,
// width_bits, theta, phase, routing — scalar or array each) into a
// ParamGrid; synth jobs require single values and reject the
// explore-only axes. Validation is strict, PR-5 style: oversized frames,
// malformed JSON, unknown fields, and non-finite or out-of-domain
// numeric knobs are all rejected with an error naming the offending
// field (pinned by tests/service_proto_test.cpp).
//
// Responses:
//   accepted   {"ok":true,"id":7,"status":"queued"}
//   rejected   {"ok":false,"rejected":"queue-full","error":"..."}
//   status     {"ok":true,"id":7,"status":"running"}
//   result     {"ok":true,"id":7,"status":"done","result":{...,"csv":"..."}}
//   error      {"ok":false,"error":"..."}
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/explore/param_grid.h"
#include "sunfloor/routing/policy.h"
#include "sunfloor/spec/parser.h"
#include "sunfloor/util/rng.h"

namespace sunfloor::service {

/// What a job computes: one synthesis run, or a grid exploration.
enum class JobKind { Synth, Explore };

/// "synth" or "explore" — the single source for wire parsing and the
/// status/result payloads.
const char* kind_to_string(JobKind k);
bool kind_from_string(const std::string& s, JobKind& out);
std::string kind_choices();

/// Architectural knobs of one job. Axis vectors left empty take the
/// server defaults (one 400 MHz / 25 TSV / default-width / auto-phase /
/// theta-sweep / up-down point — the same defaults as the CLI). Synth
/// jobs carry at most one value per axis and may not set the
/// explore-only axes (theta, width_bits).
struct JobParams {
    std::vector<double> freq_mhz;
    std::vector<int> max_tsvs;
    std::vector<int> width_bits;
    std::vector<double> thetas;
    std::vector<SynthesisPhase> phases;
    std::vector<routing::RoutingPolicyId> routings;
    double alpha = 1.0;
    long long seed = static_cast<long long>(Rng::kDefaultSeed);
    bool floorplan = true;
};

/// The one mapping from a synth job's knobs to its run, shared by the
/// one-shot CLI (synth, simulate) and the job engine: empty axes keep
/// SynthesisConfig's defaults at 400 MHz and the auto phase.
struct SynthSetup {
    SynthesisConfig cfg;
    SynthesisPhase phase = SynthesisPhase::Auto;
};
SynthSetup synth_setup(const JobParams& p);

/// The one mapping from an explore job's knobs to its run, shared by
/// `sunfloor_cli explore` and the job engine: the base config, a grid
/// over the given axes (empty axes keep ParamGrid's defaults) and the
/// explorer's base seed. Throws std::invalid_argument on an
/// out-of-domain axis value.
struct ExploreSetup {
    SynthesisConfig cfg;
    ParamGrid grid;
    std::uint64_t base_seed = 0;
};
ExploreSetup explore_setup(const JobParams& p);

/// Deserialized "submit" payload, before the spec text is parsed.
struct SubmitRequest {
    std::string client = "anonymous";
    JobKind kind = JobKind::Synth;
    std::string spec_name;  ///< optional design-name override
    std::string spec_text;  ///< Section IV text, parsed server-side
    JobParams params;
    bool wait = false;  ///< block the response until the job is terminal
};

/// A validated submit: spec text parsed into a DesignSpec. The canonical
/// `spec_text` doubles as the warm-session cache key.
struct JobRequest {
    JobKind kind = JobKind::Synth;
    std::string client;
    DesignSpec spec;
    std::string spec_text;
    JobParams params;
};

struct Request {
    enum class Op { Submit, Status, Result, Stats, Shutdown };
    Op op = Op::Stats;
    SubmitRequest submit;   ///< Op::Submit only
    std::uint64_t id = 0;   ///< Op::Status / Op::Result
    bool wait = false;      ///< Op::Result: block until terminal
};

/// Parse and validate one request frame. False on any violation, with
/// `error` naming the offending field or byte ("unknown field
/// \"config.frobnicate\"", "bad \"config.freq_mhz\" value ...", "frame of
/// N bytes exceeds the M byte limit"). `max_frame_bytes` <= 0 disables
/// the size check.
bool parse_request(std::string_view frame, long long max_frame_bytes,
                   Request& out, std::string& error);

/// Parse the submit payload's spec text (named errors pass through from
/// the spec parser, prefixed "spec: ") and assemble the job request.
bool build_job_request(const SubmitRequest& submit, JobRequest& out,
                       std::string& error);

// ------------------------------------------------- client frame builders

std::string make_submit_frame(const SubmitRequest& submit);
std::string make_status_frame(std::uint64_t id);
std::string make_result_frame(std::uint64_t id, bool wait);

}  // namespace sunfloor::service
