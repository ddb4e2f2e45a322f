// Wire protocol of the distributed exploration shards.
//
// A shard job is one contiguous slice of a ParamGrid enumeration. The
// coordinator ships the *complete* inputs — the spec (binary, bit-exact:
// the text format rounds doubles through %.6g; cas::enc_spec, whose bytes
// also name the spec in every store address), every field of the
// SynthesisConfig (its evaluation model, the frequency and the link
// width, through cas::enc_eval_params) and ExploreOptions, the explicit
// GridPoint list (global indices preserved), the CAS directory and the
// run's id, but no store size bound (only `sunfloor_cli cas gc
// --max-bytes` evicts) — and the worker ships back the complete
// outputs: per point, the phase used, every DesignPoint as a
// cas::encode_evaluation blob (bit-exact by construction), the full
// simulator reports and its session's stage counters. Nothing is
// summarized in flight: the coordinator computes the Pareto front and the
// stats from the shipped designs with the explorer's own summary step, so
// an N-shard run's exports are byte-identical to the single-process
// run's (property-tested in dist_test.cpp) and no worker byte can choose
// the front.
//
// A frame is one newline-terminated JSON header line, followed by exactly
// the number of raw payload bytes its "bytes" member announces:
//
//   request:  {"op":"shard_run","bytes":N}\n<N payload bytes>
//             {"op":"ping"}\n
//   response: {"ok":true,"bytes":N}\n<N payload bytes>
//             {"ok":true}\n                       (pong)
//             {"ok":false,"error":"..."}\n
//
// where the payload is a little-endian binary blob (cas/bincode.h
// primitives, doubles as raw bit patterns) carrying a versioned, tagged
// ShardRequest or ShardResponse. The header names the length, so the
// payload travels as is: no escaping, no text rendering, every double
// bit preserved. A reader takes the header line, then exactly N bytes
// (dist/shard.h's FrameReader); the count is untrusted and sizes no
// allocation. Wire version 2 carried the payload hex-encoded inside the
// JSON line ("payload":"<hex>"); such frames are rejected by name.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sunfloor/explore/explorer.h"
#include "sunfloor/explore/param_grid.h"
#include "sunfloor/pipeline/session.h"

namespace sunfloor::dist {

/// Protocol version; bumped on any payload layout or framing change (3:
/// raw payloads after a header line; 4: responses carry no Pareto front;
/// 5: requests carry no store bound and none of the synthesis settings
/// that became constants; 6: requests carry none of the simulator's
/// traffic-shaping settings, which became constants; 7: the evaluation
/// model travels as its two inputs, frequency and link width, its
/// calibration values being constants; 8: requests carry neither the
/// partitioner's options nor the simulator's drain bound, both now
/// constants; 9: requests carry the coordinator's run id, right after
/// the version and tag). A version mismatch is a decode error (the
/// coordinator retries elsewhere rather than mis-reading bytes).
inline constexpr std::uint32_t kWireVersion = 9;

/// Everything a worker needs to run one slice — self-contained, so any
/// worker can still take any job. The run id only saves work: a worker
/// runs the jobs of one run on a pooled session that keeps the
/// partitions and position-LP solutions their points share (run_shard).
struct ShardRequest {
    /// Drawn once per distribute_explore call. Results never depend on
    /// it: two runs whose ids collide share only bit-transparent
    /// artifacts of the same spec and store.
    std::uint64_t run_id = 0;
    DesignSpec spec;              ///< bit-exact (binary geometry/bandwidth)
    SynthesisConfig base_cfg;     ///< complete base config (every field)
    ExploreOptions opts;          ///< num_threads = the worker's threads
    std::vector<GridPoint> points;  ///< the slice; global indices preserved
    /// Content-addressed store directory shared by the shards; empty runs
    /// the slice without a store.
    std::string cas_dir;
};

/// One explored point of the slice, in slice order.
struct ShardPointResult {
    std::string phase_used;
    /// cas::encode_evaluation blob per design (the complete DesignPoint).
    std::vector<std::string> designs;
    /// Simulated backend: one report per design (default-constructed,
    /// cycles_run == 0, for designs that were not simulated). Empty under
    /// the analytic backend.
    std::vector<sim::SimReport> sim_reports;
};

struct ShardResponse {
    std::vector<ShardPointResult> points;  ///< parallel to request.points
    /// The worker session's stage-counter delta for this slice (summed by
    /// the coordinator into the reassembled ExploreStats).
    pipeline::SessionStats stage;
};

// -------------------------------------------------------- payload codec

std::string encode_shard_request(const ShardRequest& req);
bool decode_shard_request(std::string_view payload, ShardRequest& out,
                          std::string& error);

std::string encode_shard_response(const ShardResponse& resp);
bool decode_shard_response(std::string_view payload, ShardResponse& out,
                           std::string& error);

// ------------------------------------------------------------- framing
//
// Frame builders return the complete frame — header line, its '\n' and
// the payload — ready to write as is; parsers take one complete frame as
// FrameReader returns it and check that the payload is exactly as long
// as the header announces.

std::string make_shard_run_frame(const ShardRequest& req);
std::string make_ok_frame(const ShardResponse& resp);
std::string make_pong_frame();
std::string make_error_frame(const std::string& msg);

/// The payload length a frame's header line (without its '\n')
/// announces: 0 for a header-only frame, which includes a line that is
/// not a JSON object (the frame parsers name that problem). False with
/// `error` set when "bytes" is not a non-negative integer.
bool frame_payload_size(std::string_view header, std::size_t& bytes,
                        std::string& error);

/// A parsed request frame as the worker sees it.
struct WorkerRequest {
    enum class Op { ShardRun, Ping };
    Op op = Op::Ping;
    ShardRequest run;  ///< filled for Op::ShardRun
};

bool parse_worker_frame(const std::string& frame, WorkerRequest& out,
                        std::string& error);

/// Parse a response frame into its (binary) payload. Returns false with
/// `error` set on a malformed header, a payload of another length than
/// announced, a wire-version-2 frame or a remote {"ok":false} error.
/// Ping responses yield an empty payload.
bool parse_response_frame(const std::string& frame, std::string& payload,
                          std::string& error);

}  // namespace sunfloor::dist
