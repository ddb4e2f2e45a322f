// Wire protocol of the distributed exploration shards.
//
// A shard job is one contiguous slice of a ParamGrid enumeration. The
// coordinator ships the *complete* inputs — the spec (binary, bit-exact:
// the text format rounds doubles through %.6g), every field of the
// SynthesisConfig and ExploreOptions, the explicit GridPoint list (global
// indices preserved) and the CAS directory — and the worker ships back the
// complete outputs: per point, the phase used, every DesignPoint as a
// cas::encode_evaluation blob (bit-exact by construction) and the full
// simulator reports. Nothing is summarized in flight, which is what makes
// an N-shard run's merged exports byte-identical to the single-process
// run's (property-tested in dist_test.cpp).
//
// Framing reuses the service transport's line discipline: one
// newline-free JSON object per line,
//
//   request:  {"op":"shard_run","payload":"<hex>"}
//             {"op":"ping"}
//   response: {"ok":true,"payload":"<hex>"}          (ping: no payload)
//             {"ok":false,"error":"..."}
//
// where the payload is the hex rendering of a little-endian binary blob
// (cas/bincode.h primitives, doubles as raw bit patterns) carrying a
// versioned, tagged ShardRequest or ShardResponse. Binary-in-hex keeps
// the frame free of escaping concerns while preserving every double bit.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sunfloor/explore/explorer.h"
#include "sunfloor/explore/param_grid.h"
#include "sunfloor/pipeline/session.h"

namespace sunfloor::dist {

/// Protocol version; bumped on any payload layout change. A version
/// mismatch is a decode error (the coordinator retries elsewhere rather
/// than mis-reading bytes).
inline constexpr std::uint32_t kWireVersion = 2;

/// Everything a worker needs to run one slice — self-contained, so a
/// worker holds no per-coordinator state and any worker can take any job.
struct ShardRequest {
    DesignSpec spec;              ///< bit-exact (binary geometry/bandwidth)
    SynthesisConfig base_cfg;     ///< complete base config (every field)
    ExploreOptions opts;          ///< num_threads = the worker's threads
    std::vector<GridPoint> points;  ///< the slice; global indices preserved
    /// Content-addressed store directory shared by the shards; empty runs
    /// the slice without a store.
    std::string cas_dir;
    std::uint64_t cas_max_bytes = 0;  ///< store GC bound (0 = unbounded)
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
    /// The slice's own Pareto front, with *slice-local* point indices.
    /// The coordinator remaps them to global indices and feeds every
    /// slice's front to merge_pareto_fronts().
    std::vector<ParetoEntry> pareto;
    /// The worker session's stage-counter delta for this slice (summed by
    /// the coordinator into the merged ExploreStats).
    pipeline::SessionStats stage;
};

// -------------------------------------------------------- payload codec

std::string encode_shard_request(const ShardRequest& req);
bool decode_shard_request(std::string_view payload, ShardRequest& out,
                          std::string& error);

std::string encode_shard_response(const ShardResponse& resp);
bool decode_shard_response(std::string_view payload, ShardResponse& out,
                           std::string& error);

/// Lowercase hex rendering of arbitrary bytes (and its inverse; from_hex
/// rejects odd length and non-hex characters).
std::string to_hex(std::string_view bytes);
bool from_hex(std::string_view hex, std::string& bytes);

// ------------------------------------------------------------- framing
//
// Frame builders return one JSON object with no trailing newline (the
// transport appends it); parsers take one line as read_line returns it.

std::string make_shard_run_frame(const ShardRequest& req);
std::string make_ping_frame();
std::string make_ok_frame(const ShardResponse& resp);
std::string make_pong_frame();
std::string make_error_frame(const std::string& msg);

/// A parsed request frame as the worker sees it.
struct WorkerRequest {
    enum class Op { ShardRun, Ping };
    Op op = Op::Ping;
    ShardRequest run;  ///< filled for Op::ShardRun
};

bool parse_worker_frame(const std::string& line, WorkerRequest& out,
                        std::string& error);

/// Parse a response line into its decoded (binary) payload. Returns false
/// with `error` set on malformed JSON, a remote {"ok":false} error, or a
/// bad hex payload. Ping responses yield an empty payload.
bool parse_response_frame(const std::string& line, std::string& payload,
                          std::string& error);

}  // namespace sunfloor::dist
