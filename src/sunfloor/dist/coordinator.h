// Distributed exploration coordinator.
//
// distribute_explore() partitions a grid enumeration into contiguous
// subgrids, ships each as a self-contained ShardRequest over a pluggable
// ShardTransport, and reassembles the shipped designs into the exact
// ExploreResult a single-process Explorer::run() would have produced —
// byte-identical CSV/JSON exports (property-tested in dist_test.cpp over
// {inproc, socket} x {1, 2, 4} workers x {analytic, sim} backends x
// {cold, warm} CAS). Exactness rests on per-point determinism: every
// design, seed and simulator report depends only on that point's key
// (never a thread or worker id), so a slice computes the same bits the
// full run computes. The coordinator seeds and summarizes the
// reassembled points with the explorer's own steps
// (seeded_explore_result, summarize_explore): the global Pareto front
// and the stats are computed here from the decoded designs, never taken
// from a worker. Each call draws a run id that all its jobs carry, so a
// worker runs them on sessions that keep what their points share
// (dist/shard.h); the summed stage counters therefore depend on which
// jobs shared a session, the results never.
//
// Fault tolerance: a failed shard job (worker crash, dropped connection,
// malformed response) goes back on the queue. While another worker is
// live, the worker that failed it retires, so the job goes to the others
// and one dead address cannot spend its retries. The last live worker
// retries the job itself, up to kMaxRetries times, before the run fails
// with a typed DistError of the last failure's kind.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sunfloor/dist/protocol.h"

namespace sunfloor::dist {

enum class DistErrorKind {
    Config,     ///< unusable options (no workers, bad address)
    Transport,  ///< connect/send/receive failure
    Protocol,   ///< malformed frame or payload, version mismatch
};

const char* dist_error_kind_to_string(DistErrorKind kind);

class DistError : public std::runtime_error {
  public:
    DistError(DistErrorKind kind, const std::string& msg)
        : std::runtime_error(msg), kind_(kind) {}

    DistErrorKind kind() const { return kind_; }

  private:
    DistErrorKind kind_;
};

/// One way to run a shard job. Implementations throw DistError on
/// failure; the coordinator re-queues the job. run() must be callable
/// from the coordinator's worker threads (one thread per transport, so an
/// implementation never sees concurrent calls to the same instance).
class ShardTransport {
  public:
    virtual ~ShardTransport() = default;

    virtual ShardResponse run(const ShardRequest& req) = 0;

    /// Human-readable endpoint name for error messages.
    virtual std::string describe() const = 0;
};

/// In-process worker. The request and response still make the full
/// encode -> decode round trip, so both transports exercise the same
/// codec path and a wire bug cannot hide behind the inproc fast path.
class InprocTransport : public ShardTransport {
  public:
    ShardResponse run(const ShardRequest& req) override;
    std::string describe() const override { return "inproc"; }
};

/// Socket worker speaking the dist frame protocol over the service
/// transport (unix path or host:port). Dials per job: jobs are few and
/// heavy, and a fresh connection per job is what makes "any worker can
/// take any re-queued job" trivially true.
class SocketTransport : public ShardTransport {
  public:
    explicit SocketTransport(std::string address)
        : address_(std::move(address)) {}

    ShardResponse run(const ShardRequest& req) override;
    std::string describe() const override { return address_; }

  private:
    std::string address_;
};

struct DistOptions {
    /// Contiguous subgrids the enumeration is split into. More shards
    /// than workers means a job queue; more shards than points collapses
    /// to one point per shard.
    int shards = 1;
    /// Shared content-addressed store for the workers; empty = none.
    std::string cas_dir;
};

/// Tries of a shard job on the last live worker beyond its first there.
inline constexpr int kMaxRetries = 2;

/// Run `points` (a full grid enumeration) across `workers` and reassemble
/// the shard results into the exact single-process ExploreResult. Throws
/// DistError; `spec`/`base_cfg`/`opts` mean what they mean to Explorer.
ExploreResult distribute_explore(
    const DesignSpec& spec, const SynthesisConfig& base_cfg,
    const ExploreOptions& opts, const std::vector<GridPoint>& points,
    const std::vector<std::shared_ptr<ShardTransport>>& workers,
    const DistOptions& dopts);

/// The contiguous balanced slice boundaries distribute_explore uses:
/// n points over k shards, first (n % k) slices one longer. Exposed for
/// the tests; returns [start0, start1, ..., n].
std::vector<std::size_t> shard_boundaries(std::size_t n, int shards);

}  // namespace sunfloor::dist
