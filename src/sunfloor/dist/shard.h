// Shard execution: the one code path every transport funnels into.
//
// run_shard() is what a worker does with a decoded ShardRequest — take a
// session of the request's run (one kept from the run's earlier jobs, or
// a new one on the spec and, when one is configured, the shared CAS
// store), run the explorer over the slice and render the complete
// results back into a ShardResponse (designs, sim reports and stage
// counters; the explorer's Pareto front stays on the worker). The
// in-process transport calls it directly (after a full encode/decode
// round trip, so both transports exercise identical codec paths);
// WorkerServer serves it over a socket, reading each frame — a header
// line, then the raw payload it announces (protocol.h) — with
// FrameReader, which the socket coordinator uses for responses too.
#pragma once

#include <string>

#include "sunfloor/dist/protocol.h"
#include "sunfloor/service/accept_loop.h"

namespace sunfloor::dist {

/// Run one shard job. Throws std::runtime_error on an unusable request
/// (unparseable spec, unopenable CAS directory) — the serving layer turns
/// that into an {"ok":false} frame.
///
/// The jobs of one run take turns on the process's pooled sessions: a
/// job borrows an idle session of its run — same run id, same spec bytes,
/// same store directory — or starts one, and hands it back with only
/// what every point of the grid shares (partition graphs, partitions,
/// position-LP solutions; SynthesisSession::drop_point_stages). A session
/// serves one job at a time, so concurrent jobs of a run hold sessions of
/// their own and each job's stage counts stay exact. The pool has one
/// slot: the first job of another run frees the sessions it holds, so no
/// state outlives a run's pool slot and a worker holds at most one run's
/// sessions between jobs. (Runs that interleave on one worker take the
/// slot from each other and share nothing, as if each job ran alone.)
/// Counted in dist.sessions.started and dist.sessions.reused;
/// dist.sessions.pooled gauges the idle sessions.
ShardResponse run_shard(const ShardRequest& req);

/// Reads complete frames (protocol.h's grammar) from one connection: the
/// header line through service::read_line, then exactly the payload
/// bytes it announces through service::read_exact. The frame grows only
/// as bytes arrive; the announced count sizes no allocation.
class FrameReader {
  public:
    /// `max_bytes` bounds the header line and the announced payload
    /// ("frame exceeds N bytes"); 0 means unlimited.
    FrameReader(int fd, std::size_t max_bytes)
        : fd_(fd), max_bytes_(max_bytes) {}

    /// 1: frame() holds a complete frame. 0: clean EOF before any byte.
    /// -2: a receive timeout expired; a partial frame is kept and the
    /// next call continues it. -1: error (`error` set), after which the
    /// stream cannot be resynchronized — close the connection.
    int next(std::string& error);

    /// The last complete frame (valid until the next call to next()).
    const std::string& frame() const { return frame_; }

  private:
    int fd_;
    std::size_t max_bytes_;
    std::string buf_;       ///< read-ahead carried between calls
    std::string frame_;     ///< the frame being assembled
    std::size_t want_ = 0;  ///< complete frame size; 0 = header not read
};

struct WorkerOptions {
    /// Listen address: unix socket path (contains '/') or host:port.
    std::string listen;
    /// Connection-handler threads (concurrent coordinators served).
    int conn_threads = 2;
    /// Request-frame limit on the header line and on the announced
    /// payload; shard payloads carry whole grids, so the default is
    /// generous. <= 0 means unlimited.
    long long max_frame_bytes = 256LL << 20;
};

/// A shard worker: serves shard_run/ping frames until stopped. Its
/// connections come from the shared accept loop (service/accept_loop.h),
/// whose busy reply is an {"ok":false,"error":"worker busy: ..."} frame.
/// Shard jobs run synchronously on the connection's handler thread,
/// which is the back-pressure: a worker busy with a slice makes the
/// coordinator's call wait, it never queues slices invisibly.
class WorkerServer {
  public:
    explicit WorkerServer(WorkerOptions opts);

    WorkerServer(const WorkerServer&) = delete;
    WorkerServer& operator=(const WorkerServer&) = delete;

    /// Bind, listen and spawn the accept/handler threads.
    bool start(std::string& error);

    /// Begin shutdown (idempotent, callable from any thread or a signal
    /// handler via shutdown_fd()).
    void request_shutdown() { loop_.request_stop(); }

    /// Write end of the shutdown self-pipe (async-signal-safe wake-up).
    int shutdown_fd() const { return loop_.stop_fd(); }

    /// Block until shutdown was requested and all threads joined.
    void wait() { loop_.wait(); }

  private:
    void serve_connection(int fd);

    WorkerOptions opts_;
    /// Last, so it is destroyed first: its destructor stops and joins the
    /// handler threads before the options they read go.
    service::AcceptLoop loop_;
};

}  // namespace sunfloor::dist
