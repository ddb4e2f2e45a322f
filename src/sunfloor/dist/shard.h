// Shard execution: the one code path every transport funnels into.
//
// run_shard() is what a worker does with a decoded ShardRequest — rebuild
// the spec, open the shared CAS store when one is configured, run the
// explorer over the slice and render the complete results back into a
// ShardResponse. The in-process transport calls it directly (after a full
// encode/decode round trip, so both transports exercise identical codec
// paths); WorkerServer serves it over a socket with the service
// transport's line framing.
#pragma once

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "sunfloor/dist/protocol.h"
#include "sunfloor/service/transport.h"
#include "sunfloor/util/channel.h"

namespace sunfloor::dist {

/// Run one shard job. Throws std::runtime_error on an unusable request
/// (unparseable spec, unopenable CAS directory) — the serving layer turns
/// that into an {"ok":false} frame.
ShardResponse run_shard(const ShardRequest& req);

struct WorkerOptions {
    /// Listen address: unix socket path (contains '/') or host:port.
    std::string listen;
    /// Connection-handler threads (concurrent coordinators served).
    int conn_threads = 2;
    /// Request-frame size limit; shard payloads carry whole grids, so the
    /// default is generous. <= 0 means unlimited.
    long long max_frame_bytes = 256LL << 20;
};

/// A shard worker: accepts connections and serves shard_run/ping frames
/// until stopped. The accept loop mirrors service::Server (self-pipe
/// wake-up, bounded hand-off channel), minus the job engine — shard jobs
/// run synchronously on the connection's handler thread, which is the
/// back-pressure: a worker busy with a slice makes the coordinator's call
/// wait, it never queues slices invisibly.
class WorkerServer {
  public:
    explicit WorkerServer(WorkerOptions opts);
    ~WorkerServer();

    WorkerServer(const WorkerServer&) = delete;
    WorkerServer& operator=(const WorkerServer&) = delete;

    /// Bind, listen and spawn the accept/handler threads.
    bool start(std::string& error);

    /// Begin shutdown (idempotent, callable from any thread or a signal
    /// handler via shutdown_fd()).
    void request_shutdown();

    /// Write end of the shutdown self-pipe (async-signal-safe wake-up).
    int shutdown_fd() const { return shutdown_pipe_[1]; }

    /// Block until shutdown was requested and all threads joined.
    void wait();

  private:
    void accept_loop();
    void handler_loop();
    void serve_connection(int fd);

    WorkerOptions opts_;
    service::Address addr_;
    Channel<int> pending_;
    int listen_fd_ = -1;
    int shutdown_pipe_[2] = {-1, -1};
    std::atomic<bool> shutting_down_{false};
    std::thread accept_thread_;
    std::vector<std::thread> handlers_;
    bool started_ = false;
};

}  // namespace sunfloor::dist
