// sunfloord's server: socket front end over the JobEngine.
//
// The connections come from the shared accept loop (accept_loop.h): one
// accept thread, a bounded hand-off to `conn_threads` handler threads,
// and a {"ok":false,"rejected":"busy",...} answer to a connection the
// full hand-off refuses. Each handler serves line-delimited JSON
// requests (protocol.h) until the peer disconnects.
//
// Shutdown: request_shutdown() — or a signal handler writing one byte to
// shutdown_fd(), which is the only async-signal-safe entry point — wakes
// the accept thread, which stops accepting, puts the engine into drain
// mode and closes the hand-off. Handlers finish their current
// connections (new submissions are rejected "shutting-down"; status /
// result / waits still work so clients can collect in-flight results),
// then wait() drains every accepted job and joins all threads.
#pragma once

#include <memory>
#include <string>

#include "sunfloor/service/accept_loop.h"
#include "sunfloor/service/job_engine.h"

namespace sunfloor::service {

struct ServerOptions {
    /// Listen address: unix socket path (contains '/') or host:port.
    std::string listen;
    EngineOptions engine;
    /// Connection-handler threads (concurrent clients served).
    int conn_threads = 4;
    /// Request-frame size limit (satellite: oversized frames are a named
    /// protocol error, not an allocation).
    long long max_frame_bytes = 1 << 20;
};

class Server {
  public:
    explicit Server(ServerOptions opts);

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Bind, listen and spawn the accept/handler threads. False (with a
    /// named error) when the address cannot be parsed or bound.
    bool start(std::string& error);

    /// Write end of the shutdown self-pipe. Writing one byte here is
    /// async-signal-safe — it is what a SIGINT/SIGTERM handler should do.
    int shutdown_fd() const { return loop_.stop_fd(); }

    /// Begin graceful shutdown (idempotent, callable from any thread).
    void request_shutdown() { loop_.request_stop(); }

    /// Block until shutdown was requested, every accepted job drained and
    /// all threads joined. Safe to call once after start().
    void wait();

    JobEngine& engine() { return *engine_; }

  private:
    /// Serve one connection until EOF/error/shutdown-drain.
    void serve_connection(int fd);
    /// Handle one parsed request; returns the response frame (no '\n').
    std::string handle(const Request& req);

    ServerOptions opts_;
    std::unique_ptr<JobEngine> engine_;
    /// Last, so it is destroyed first: its destructor stops and joins the
    /// handler threads before the engine they call into goes.
    AcceptLoop loop_;
};

}  // namespace sunfloor::service
