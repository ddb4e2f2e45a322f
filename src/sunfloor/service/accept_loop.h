// The accept loop both socket servers run: sunfloord's service::Server
// and the shard worker's dist::WorkerServer.
//
// start() binds and listens (unix path or host:port, transport.h) and
// spawns one accept thread plus `conn_threads` handler threads. The
// accept thread polls the listening socket and a self-pipe; every
// accepted connection gets a 500 ms receive timeout and goes through a
// bounded util Channel of kMaxPendingConns to the handlers, which run the
// owner's per-connection function and then close the socket. When the
// channel is full the connection is answered with the owner's busy reply
// and closed, never queued unboundedly. When accept() runs out of
// descriptors or buffers (EMFILE, ENFILE, ENOBUFS, ENOMEM) the pending
// connection keeps the socket readable, so the thread waits on the
// self-pipe alone for 100 ms before it retries instead of spinning.
//
// Shutdown: request_stop() — or a signal handler writing one byte to
// stop_fd(), the only async-signal-safe entry point — wakes the accept
// thread, which sets stopping(), runs the owner's stop hook, closes the
// hand-off channel and the listening socket. Handlers finish the
// connections already accepted; a per-connection function should return
// on a receive timeout once stopping() is true. wait() joins every
// thread.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "sunfloor/util/channel.h"

namespace sunfloor::service {

/// Accepted connections waiting for a handler; one more gets the busy
/// reply.
inline constexpr std::size_t kMaxPendingConns = 32;

class AcceptLoop {
  public:
    /// Serves one accepted connection; the loop closes the fd afterwards.
    using Serve = std::function<void(int fd)>;

    /// `busy_reply` is written as is to a connection the full hand-off
    /// refuses; `on_stop` (optional) runs on the accept thread once
    /// shutdown begins, before the hand-off closes.
    AcceptLoop(Serve serve, std::string busy_reply,
               std::function<void()> on_stop = {});
    /// Stops, joins and closes the self-pipe.
    ~AcceptLoop();

    AcceptLoop(const AcceptLoop&) = delete;
    AcceptLoop& operator=(const AcceptLoop&) = delete;

    /// Bind, listen and spawn the accept thread and `conn_threads`
    /// handlers (at least one). False, with a named error, when the
    /// address cannot be parsed or bound.
    bool start(const std::string& listen, int conn_threads,
               std::string& error);

    /// Write end of the self-pipe (-1 before start()).
    int stop_fd() const { return stop_pipe_[1]; }

    /// Begin shutdown (idempotent, callable from any thread).
    void request_stop();

    /// True once the accept thread has stopped accepting.
    bool stopping() const {
        return stopping_.load(std::memory_order_relaxed);
    }

    /// Block until shutdown was requested and every thread joined.
    void wait();

  private:
    void accept_loop();
    void handler_loop();

    Serve serve_;
    std::string busy_reply_;
    std::function<void()> on_stop_;
    Channel<int> pending_{kMaxPendingConns};  ///< accepted, unclaimed fds
    int listen_fd_ = -1;
    int stop_pipe_[2] = {-1, -1};
    std::atomic<bool> stopping_{false};
    std::thread accept_thread_;
    std::vector<std::thread> handlers_;
};

}  // namespace sunfloor::service
