#include "sunfloor/service/accept_loop.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "sunfloor/service/transport.h"

namespace sunfloor::service {

namespace {

/// How long the accept thread waits after accept() ran out of
/// descriptors or buffers.
constexpr int kAcceptBackoffMs = 100;

}  // namespace

AcceptLoop::AcceptLoop(Serve serve, std::string busy_reply,
                       std::function<void()> on_stop)
    : serve_(std::move(serve)), busy_reply_(std::move(busy_reply)),
      on_stop_(std::move(on_stop)) {}

AcceptLoop::~AcceptLoop() {
    request_stop();
    wait();
    close_fd(stop_pipe_[0]);
    close_fd(stop_pipe_[1]);
}

bool AcceptLoop::start(const std::string& listen, int conn_threads,
                       std::string& error) {
    Address addr;
    if (!parse_address(listen, addr, error)) return false;
    if (::pipe(stop_pipe_) != 0) {
        error = "cannot create shutdown pipe";
        return false;
    }
    listen_fd_ = listen_on(addr, error);
    if (listen_fd_ < 0) return false;
    accept_thread_ = std::thread([this] { accept_loop(); });
    if (conn_threads < 1) conn_threads = 1;
    handlers_.reserve(static_cast<std::size_t>(conn_threads));
    for (int i = 0; i < conn_threads; ++i)
        handlers_.emplace_back([this] { handler_loop(); });
    return true;
}

void AcceptLoop::request_stop() {
    if (stop_pipe_[1] < 0) return;
    const char b = 1;
    // The pipe only ever carries this wake-up byte; a full pipe already
    // guarantees the accept thread will wake.
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &b, 1);
}

void AcceptLoop::wait() {
    if (accept_thread_.joinable()) accept_thread_.join();
    for (std::thread& t : handlers_)
        if (t.joinable()) t.join();
}

void AcceptLoop::accept_loop() {
    for (;;) {
        pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
        const int pr = ::poll(fds, 2, -1);
        if (pr < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (fds[1].revents != 0) break;  // shutdown byte
        if ((fds[0].revents & POLLIN) == 0) continue;
        const int conn = ::accept(listen_fd_, nullptr, nullptr);
        if (conn < 0) {
            // Out of descriptors or buffers: the connection stays pending
            // and the socket readable, so back off on the pipe alone.
            if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
                errno == ENOMEM) {
                pollfd stop = {stop_pipe_[0], POLLIN, 0};
                if (::poll(&stop, 1, kAcceptBackoffMs) > 0) break;
            }
            continue;
        }
        // Receive timeout so an idle connection's handler notices a
        // shutdown within ~half a second instead of blocking in read().
        timeval tv{};
        tv.tv_usec = 500 * 1000;
        ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        if (pending_.try_send(conn) != TrySend::Ok) {
            write_all(conn, busy_reply_);
            close_fd(conn);
        }
    }
    stopping_.store(true, std::memory_order_relaxed);
    if (on_stop_) on_stop_();
    pending_.close();
    close_fd(listen_fd_);
    listen_fd_ = -1;
}

void AcceptLoop::handler_loop() {
    int fd = -1;
    while (pending_.recv(fd)) {
        serve_(fd);
        close_fd(fd);
    }
}

}  // namespace sunfloor::service
