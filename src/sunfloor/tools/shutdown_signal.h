// SIGINT/SIGTERM -> a server's shutdown pipe, for sunfloord and
// sunfloor_shard_worker. The handler may only touch async-signal-safe
// state, so it writes one byte to the pipe and nothing else; the server
// then shuts down gracefully.
#pragma once

#include <csignal>

#include <unistd.h>

namespace sunfloor::tools {

namespace detail {

inline int shutdown_fd = -1;

extern "C" inline void on_shutdown_signal(int) {
    if (shutdown_fd >= 0) {
        const char b = 1;
        [[maybe_unused]] const ssize_t n = ::write(shutdown_fd, &b, 1);
    }
}

}  // namespace detail

/// Route SIGINT and SIGTERM to the pipe `fd` (a server's shutdown_fd()).
inline void forward_shutdown_signals(int fd) {
    detail::shutdown_fd = fd;
    struct sigaction sa {};
    sa.sa_handler = detail::on_shutdown_signal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

}  // namespace sunfloor::tools
