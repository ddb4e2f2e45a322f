#include "sunfloor/service/transport.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "sunfloor/util/strings.h"

namespace sunfloor::service {

bool parse_address(const std::string& s, Address& out, std::string& error) {
    if (s.empty()) {
        error = "empty address";
        return false;
    }
    if (s.find('/') != std::string::npos || s[0] == '.') {
        sockaddr_un sun{};
        if (s.size() >= sizeof(sun.sun_path)) {
            error = format("unix socket path longer than %zu bytes",
                           sizeof(sun.sun_path) - 1);
            return false;
        }
        out.is_unix = true;
        out.path = s;
        return true;
    }
    const std::size_t colon = s.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == s.size()) {
        error = format("bad address \"%s\" (expected host:port or a "
                       "unix socket path containing '/')",
                       s.c_str());
        return false;
    }
    int port = 0;
    if (!parse_int(s.substr(colon + 1), port) || port < 1 ||
        port > 65535) {
        error = format("bad port in address \"%s\"", s.c_str());
        return false;
    }
    out.is_unix = false;
    out.host = s.substr(0, colon);
    out.port = port;
    return true;
}

namespace {

int errno_fail(std::string& error, const char* what) {
    error = format("%s: %s", what, std::strerror(errno));
    return -1;
}

/// Resolve and apply a tcp host:port to a sockaddr_in. IPv4 only — the
/// daemon is a localhost/CI tool, not an internet service.
bool resolve_ipv4(const Address& addr, sockaddr_in& sin,
                  std::string& error) {
    sin = sockaddr_in{};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(static_cast<std::uint16_t>(addr.port));
    if (inet_pton(AF_INET, addr.host.c_str(), &sin.sin_addr) == 1)
        return true;
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (getaddrinfo(addr.host.c_str(), nullptr, &hints, &res) != 0 ||
        !res) {
        error = format("cannot resolve host \"%s\"", addr.host.c_str());
        return false;
    }
    sin.sin_addr =
        reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
    freeaddrinfo(res);
    return true;
}

}  // namespace

int listen_on(const Address& addr, std::string& error) {
    if (addr.is_unix) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) return errno_fail(error, "socket");
        ::unlink(addr.path.c_str());
        sockaddr_un sun{};
        sun.sun_family = AF_UNIX;
        std::strncpy(sun.sun_path, addr.path.c_str(),
                     sizeof(sun.sun_path) - 1);
        if (::bind(fd, reinterpret_cast<sockaddr*>(&sun), sizeof(sun)) <
            0) {
            close_fd(fd);
            return errno_fail(error, "bind");
        }
        if (::listen(fd, 64) < 0) {
            close_fd(fd);
            return errno_fail(error, "listen");
        }
        return fd;
    }
    sockaddr_in sin{};
    if (!resolve_ipv4(addr, sin, error)) return -1;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return errno_fail(error, "socket");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) < 0) {
        close_fd(fd);
        return errno_fail(error, "bind");
    }
    if (::listen(fd, 64) < 0) {
        close_fd(fd);
        return errno_fail(error, "listen");
    }
    return fd;
}

int dial(const Address& addr, std::string& error) {
    if (addr.is_unix) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) return errno_fail(error, "socket");
        sockaddr_un sun{};
        sun.sun_family = AF_UNIX;
        std::strncpy(sun.sun_path, addr.path.c_str(),
                     sizeof(sun.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&sun),
                      sizeof(sun)) < 0) {
            close_fd(fd);
            return errno_fail(error, "connect");
        }
        return fd;
    }
    sockaddr_in sin{};
    if (!resolve_ipv4(addr, sin, error)) return -1;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return errno_fail(error, "socket");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) <
        0) {
        close_fd(fd);
        return errno_fail(error, "connect");
    }
    return fd;
}

int read_line(int fd, std::string& buf, std::string& line,
              std::size_t max_bytes, std::string& error) {
    std::size_t scanned = 0;  // buf[0, scanned) holds no '\n'
    for (;;) {
        const std::size_t nl = buf.find('\n', scanned);
        if (nl != std::string::npos) {
            if (max_bytes > 0 && nl > max_bytes) {
                error = format("frame exceeds %zu bytes", max_bytes);
                return -1;
            }
            line.assign(buf, 0, nl);
            buf.erase(0, nl + 1);
            return 1;
        }
        scanned = buf.size();
        // Bound the read-ahead too: a line with no terminator must not
        // grow the buffer without limit.
        if (max_bytes > 0 && buf.size() > max_bytes) {
            error = format("frame exceeds %zu bytes", max_bytes);
            return -1;
        }
        char chunk[4096];
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n > 0) {
            buf.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) {
            if (buf.empty()) return 0;
            error = "connection closed mid-frame";
            return -1;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return -2;
        error = format("read: %s", std::strerror(errno));
        return -1;
    }
}

int read_exact(int fd, std::string& buf, std::string& out, std::size_t size,
               std::string& error) {
    if (out.size() < size && !buf.empty()) {
        const std::size_t take = std::min(buf.size(), size - out.size());
        out.append(buf, 0, take);
        buf.erase(0, take);
    }
    while (out.size() < size) {
        // Never more than `size` in all: what follows belongs to the next
        // frame and stays in the kernel.
        char chunk[64 * 1024];
        const ssize_t n = ::read(
            fd, chunk, std::min(sizeof(chunk), size - out.size()));
        if (n > 0) {
            out.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) {
            error = "connection closed mid-frame";
            return -1;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return -2;
        error = format("read: %s", std::strerror(errno));
        return -1;
    }
    return 1;
}

bool write_all(int fd, std::string_view data) {
    std::size_t off = 0;
    while (off < data.size()) {
        // MSG_NOSIGNAL: a peer that disconnected mid-response must fail
        // the write (EPIPE), not SIGPIPE-kill the whole daemon.
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        return false;
    }
    return true;
}

void close_fd(int fd) {
    if (fd >= 0) ::close(fd);
}

}  // namespace sunfloor::service
