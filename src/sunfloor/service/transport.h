// Socket plumbing shared by the server and client: address parsing,
// listening, dialing, length-bounded line framing and exact-length reads.
//
// Addresses: a string containing '/' (or starting with '.') names a
// Unix-domain socket path; anything else is "host:port" TCP. The service
// wire unit is one '\n'-terminated line in both directions (see
// protocol.h); the shard protocol follows a header line with a raw
// payload of announced length (dist/protocol.h), read with read_exact.
#pragma once

#include <string>
#include <string_view>

namespace sunfloor::service {

struct Address {
    bool is_unix = false;
    std::string path;  ///< unix: socket path
    std::string host;  ///< tcp: host (numeric or name)
    int port = 0;      ///< tcp: port
};

/// Parse a listen/connect address. False (with a named error) on a
/// malformed "host:port" or an empty string.
bool parse_address(const std::string& s, Address& out, std::string& error);

/// Create, bind and listen. Returns the listening fd, or -1 with a named
/// error. Unix paths are unlinked first (a daemon restart replaces a
/// stale socket file).
int listen_on(const Address& addr, std::string& error);

/// Connect to a listening server. Returns the connected fd, or -1 with a
/// named error.
int dial(const Address& addr, std::string& error);

/// Read one '\n'-terminated line (the terminator is consumed, not
/// returned). Returns 1 on a line, 0 on clean EOF before any byte, -2
/// when a receive timeout (SO_RCVTIMEO) expired with no complete line —
/// the caller decides whether to keep waiting — and -1 on error,
/// including a line longer than `max_bytes` ("frame exceeds N bytes").
/// `buf` carries read-ahead between calls on the same fd. A call scans
/// the carry buffer once, then only the bytes each read appends, so a
/// line costs time linear in its length however the kernel splits it.
int read_line(int fd, std::string& buf, std::string& line,
              std::size_t max_bytes, std::string& error);

/// Append to `out` until it holds `size` bytes, from the carry buffer
/// `buf` first and then from the fd, never reading past `size`. `out`
/// grows only as bytes arrive, never by `size` up front, so an untrusted
/// announced length costs nothing until its bytes exist. Returns 1 once
/// `out.size() >= size`, -2 when a receive timeout expired first (the
/// bytes so far stay in `out`; call again to continue) and -1 on error,
/// including EOF ("connection closed mid-frame").
int read_exact(int fd, std::string& buf, std::string& out, std::size_t size,
               std::string& error);

/// Write all of `data` (callers append any '\n' themselves). False on
/// error.
bool write_all(int fd, std::string_view data);

/// close(2) wrapper, EINTR-safe.
void close_fd(int fd);

}  // namespace sunfloor::service
