// Byte-level robustness of the service transport's line framing and
// exact-length reads: one-byte-at-a-time delivery, read-ahead across
// calls, a 16 MiB line in 4 KiB pieces, EINTR on both the read and write
// sides, partial send()s under a tiny socket buffer, mid-frame EOF,
// frame-size bounds and receive-timeout pacing. Regression suite: a frame
// must never be dropped, duplicated or torn no matter how the kernel
// fragments the stream.
#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sunfloor/service/transport.h"

namespace sunfloor::service {
namespace {

/// A connected AF_UNIX stream pair; [0] is the read end in these tests.
struct SocketPair {
    int fd[2] = {-1, -1};
    SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
    ~SocketPair() {
        close_fd(fd[0]);
        close_fd(fd[1]);
    }
};

/// Install a no-op SIGUSR1 handler *without* SA_RESTART, so a signal
/// delivered to a thread blocked in read(2)/send(2) surfaces as EINTR —
/// exactly the condition the transport must absorb.
void install_eintr_signal() {
    struct sigaction sa{};
    sa.sa_handler = [](int) {};
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ASSERT_EQ(::sigaction(SIGUSR1, &sa, nullptr), 0);
}

void write_byte(int fd, char c) {
    ASSERT_EQ(::write(fd, &c, 1), 1);
}

TEST(TransportIo, OneByteAtATimeDeliveryAssemblesEveryFrameExactly) {
    SocketPair sp;
    const std::vector<std::string> frames = {
        "alpha",
        "",  // empty frame: just the terminator
        "{\"op\":\"ping\"}",
        std::string(3000, 'x'),
        "last",
    };

    std::thread writer([&] {
        for (const std::string& f : frames) {
            for (const char c : f) write_byte(sp.fd[1], c);
            write_byte(sp.fd[1], '\n');
        }
        ::shutdown(sp.fd[1], SHUT_WR);
    });

    std::string buf, line, err;
    for (const std::string& f : frames) {
        ASSERT_EQ(read_line(sp.fd[0], buf, line, 0, err), 1) << err;
        EXPECT_EQ(line, f);
    }
    // Clean EOF after the last frame — nothing dropped, nothing invented.
    EXPECT_EQ(read_line(sp.fd[0], buf, line, 0, err), 0);
    writer.join();
}

TEST(TransportIo, ReadAheadCarriesBetweenCallsWithoutLoss) {
    SocketPair sp;
    // One kernel read may slurp several frames; the carry buffer must
    // yield them one by one, byte-exactly, across calls.
    const std::string burst = "a\nbb\nccc\n";
    ASSERT_EQ(::write(sp.fd[1], burst.data(), burst.size()),
              static_cast<ssize_t>(burst.size()));
    std::string buf, line, err;
    ASSERT_EQ(read_line(sp.fd[0], buf, line, 0, err), 1);
    EXPECT_EQ(line, "a");
    ASSERT_EQ(read_line(sp.fd[0], buf, line, 0, err), 1);
    EXPECT_EQ(line, "bb");
    ASSERT_EQ(read_line(sp.fd[0], buf, line, 0, err), 1);
    EXPECT_EQ(line, "ccc");
    ::shutdown(sp.fd[1], SHUT_WR);
    EXPECT_EQ(read_line(sp.fd[0], buf, line, 0, err), 0);
}

TEST(TransportIo, SixteenMibLineInFourKibPiecesReadsIntact) {
    SocketPair sp;
    constexpr std::size_t kSize = std::size_t{16} << 20;
    // Position-dependent bytes: a dropped, repeated or reordered piece
    // changes the line.
    std::string big(kSize, '\0');
    for (std::size_t i = 0; i < kSize; ++i)
        big[i] = static_cast<char>('a' + (i * 7 + i / 4096) % 26);
    std::thread writer([&] {
        for (std::size_t at = 0; at < kSize; at += 4096)
            if (!write_all(sp.fd[1], std::string_view(big).substr(at, 4096)))
                return;
        write_all(sp.fd[1], "\nnext\n");
    });
    std::string buf, line, err;
    const int rc = read_line(sp.fd[0], buf, line, 0, err);
    if (rc != 1) ::shutdown(sp.fd[0], SHUT_RDWR);  // unblock the writer
    writer.join();
    ASSERT_EQ(rc, 1) << err;
    ASSERT_EQ(line.size(), kSize);
    EXPECT_TRUE(line == big);
    ASSERT_EQ(read_line(sp.fd[0], buf, line, 0, err), 1) << err;
    EXPECT_EQ(line, "next");
}

TEST(TransportIo, ReadExactTakesTheCarryFirstAndStopsAtTheCount) {
    SocketPair sp;
    const std::string rest = "defgh\nnext\n";
    ASSERT_EQ(::write(sp.fd[1], rest.data(), rest.size()),
              static_cast<ssize_t>(rest.size()));
    std::string buf = "abc";  // read-ahead an earlier read_line left
    std::string out, err;
    ASSERT_EQ(read_exact(sp.fd[0], buf, out, 5, err), 1) << err;
    EXPECT_EQ(out, "abcde");
    EXPECT_TRUE(buf.empty());
    // Nothing past the count was taken: the next line is intact.
    std::string line;
    ASSERT_EQ(read_line(sp.fd[0], buf, line, 0, err), 1) << err;
    EXPECT_EQ(line, "fgh");
    // A carry longer than the count keeps its tail.
    buf = "123456";
    out = "x";
    ASSERT_EQ(read_exact(sp.fd[0], buf, out, 4, err), 1) << err;
    EXPECT_EQ(out, "x123");
    EXPECT_EQ(buf, "456");
}

TEST(TransportIo, ReadExactKeepsBytesAcrossTimeoutsAndNamesEof) {
    SocketPair sp;
    timeval tv{0, 50 * 1000};  // 50 ms
    ASSERT_EQ(::setsockopt(sp.fd[0], SOL_SOCKET, SO_RCVTIMEO, &tv,
                           sizeof(tv)),
              0);
    std::string buf, out, err;
    ASSERT_EQ(::write(sp.fd[1], "12", 2), 2);
    EXPECT_EQ(read_exact(sp.fd[0], buf, out, 5, err), -2);
    EXPECT_EQ(out, "12");
    ASSERT_EQ(::write(sp.fd[1], "345", 3), 3);
    ASSERT_EQ(read_exact(sp.fd[0], buf, out, 5, err), 1) << err;
    EXPECT_EQ(out, "12345");

    ASSERT_EQ(::write(sp.fd[1], "6", 1), 1);
    ::shutdown(sp.fd[1], SHUT_WR);
    out.clear();
    EXPECT_EQ(read_exact(sp.fd[0], buf, out, 3, err), -1);
    EXPECT_EQ(err, "connection closed mid-frame");
    EXPECT_EQ(out, "6");
}

TEST(TransportIo, ReaderSurvivesEintrMidFrame) {
    install_eintr_signal();
    SocketPair sp;
    const std::string frame = "interrupted-but-intact";

    std::string buf, line, err;
    int rc = -99;
    std::thread reader(
        [&] { rc = read_line(sp.fd[0], buf, line, 0, err); });

    // Pepper the blocked reader with signals between single-byte writes:
    // every blocking read in between is a fresh EINTR opportunity, and
    // the frame must still come out whole.
    for (const char c : frame) {
        ::usleep(1000);
        ::pthread_kill(reader.native_handle(), SIGUSR1);
        ::usleep(1000);
        write_byte(sp.fd[1], c);
    }
    ::pthread_kill(reader.native_handle(), SIGUSR1);
    write_byte(sp.fd[1], '\n');
    reader.join();
    ASSERT_EQ(rc, 1) << err;
    EXPECT_EQ(line, frame);
}

TEST(TransportIo, WriterSurvivesPartialSendsAndEintr) {
    install_eintr_signal();
    SocketPair sp;
    // A tiny send buffer forces send(2) to accept the payload in many
    // partial chunks while the reader drains on the other side.
    const int sndbuf = 4096;
    ASSERT_EQ(::setsockopt(sp.fd[1], SOL_SOCKET, SO_SNDBUF, &sndbuf,
                           sizeof(sndbuf)),
              0);

    std::string payload;
    payload.reserve(1 << 20);
    for (int i = 0; payload.size() < (1 << 20); ++i)
        payload += "chunk-" + std::to_string(i) + ";";
    const std::string frame = payload + "\n";

    std::atomic<bool> done{false};
    bool ok = false;
    std::thread writer([&] {
        ok = write_all(sp.fd[1], frame);
        done = true;
    });
    // Interrupt the writer while it is (mostly) blocked in send(2).
    std::thread pest([&] {
        while (!done) {
            ::pthread_kill(writer.native_handle(), SIGUSR1);
            ::usleep(500);
        }
    });

    std::string buf, line, err;
    ASSERT_EQ(read_line(sp.fd[0], buf, line, 0, err), 1) << err;
    writer.join();
    pest.join();
    EXPECT_TRUE(ok);
    // Byte count and content both exact: no duplicated or dropped chunk.
    ASSERT_EQ(line.size(), payload.size());
    EXPECT_EQ(line, payload);
}

TEST(TransportIo, EofMidFrameIsAnErrorNotATruncatedLine) {
    SocketPair sp;
    const std::string partial = "no-terminator";
    ASSERT_EQ(::write(sp.fd[1], partial.data(), partial.size()),
              static_cast<ssize_t>(partial.size()));
    ::shutdown(sp.fd[1], SHUT_WR);
    std::string buf, line, err;
    EXPECT_EQ(read_line(sp.fd[0], buf, line, 0, err), -1);
    EXPECT_NE(err.find("closed mid-frame"), std::string::npos) << err;
}

TEST(TransportIo, FrameSizeBoundAppliesToLinesAndReadAhead) {
    {
        SocketPair sp;
        const std::string big(64, 'a');
        ASSERT_EQ(::write(sp.fd[1], (big + "\n").data(), big.size() + 1),
                  static_cast<ssize_t>(big.size() + 1));
        std::string buf, line, err;
        EXPECT_EQ(read_line(sp.fd[0], buf, line, 16, err), -1);
        EXPECT_NE(err.find("exceeds"), std::string::npos) << err;
    }
    {
        // A terminator-free stream must trip the same bound instead of
        // growing the carry buffer forever.
        SocketPair sp;
        const std::string endless(64, 'b');
        ASSERT_EQ(::write(sp.fd[1], endless.data(), endless.size()),
                  static_cast<ssize_t>(endless.size()));
        std::string buf, line, err;
        EXPECT_EQ(read_line(sp.fd[0], buf, line, 16, err), -1);
        EXPECT_NE(err.find("exceeds"), std::string::npos) << err;
    }
}

TEST(TransportIo, ReceiveTimeoutPacesWithoutConsumingBytes) {
    SocketPair sp;
    timeval tv{0, 50 * 1000};  // 50 ms
    ASSERT_EQ(::setsockopt(sp.fd[0], SOL_SOCKET, SO_RCVTIMEO, &tv,
                           sizeof(tv)),
              0);
    std::string buf, line, err;
    // Nothing arrives: the timeout surfaces as -2 (keep waiting), and any
    // half-frame read before the timeout stays in the carry buffer.
    const std::string half = "half";
    ASSERT_EQ(::write(sp.fd[1], half.data(), half.size()),
              static_cast<ssize_t>(half.size()));
    EXPECT_EQ(read_line(sp.fd[0], buf, line, 0, err), -2);
    EXPECT_EQ(buf, half);
    // The rest arrives: the next call completes the very same frame.
    const std::string rest = "-frame\n";
    ASSERT_EQ(::write(sp.fd[1], rest.data(), rest.size()),
              static_cast<ssize_t>(rest.size()));
    ASSERT_EQ(read_line(sp.fd[0], buf, line, 0, err), 1) << err;
    EXPECT_EQ(line, "half-frame");
}

TEST(TransportIo, WriteToAClosedPeerFailsWithoutKillingTheProcess) {
    SocketPair sp;
    close_fd(sp.fd[0]);
    sp.fd[0] = -1;
    // MSG_NOSIGNAL: EPIPE must come back as `false`, not SIGPIPE.
    EXPECT_FALSE(write_all(sp.fd[1], "doomed\n"));
}

}  // namespace
}  // namespace sunfloor::service
