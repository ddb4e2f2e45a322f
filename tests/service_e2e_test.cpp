// End-to-end daemon tests: a real Server on a unix socket, driven
// through the Client over the line-delimited JSON protocol. Covers the
// submit/status/result/stats lifecycle, byte-identity of a served
// result against the one-shot path, the named wire errors (malformed
// frames, oversized frames, unknown ids), graceful shutdown — the
// shutdown op drains the in-flight work and wait() returns with every
// accepted job finished — and the accept loop under pressure: the busy
// reply of a full hand-off, and a descriptor limit that must not make
// the loop spin.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/io/report.h"
#include "sunfloor/service/accept_loop.h"
#include "sunfloor/service/client.h"
#include "sunfloor/service/protocol.h"
#include "sunfloor/service/server.h"
#include "sunfloor/service/transport.h"
#include "sunfloor/spec/parser.h"
#include "sunfloor/specgen/specgen.h"
#include "sunfloor/util/strings.h"

namespace sunfloor::service {
namespace {

// Operator frames: no shipped client sends them, but the server answers
// them.
std::string make_stats_frame() { return "{\"op\":\"stats\"}"; }
std::string make_shutdown_frame() { return "{\"op\":\"shutdown\"}"; }

DesignSpec e2e_spec(std::uint64_t seed = 1) {
    specgen::GenParams gp;
    gp.family = specgen::GenFamily::Pipeline;
    gp.num_cores = 8;
    gp.num_layers = 2;
    return specgen::generate(gp, seed);
}

std::string spec_text_of(const DesignSpec& spec) {
    std::ostringstream os;
    write_design(os, spec);
    return os.str();
}

SubmitRequest fast_submit(const DesignSpec& spec, bool wait) {
    SubmitRequest sr;
    sr.client = "e2e";
    sr.spec_name = spec.name;
    sr.spec_text = spec_text_of(spec);
    sr.params.floorplan = false;
    sr.wait = wait;
    return sr;
}

// What the one-shot CLI writes as *_points.csv for the same request.
std::string reference_csv(const DesignSpec& spec) {
    SynthesisConfig cfg;
    cfg.eval.freq_hz = 400.0 * 1e6;
    cfg.run_floorplan = false;
    const SynthesisResult res = run_synthesis(spec, cfg);
    std::ostringstream os;
    design_points_table(res.points).write_csv(os);
    return os.str();
}

class ServiceE2E : public ::testing::Test {
  protected:
    void SetUp() override {
        // Unix socket paths are length-limited (~108 bytes): keep it in
        // /tmp, unique per process so parallel ctest runs never collide.
        socket_path_ = format("/tmp/sunfloor_e2e_%d.sock",
                              static_cast<int>(::getpid()));
        ServerOptions opts;
        opts.listen = socket_path_;
        opts.engine.workers = 2;
        opts.conn_threads = 2;
        server_ = std::make_unique<Server>(opts);
        std::string error;
        ASSERT_TRUE(server_->start(error)) << error;
    }

    void TearDown() override {
        server_.reset();  // request_shutdown + wait
        std::remove(socket_path_.c_str());
    }

    // One fresh connection per call: returns the parsed response.
    JsonValue call(const std::string& frame) {
        Client client;
        std::string error;
        EXPECT_TRUE(client.connect(socket_path_, error)) << error;
        JsonValue response;
        EXPECT_TRUE(client.call(frame, response, error)) << error;
        return response;
    }

    static bool ok_of(const JsonValue& v) {
        const JsonValue* ok = v.find("ok");
        return ok && ok->is_bool() && ok->as_bool();
    }

    static std::string error_of(const JsonValue& v) {
        const JsonValue* err = v.find("error");
        return err && err->is_string() ? err->as_string() : std::string();
    }

    std::string socket_path_;
    std::unique_ptr<Server> server_;
};

TEST_F(ServiceE2E, SubmitWaitReturnsTheOneShotBytes) {
    const DesignSpec spec = e2e_spec();
    const std::string want = reference_csv(spec);
    ASSERT_FALSE(want.empty());

    const JsonValue resp =
        call(make_submit_frame(fast_submit(spec, /*wait=*/true)));
    ASSERT_TRUE(ok_of(resp)) << error_of(resp);
    const JsonValue* status = resp.find("status");
    ASSERT_TRUE(status && status->is_string());
    EXPECT_EQ(status->as_string(), "done");
    const JsonValue* result = resp.find("result");
    ASSERT_TRUE(result && result->is_object());
    const JsonValue* csv = result->find("csv");
    ASSERT_TRUE(csv && csv->is_string());
    EXPECT_EQ(csv->as_string(), want);
    const JsonValue* kind = result->find("kind");
    ASSERT_TRUE(kind && kind->is_string());
    EXPECT_EQ(kind->as_string(), "synth");
    const JsonValue* points = result->find("num_points");
    ASSERT_TRUE(points && points->is_integer());
    EXPECT_GT(points->as_int64(), 0);
}

TEST_F(ServiceE2E, AsyncLifecycleSubmitStatusResult) {
    const JsonValue sub =
        call(make_submit_frame(fast_submit(e2e_spec(), /*wait=*/false)));
    ASSERT_TRUE(ok_of(sub)) << error_of(sub);
    const JsonValue* idv = sub.find("id");
    ASSERT_TRUE(idv && idv->is_integer());
    const auto id = static_cast<std::uint64_t>(idv->as_int64());

    // status is valid at any point in the job's life.
    const JsonValue st = call(make_status_frame(id));
    ASSERT_TRUE(ok_of(st)) << error_of(st);
    const JsonValue* state = st.find("status");
    ASSERT_TRUE(state && state->is_string());

    // result with wait=true blocks until terminal.
    const JsonValue res = call(make_result_frame(id, /*wait=*/true));
    ASSERT_TRUE(ok_of(res)) << error_of(res);
    const JsonValue* status = res.find("status");
    ASSERT_TRUE(status && status->is_string());
    EXPECT_EQ(status->as_string(), "done");
}

TEST_F(ServiceE2E, SequentialRequestsShareOneConnection) {
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(socket_path_, error)) << error;
    JsonValue resp;
    ASSERT_TRUE(client.call(make_stats_frame(), resp, error)) << error;
    EXPECT_TRUE(ok_of(resp));
    ASSERT_TRUE(client.call(make_status_frame(12345), resp, error))
        << error;
    EXPECT_FALSE(ok_of(resp));
    EXPECT_EQ(error_of(resp), "unknown job id 12345");
    ASSERT_TRUE(client.call(make_stats_frame(), resp, error)) << error;
    EXPECT_TRUE(ok_of(resp));  // the connection survived the error
}

TEST_F(ServiceE2E, WireErrorsAreNamed) {
    JsonValue resp = call("{\"op\":");
    EXPECT_FALSE(ok_of(resp));
    EXPECT_EQ(error_of(resp).rfind("malformed JSON: ", 0), 0u)
        << error_of(resp);

    resp = call("{\"op\":\"submit\",\"spec\":\"x\",\"config\":"
                "{\"frobnicate\":1}}");
    EXPECT_FALSE(ok_of(resp));
    EXPECT_EQ(error_of(resp), "unknown field \"config.frobnicate\"");

    // A spec that fails the spec parser reports through with the named
    // line.
    resp = call("{\"op\":\"submit\",\"spec\":\"not a core line\"}");
    EXPECT_FALSE(ok_of(resp));
    EXPECT_EQ(error_of(resp).rfind("spec: ", 0), 0u) << error_of(resp);

    resp = call(make_result_frame(424242, false));
    EXPECT_FALSE(ok_of(resp));
    EXPECT_EQ(error_of(resp), "unknown job id 424242");
}

TEST_F(ServiceE2E, OversizedFrameGetsANamedErrorThenTheConnectionDrops) {
    // A dedicated server with a tiny frame budget.
    const std::string path =
        format("/tmp/sunfloor_e2e_small_%d.sock",
               static_cast<int>(::getpid()));
    ServerOptions opts;
    opts.listen = path;
    opts.engine.workers = 1;
    opts.max_frame_bytes = 256;
    Server server(opts);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(path, error)) << error;
    JsonValue resp;
    const std::string big(1024, 'x');
    ASSERT_TRUE(
        client.call("{\"op\":\"stats\",\"pad\":\"" + big + "\"}", resp,
                    error))
        << error;
    EXPECT_FALSE(ok_of(resp));
    EXPECT_NE(error_of(resp).find("frame exceeds 256 bytes"),
              std::string::npos)
        << error_of(resp);
    // Framing is unrecoverable: the server dropped the connection.
    EXPECT_FALSE(client.call(make_stats_frame(), resp, error));
    std::remove(path.c_str());
}

TEST_F(ServiceE2E, StatsReflectServedJobs) {
    call(make_submit_frame(fast_submit(e2e_spec(), /*wait=*/true)));
    const JsonValue resp = call(make_stats_frame());
    ASSERT_TRUE(ok_of(resp)) << error_of(resp);
    const JsonValue* stats = resp.find("stats");
    ASSERT_TRUE(stats && stats->is_object());
    const JsonValue* submitted = stats->find("submitted");
    ASSERT_TRUE(submitted && submitted->is_integer());
    EXPECT_GE(submitted->as_int64(), 1);
    const JsonValue* completed = stats->find("completed");
    ASSERT_TRUE(completed && completed->is_integer());
    EXPECT_GE(completed->as_int64(), 1);
    const JsonValue* workers = stats->find("workers");
    ASSERT_TRUE(workers && workers->is_integer());
    EXPECT_EQ(workers->as_int64(), 2);
}

TEST_F(ServiceE2E, ShutdownOpDrainsInFlightJobsBeforeWaitReturns) {
    // Queue work asynchronously, then shut down: the accepted job must
    // finish (never be lost) even though the submission raced the drain.
    const JsonValue sub =
        call(make_submit_frame(fast_submit(e2e_spec(7), /*wait=*/false)));
    ASSERT_TRUE(ok_of(sub)) << error_of(sub);

    const JsonValue down = call(make_shutdown_frame());
    ASSERT_TRUE(ok_of(down)) << error_of(down);
    const JsonValue* status = down.find("status");
    ASSERT_TRUE(status && status->is_string());
    EXPECT_EQ(status->as_string(), "draining");

    server_->wait();
    const EngineStats st = server_->engine().stats();
    EXPECT_EQ(st.queued, 0);
    EXPECT_EQ(st.running, 0);
    EXPECT_EQ(st.completed + st.failed, st.submitted);
    EXPECT_EQ(st.failed, 0);

    // The listening socket is gone: new connections fail.
    Client late;
    std::string error;
    EXPECT_FALSE(late.connect(socket_path_, error));
}

// ------------------------------------------------- the shared accept loop

/// A daemon with one connection handler on a fresh unix socket path.
struct OneHandlerServer {
    std::string path;
    std::unique_ptr<Server> server;

    explicit OneHandlerServer(const char* tag)
        : path(format("/tmp/sunfloor_e2e_%s_%d.sock", tag,
                      static_cast<int>(::getpid()))) {
        ServerOptions opts;
        opts.listen = path;
        opts.engine.workers = 1;
        opts.conn_threads = 1;
        server = std::make_unique<Server>(opts);
        std::string error;
        EXPECT_TRUE(server->start(error)) << error;
    }
    ~OneHandlerServer() {
        server.reset();
        std::remove(path.c_str());
    }
};

/// A unix stream socket whose reads give up after 10 s, so a reply that
/// never comes fails the test instead of hanging it.
int client_socket() {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0) << std::strerror(errno);
    timeval tv{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return fd;
}

/// Connect an existing socket: unlike dialing, this needs no descriptor.
bool connect_unix(int fd, const std::string& path) {
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    std::strncpy(sun.sun_path, path.c_str(), sizeof(sun.sun_path) - 1);
    return ::connect(fd, reinterpret_cast<sockaddr*>(&sun), sizeof(sun)) ==
           0;
}

int dial_unix(const std::string& path) {
    const int fd = client_socket();
    EXPECT_TRUE(connect_unix(fd, path)) << std::strerror(errno);
    return fd;
}

/// One request line and the response line ("" when none came).
std::string round_trip(int fd, const std::string& frame) {
    std::string buf, line, err;
    if (!write_all(fd, frame + "\n")) return "";
    return read_line(fd, buf, line, 0, err) == 1 ? line : "";
}

bool is_ok_line(const std::string& line) {
    return line.rfind("{\"ok\":true", 0) == 0;
}

TEST(ServiceAccept, FullHandOffAnswersBusyAndServesTheHeldConnections) {
    OneHandlerServer s("busy");
    // The only handler serves this connection while it stays open ...
    const int held = dial_unix(s.path);
    ASSERT_TRUE(is_ok_line(round_trip(held, make_stats_frame())));
    // ... so these fill the hand-off, and the next one is refused.
    std::vector<int> queued;
    for (std::size_t i = 0; i < kMaxPendingConns; ++i)
        queued.push_back(dial_unix(s.path));
    const int refused = dial_unix(s.path);
    std::string buf, line, err;
    ASSERT_EQ(read_line(refused, buf, line, 0, err), 1) << err;
    EXPECT_EQ(line,
              "{\"ok\":false,\"rejected\":\"busy\","
              "\"error\":\"too many pending connections\"}");
    EXPECT_EQ(read_line(refused, buf, line, 0, err), 0);  // then EOF
    close_fd(refused);
    close_fd(held);
    // Every held connection is still served, in turn.
    for (const int fd : queued) {
        EXPECT_TRUE(is_ok_line(round_trip(fd, make_stats_frame())));
        close_fd(fd);
    }
}

/// CPU time of the whole process (every thread), in seconds.
double process_cpu_s() {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Caps RLIMIT_NOFILE at the lowest free descriptor, so the next one the
/// process asks for fails with EMFILE. The destructor restores the limit
/// on every way out of a test.
class DescriptorCap {
  public:
    DescriptorCap() { ::getrlimit(RLIMIT_NOFILE, &saved_); }
    ~DescriptorCap() { restore(); }

    /// `probe` is any open descriptor.
    bool cap(int probe) {
        const int lowest = ::fcntl(probe, F_DUPFD, 0);
        if (lowest < 0) return false;
        close_fd(lowest);
        rlimit capped = saved_;
        capped.rlim_cur = static_cast<rlim_t>(lowest);
        return ::setrlimit(RLIMIT_NOFILE, &capped) == 0;
    }
    void restore() { ::setrlimit(RLIMIT_NOFILE, &saved_); }

  private:
    rlimit saved_{};
};

TEST(ServiceAccept, OutOfDescriptorsBacksOffThenServesTheWaitingConnection) {
    OneHandlerServer s("emfile");
    // Both clients exist before the cap: connecting takes no descriptor,
    // so only the server's accept() runs out.
    const int waiting = client_socket();
    const int late = client_socket();
    DescriptorCap limit;
    ASSERT_TRUE(limit.cap(late));
    ASSERT_TRUE(connect_unix(waiting, s.path)) << std::strerror(errno);
    const double cpu0 = process_cpu_s();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const double busy_s = process_cpu_s() - cpu0;
    limit.restore();
    EXPECT_LT(busy_s, 0.1) << "the accept loop spun at the descriptor limit";
    // With descriptors back, the waiting connection is served.
    EXPECT_TRUE(is_ok_line(round_trip(waiting, make_stats_frame())));
    close_fd(waiting);

    // A shutdown that comes during the backoff still ends wait() at once.
    ASSERT_TRUE(limit.cap(late));
    ASSERT_TRUE(connect_unix(late, s.path)) << std::strerror(errno);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    const auto t0 = std::chrono::steady_clock::now();
    s.server->request_shutdown();
    s.server->wait();
    const std::chrono::duration<double> waited =
        std::chrono::steady_clock::now() - t0;
    limit.restore();
    close_fd(late);
    EXPECT_LT(waited.count(), 1.0);
}

}  // namespace
}  // namespace sunfloor::service
