// Distributed exploration: byte-identity of sharded runs against the
// single-process explorer over {inproc, socket} transports x {1, 2, 4}
// workers x {analytic, sim} backends x {cold, warm} CAS, slicings that
// split duplicate keys, slice boundaries, the wire codec, binary framing
// on real sockets (fragmented delivery, untrusted lengths, EOF and
// timeouts mid-payload, the busy reply) and fault tolerance (retry,
// worker retirement, typed failures).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sunfloor/cas/bincode.h"
#include "sunfloor/dist/coordinator.h"
#include "sunfloor/dist/protocol.h"
#include "sunfloor/dist/shard.h"
#include "sunfloor/explore/export.h"
#include "sunfloor/obs/metrics.h"
#include "sunfloor/service/accept_loop.h"
#include "sunfloor/service/transport.h"
#include "sunfloor/spec/benchmarks.h"

namespace sunfloor {
namespace {

struct TempDir {
    std::string path;
    TempDir() {
        char buf[] = "/tmp/sunfloor_dist_XXXXXX";
        const char* p = ::mkdtemp(buf);
        EXPECT_NE(p, nullptr);
        if (p) path = p;
    }
    ~TempDir() {
        if (!path.empty()) std::system(("rm -rf " + path).c_str());
    }
};

SynthesisConfig fast_cfg() {
    SynthesisConfig cfg;
    cfg.run_floorplan = false;
    cfg.max_switches = 5;
    return cfg;
}

ParamGrid analytic_grid() {
    ParamGrid grid;
    grid.set_axis(ParamAxis::frequencies_hz({350e6, 450e6}));
    grid.set_axis(ParamAxis::max_tsvs({15, 25}));
    grid.set_axis(ParamAxis::thetas({4.0}));
    return grid;
}

ParamGrid sim_grid() {
    ParamGrid grid;
    grid.set_axis(ParamAxis::max_tsvs({15, 25}));
    grid.set_axis(ParamAxis::thetas({4.0}));
    return grid;
}

ExploreOptions backend_opts(EvalBackend backend) {
    ExploreOptions opts;
    opts.num_threads = 2;
    opts.backend = backend;
    if (backend == EvalBackend::Simulated) {
        opts.sim.warmup_cycles = 200;
        opts.sim.measure_cycles = 1500;
        opts.sim.inject.packet_length_flits = 2;
    }
    return opts;
}

std::string csv_of(const ExploreResult& r) {
    std::ostringstream os;
    explore_table(r).write_csv(os);
    return os.str();
}

/// The JSON export minus the lines that legitimately differ between a
/// single-process run and a merged distributed run: wall-clock timing and
/// the per-stage hit/miss/compute lines (shard sessions are colder than
/// one shared session; the *results* must still match bit for bit).
std::string normalized_json(const ExploreResult& r, const std::string& name) {
    std::ostringstream os;
    write_explore_json(os, r, name);
    std::istringstream is(os.str());
    std::string line, out;
    while (std::getline(is, line)) {
        if (line.find("compute_ms") != std::string::npos ||
            line.find("elapsed_ms") != std::string::npos)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

long long counter(const char* name) {
    return obs::Registry::global().counter(name).value();
}

/// Overwrite the little-endian u32 at byte `at` of a payload.
void patch_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
    cas::Enc e;
    e.u32(v);
    bytes.replace(at, 4, e.take());
}

/// A one-point D_36_4 request, small enough to build in every test.
dist::ShardRequest small_request() {
    dist::ShardRequest req;
    req.spec = make_benchmark("D_36_4");
    req.base_cfg = fast_cfg();
    req.opts = backend_opts(EvalBackend::Analytic);
    req.points = ParamGrid().enumerate();
    return req;
}

/// A response whose design blob holds a newline, a NUL and a 0xff byte.
dist::ShardResponse small_response() {
    dist::ShardResponse resp;
    resp.points.resize(1);
    resp.points[0].phase_used = "phase1";
    resp.points[0].designs.push_back(std::string("a\n\0\xff", 4));
    resp.stage.partition = {3, 2, 1.5};
    return resp;
}

/// A connected AF_UNIX stream pair.
struct SocketPair {
    int fd[2] = {-1, -1};
    SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
    ~SocketPair() {
        service::close_fd(fd[0]);
        service::close_fd(fd[1]);
    }
};

/// Throws a Transport DistError for the first `fail_first` run() calls,
/// then behaves like an inproc worker.
class FlakyTransport : public dist::ShardTransport {
  public:
    explicit FlakyTransport(int fail_first) : fails_left_(fail_first) {}

    dist::ShardResponse run(const dist::ShardRequest& req) override {
        if (fails_left_ > 0) {
            --fails_left_;
            throw dist::DistError(dist::DistErrorKind::Transport,
                                  "injected transport failure");
        }
        return inner_.run(req);
    }
    std::string describe() const override { return "flaky"; }

  private:
    int fails_left_;
    dist::InprocTransport inner_;
};

class AlwaysFailTransport : public dist::ShardTransport {
  public:
    dist::ShardResponse run(const dist::ShardRequest&) override {
        throw dist::DistError(dist::DistErrorKind::Transport,
                              "injected permanent failure");
    }
    std::string describe() const override { return "always-fail"; }
};

// ------------------------------------------------------ slice boundaries

TEST(DistBoundaries, ContiguousBalancedAndExhaustive) {
    const std::vector<std::size_t> b = dist::shard_boundaries(10, 3);
    ASSERT_EQ(b, (std::vector<std::size_t>{0, 4, 7, 10}));

    for (const std::size_t n : {0u, 1u, 2u, 5u, 16u, 17u, 100u}) {
        for (const int k : {-1, 0, 1, 2, 3, 7, 200}) {
            const std::vector<std::size_t> bounds =
                dist::shard_boundaries(n, k);
            ASSERT_GE(bounds.size(), 2u);
            EXPECT_EQ(bounds.front(), 0u);
            EXPECT_EQ(bounds.back(), n);
            std::size_t min_len = n + 1, max_len = 0;
            for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
                ASSERT_LE(bounds[s], bounds[s + 1]);
                const std::size_t len = bounds[s + 1] - bounds[s];
                min_len = std::min(min_len, len);
                max_len = std::max(max_len, len);
            }
            if (n > 0) {
                EXPECT_GE(min_len, 1u) << n << "/" << k;  // no empty slices
                EXPECT_LE(max_len - min_len, 1u);         // balanced
                // Never more slices than points, never more than asked.
                EXPECT_LE(bounds.size() - 1, n);
                if (k >= 1) {
                    EXPECT_LE(bounds.size() - 1,
                              static_cast<std::size_t>(k));
                }
            }
        }
    }
}

// ------------------------------------------------------------ wire codec

TEST(DistProtocol, ShardRequestRoundTripsCompletely) {
    dist::ShardRequest req;
    req.spec = make_benchmark("D_36_4");
    req.base_cfg = fast_cfg();
    req.base_cfg.eval.freq_hz = 123.456789e6;  // bit-exactness matters
    req.opts = backend_opts(EvalBackend::Simulated);
    req.points = analytic_grid().enumerate();
    req.cas_dir = "/some/cas/dir";
    req.run_id = 0xfedcba9876543210ULL;

    const std::string payload = dist::encode_shard_request(req);
    dist::ShardRequest out;
    std::string err;
    ASSERT_TRUE(dist::decode_shard_request(payload, out, err)) << err;
    EXPECT_EQ(out.spec.name, req.spec.name);
    EXPECT_EQ(out.spec.cores.num_cores(), req.spec.cores.num_cores());
    ASSERT_EQ(out.points.size(), req.points.size());
    for (std::size_t i = 0; i < out.points.size(); ++i)
        EXPECT_EQ(out.points[i].key(), req.points[i].key());
    EXPECT_EQ(out.cas_dir, req.cas_dir);
    EXPECT_EQ(out.run_id, req.run_id);
    EXPECT_EQ(out.opts.backend, req.opts.backend);
    EXPECT_EQ(out.opts.sim.measure_cycles, req.opts.sim.measure_cycles);
    const double fa = out.base_cfg.eval.freq_hz;
    const double fb = req.base_cfg.eval.freq_hz;
    EXPECT_EQ(std::memcmp(&fa, &fb, sizeof(double)), 0);
    // Re-encoding the decoded request reproduces the payload byte for
    // byte — the same fixed-point property the CAS codec holds.
    EXPECT_EQ(dist::encode_shard_request(out), payload);

    // A version-1 payload (before the point-cache option bytes were
    // dropped) is a clean decode error, not a misread of shifted fields.
    std::string v1 = payload;
    patch_u32(v1, 0, 1);
    EXPECT_FALSE(dist::decode_shard_request(v1, out, err));
    EXPECT_NE(err.find("bad version"), std::string::npos) << err;
    // Truncations too.
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{3}, payload.size() / 2,
          payload.size() - 1})
        EXPECT_FALSE(
            dist::decode_shard_request(payload.substr(0, cut), out, err));

    // An inflated point count fails in the point loop, never on an
    // allocation sized by the untrusted count. With no points encoded the
    // count sits just before the cas_dir string.
    dist::ShardRequest no_points = req;
    no_points.points.clear();
    std::string inflated = dist::encode_shard_request(no_points);
    patch_u32(inflated, inflated.size() - (4 + req.cas_dir.size()) - 4,
              0xFFFFFFFFu);
    EXPECT_FALSE(dist::decode_shard_request(inflated, out, err));
    EXPECT_NE(err.find("grid point"), std::string::npos) << err;
}

TEST(DistProtocol, ShardResponseRejectsVersionOneAndInflatedCounts) {
    // An empty response: version, tag, the point count and five
    // stage-counter triples.
    dist::ShardResponse resp;
    resp.stage.partition = {3, 2, 1.5};
    const std::string payload = dist::encode_shard_response(resp);
    ASSERT_EQ(payload.size(), 129u);
    dist::ShardResponse out;
    std::string err;
    ASSERT_TRUE(dist::decode_shard_response(payload, out, err)) << err;
    EXPECT_EQ(out.stage.partition.hits, 3);

    std::string v1 = payload;
    patch_u32(v1, 0, 1);
    EXPECT_FALSE(dist::decode_shard_response(v1, out, err));
    EXPECT_NE(err.find("bad version"), std::string::npos) << err;
    // The point count, after the 5-byte header.
    std::string inflated = payload;
    patch_u32(inflated, 5, 0xFFFFFFFFu);
    EXPECT_FALSE(dist::decode_shard_response(inflated, out, err));
}

TEST(DistProtocol, FramesParseBothDirections) {
    // No shipped coordinator pings; the worker answers the op anyway.
    const std::string ping = "{\"op\":\"ping\"}\n";
    std::string err;
    dist::WorkerRequest wreq;
    ASSERT_TRUE(dist::parse_worker_frame(ping, wreq, err)) << err;
    EXPECT_EQ(wreq.op, dist::WorkerRequest::Op::Ping);

    // A shard_run frame is its header line, then the raw payload.
    const dist::ShardRequest req = small_request();
    const std::string q = dist::encode_shard_request(req);
    const std::string run = dist::make_shard_run_frame(req);
    EXPECT_EQ(run, "{\"op\":\"shard_run\",\"bytes\":" +
                       std::to_string(q.size()) + "}\n" + q);
    ASSERT_TRUE(dist::parse_worker_frame(run, wreq, err)) << err;
    EXPECT_EQ(wreq.op, dist::WorkerRequest::Op::ShardRun);
    EXPECT_EQ(dist::encode_shard_request(wreq.run), q);

    // Payload bytes travel as they are, newlines and NULs included.
    const dist::ShardResponse resp = small_response();
    const std::string s = dist::encode_shard_response(resp);
    const std::string ok = dist::make_ok_frame(resp);
    EXPECT_EQ(ok, "{\"ok\":true,\"bytes\":" + std::to_string(s.size()) +
                      "}\n" + s);
    std::string payload;
    ASSERT_TRUE(dist::parse_response_frame(ok, payload, err)) << err;
    EXPECT_EQ(payload, s);

    EXPECT_EQ(dist::make_pong_frame(), "{\"ok\":true}\n");
    ASSERT_TRUE(
        dist::parse_response_frame(dist::make_pong_frame(), payload, err));
    EXPECT_TRUE(payload.empty());

    // The message's newline is escaped: the error stays one header line.
    const std::string error_frame =
        dist::make_error_frame("worker exploded\nbadly");
    EXPECT_EQ(error_frame.find('\n'), error_frame.size() - 1);
    EXPECT_FALSE(dist::parse_response_frame(error_frame, payload, err));
    EXPECT_EQ(err, "worker exploded\nbadly");

    EXPECT_FALSE(dist::parse_worker_frame("not json\n", wreq, err));
    EXPECT_FALSE(dist::parse_response_frame("not json\n", payload, err));
    // A header line needs its terminator.
    EXPECT_FALSE(dist::parse_worker_frame("{\"op\":\"ping\"}", wreq, err));
    EXPECT_NE(err.find("no header line"), std::string::npos) << err;
    EXPECT_FALSE(dist::parse_response_frame("{\"ok\":true}", payload, err));
}

TEST(DistProtocol, WireVersionTwoFramesAndPayloadsAreRejectedByName) {
    EXPECT_EQ(dist::kWireVersion, 9u);
    // Version 2 carried the payload hex-encoded inside the JSON line.
    std::string err;
    dist::WorkerRequest wreq;
    EXPECT_FALSE(dist::parse_worker_frame(
        "{\"op\":\"shard_run\",\"payload\":\"0200000051\"}\n", wreq, err));
    EXPECT_NE(err.find("wire version 2"), std::string::npos) << err;
    std::string payload;
    EXPECT_FALSE(dist::parse_response_frame(
        "{\"ok\":true,\"payload\":\"0200000053\"}\n", payload, err));
    EXPECT_NE(err.find("wire version 2"), std::string::npos) << err;

    // A version-2 payload inside a well-formed frame fails its decode.
    std::string q = dist::encode_shard_request(small_request());
    patch_u32(q, 0, 2);
    EXPECT_FALSE(dist::parse_worker_frame(
        "{\"op\":\"shard_run\",\"bytes\":" + std::to_string(q.size()) +
            "}\n" + q,
        wreq, err));
    EXPECT_NE(err.find("bad version"), std::string::npos) << err;
    std::string s = dist::encode_shard_response(small_response());
    patch_u32(s, 0, 2);
    ASSERT_TRUE(dist::parse_response_frame(
        "{\"ok\":true,\"bytes\":" + std::to_string(s.size()) + "}\n" + s,
        payload, err))
        << err;
    dist::ShardResponse out;
    EXPECT_FALSE(dist::decode_shard_response(payload, out, err));
    EXPECT_NE(err.find("bad version"), std::string::npos) << err;

    // Version 3 shipped the slice's Pareto front after the points (a
    // count, then point and design indices): such a payload fails by its
    // version, never as a misread front.
    const std::string current =
        dist::encode_shard_response(dist::ShardResponse{});
    cas::Enc front;
    front.u32(1);
    front.i32(0);
    front.i32(0);
    std::string v3 = current.substr(0, 9) + front.take() + current.substr(9);
    patch_u32(v3, 0, 3);
    EXPECT_FALSE(dist::decode_shard_response(v3, out, err));
    EXPECT_NE(err.find("bad version"), std::string::npos) << err;

    // Version 4 requests carried seven synthesis settings that are now
    // constants, and the store bound: such a payload fails by its
    // version, never as a misread config.
    std::string q4 = dist::encode_shard_request(small_request());
    patch_u32(q4, 0, 4);
    dist::ShardRequest req_out;
    EXPECT_FALSE(dist::decode_shard_request(q4, req_out, err));
    EXPECT_NE(err.find("bad version"), std::string::npos) << err;

    // Version 6 requests carried the evaluation model as 24 values, its
    // calibration constants beside the frequency and the link width: such
    // a payload fails by its version, never as a misread config.
    std::string q6 = dist::encode_shard_request(small_request());
    patch_u32(q6, 0, 6);
    EXPECT_FALSE(dist::decode_shard_request(q6, req_out, err));
    EXPECT_NE(err.find("bad version"), std::string::npos) << err;

    // Version 7 requests carried the partitioner's options (9 bytes) and
    // the simulator's drain bound (8), both now constants: such a payload
    // fails by its version, never as a misread config.
    std::string q7 = dist::encode_shard_request(small_request());
    patch_u32(q7, 0, 7);
    EXPECT_FALSE(dist::decode_shard_request(q7, req_out, err));
    EXPECT_NE(err.find("bad version"), std::string::npos) << err;

    // Version 8 requests had no run id after the version and tag: such a
    // payload fails by its version, never as a spec misread 8 bytes off.
    dist::ShardRequest with_id = small_request();
    with_id.run_id = 0x0123456789abcdefULL;
    std::string q8 = dist::encode_shard_request(with_id);
    q8.erase(5, 8);
    patch_u32(q8, 0, 8);
    EXPECT_FALSE(dist::decode_shard_request(q8, req_out, err));
    EXPECT_NE(err.find("bad version"), std::string::npos) << err;
    // Version 8 responses had this version's layout; the version alone
    // rejects them.
    std::string s8 = dist::encode_shard_response(small_response());
    patch_u32(s8, 0, 8);
    EXPECT_FALSE(dist::decode_shard_response(s8, out, err));
    EXPECT_NE(err.find("bad version"), std::string::npos) << err;
}

TEST(DistProtocol, AnnouncedLengthMustBeACountMatchingThePayload) {
    const std::string q = dist::encode_shard_request(small_request());
    const std::string s = dist::encode_shard_response(small_response());
    const std::vector<std::string> not_counts = {
        "-1",   "-0.5", "1.5", "1e3", "\"12\"", "true",
        "null", "99999999999999999999"};  // the last: not a 64-bit integer
    std::string err;
    dist::WorkerRequest wreq;
    std::string payload;
    for (const std::string& n : not_counts) {
        EXPECT_FALSE(dist::parse_worker_frame(
            "{\"op\":\"shard_run\",\"bytes\":" + n + "}\n" + q, wreq, err))
            << n;
        EXPECT_NE(err.find("non-negative integer"), std::string::npos)
            << err;
        EXPECT_FALSE(dist::parse_response_frame(
            "{\"ok\":true,\"bytes\":" + n + "}\n" + s, payload, err))
            << n;
    }
    // Counts off by one either way, and 0, against the payload present.
    for (const std::size_t d : {q.size() + 1, q.size() - 1, std::size_t{0}}) {
        EXPECT_FALSE(dist::parse_worker_frame(
            "{\"op\":\"shard_run\",\"bytes\":" + std::to_string(d) +
                "}\n" + q,
            wreq, err))
            << d;
        EXPECT_NE(err.find("announces"), std::string::npos) << err;
    }
    for (const std::size_t d : {s.size() + 1, s.size() - 1, std::size_t{0}})
        EXPECT_FALSE(dist::parse_response_frame(
            "{\"ok\":true,\"bytes\":" + std::to_string(d) + "}\n" + s,
            payload, err))
            << d;
    // Bytes after a header-only line, and a shard_run without a count.
    EXPECT_FALSE(dist::parse_worker_frame("{\"op\":\"ping\"}\nx", wreq, err));
    EXPECT_FALSE(dist::parse_response_frame("{\"ok\":true}\nx", payload, err));
    EXPECT_FALSE(
        dist::parse_worker_frame("{\"op\":\"shard_run\"}\n", wreq, err));
    EXPECT_NE(err.find("no bytes"), std::string::npos) << err;

    // The readers' view of a header: a count, 0 for a header-only line,
    // an error for a count that is not one.
    std::size_t n = 7;
    ASSERT_TRUE(dist::frame_payload_size("{\"ok\":true,\"bytes\":12}", n,
                                         err));
    EXPECT_EQ(n, 12u);
    ASSERT_TRUE(dist::frame_payload_size("{\"op\":\"ping\"}", n, err));
    EXPECT_EQ(n, 0u);
    ASSERT_TRUE(dist::frame_payload_size("not json", n, err));
    EXPECT_EQ(n, 0u);
    for (const char* header :
         {"{\"bytes\":-1}", "{\"bytes\":1.5}", "{\"bytes\":\"3\"}"}) {
        EXPECT_FALSE(dist::frame_payload_size(header, n, err)) << header;
        EXPECT_NE(err.find("non-negative integer"), std::string::npos)
            << err;
    }
}

// ------------------------------------------------- byte-identity property

void run_identity_matrix(EvalBackend backend, const ParamGrid& grid) {
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    const ExploreOptions opts = backend_opts(backend);
    const std::vector<GridPoint> points = grid.enumerate();

    const ExploreResult ref = Explorer(spec, cfg, opts).run(grid);
    const std::string ref_csv = csv_of(ref);
    const std::string ref_json = normalized_json(ref, spec.name);

    // One socket worker serves every socket transport below (transports
    // dial per job, so N coordinator-side transports against one server is
    // N workers' worth of concurrency).
    TempDir sock_dir;
    dist::WorkerOptions wopts;
    wopts.listen = sock_dir.path + "/worker.sock";
    wopts.conn_threads = 4;
    dist::WorkerServer server(wopts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    for (const int workers : {1, 2, 4}) {
        for (const bool socket : {false, true}) {
            TempDir cas_dir;
            std::vector<std::shared_ptr<dist::ShardTransport>> transports;
            for (int w = 0; w < workers; ++w) {
                if (socket)
                    transports.push_back(
                        std::make_shared<dist::SocketTransport>(
                            wopts.listen));
                else
                    transports.push_back(
                        std::make_shared<dist::InprocTransport>());
            }
            dist::DistOptions dopts;
            dopts.shards = 3;
            dopts.cas_dir = cas_dir.path;

            const std::string label =
                std::string(socket ? "socket" : "inproc") + " x " +
                std::to_string(workers);

            // Cold store.
            const ExploreResult cold = dist::distribute_explore(
                spec, cfg, opts, points, transports, dopts);
            EXPECT_EQ(csv_of(cold), ref_csv) << label << " cold";
            EXPECT_EQ(normalized_json(cold, spec.name), ref_json)
                << label << " cold";

            // Warm store: same directory, every artifact already spilled.
            const long long hits = counter("cas.hits");
            const ExploreResult warm = dist::distribute_explore(
                spec, cfg, opts, points, transports, dopts);
            EXPECT_EQ(csv_of(warm), ref_csv) << label << " warm";
            EXPECT_EQ(normalized_json(warm, spec.name), ref_json)
                << label << " warm";
            EXPECT_GT(counter("cas.hits"), hits) << label << " warm";
        }
    }

    // And entirely without a store.
    std::vector<std::shared_ptr<dist::ShardTransport>> transports = {
        std::make_shared<dist::InprocTransport>(),
        std::make_shared<dist::InprocTransport>(),
    };
    dist::DistOptions dopts;
    dopts.shards = 3;
    const ExploreResult plain =
        dist::distribute_explore(spec, cfg, opts, points, transports, dopts);
    EXPECT_EQ(csv_of(plain), ref_csv);
    EXPECT_EQ(normalized_json(plain, spec.name), ref_json);

    server.request_shutdown();
    server.wait();
}

TEST(Dist, ShardedAnalyticExploreIsByteIdenticalToSingleProcess) {
    run_identity_matrix(EvalBackend::Analytic, analytic_grid());
}

TEST(Dist, ShardedSimulatedExploreIsByteIdenticalToSingleProcess) {
    run_identity_matrix(EvalBackend::Simulated, sim_grid());
}

TEST(Dist, MoreShardsThanPointsAndOddCountsStayExact) {
    // Duplicate axis values on purpose: 3 and 6 shards put the two copies
    // of a key in different slices, where a front or stats assembled per
    // slice would count the copies twice. 7 shards is more than the 6
    // points.
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    ParamGrid grid;
    grid.set_axis(ParamAxis::frequencies_hz({350e6, 450e6}));
    grid.set_axis(ParamAxis::max_tsvs({25, 25, 15}));
    grid.set_axis(ParamAxis::thetas({4.0}));

    std::vector<std::shared_ptr<dist::ShardTransport>> transports = {
        std::make_shared<dist::InprocTransport>(),
        std::make_shared<dist::InprocTransport>(),
    };
    for (const EvalBackend backend :
         {EvalBackend::Analytic, EvalBackend::Simulated}) {
        const ExploreOptions opts = backend_opts(backend);
        const ExploreResult ref = Explorer(spec, cfg, opts).run(grid);
        ASSERT_GT(ref.pareto.size(), 0u);
        for (const int shards : {3, 6, 7}) {
            dist::DistOptions dopts;
            dopts.shards = shards;
            const ExploreResult got = dist::distribute_explore(
                spec, cfg, opts, grid.enumerate(), transports, dopts);
            const std::string label = std::string(backend_to_string(backend)) +
                                      " shards=" + std::to_string(shards);
            EXPECT_EQ(csv_of(got), csv_of(ref)) << label;
            EXPECT_EQ(normalized_json(got, spec.name),
                      normalized_json(ref, spec.name))
                << label;
        }
    }
}

TEST(Dist, EmptyPointListYieldsAnEmptyResult) {
    const DesignSpec spec = make_benchmark("D_36_4");
    std::vector<std::shared_ptr<dist::ShardTransport>> transports = {
        std::make_shared<dist::InprocTransport>()};
    const ExploreResult got = dist::distribute_explore(
        spec, fast_cfg(), backend_opts(EvalBackend::Analytic), {},
        transports, dist::DistOptions{});
    EXPECT_TRUE(got.points.empty());
    EXPECT_TRUE(got.pareto.empty());
    EXPECT_EQ(got.stats.total_points, 0);
}

// ------------------------------------------------- per-run session pool

/// The grid of `sunfloor_cli explore --benchmark D_36_4 --freq 350,450
/// --max-tsvs 15,25 --no-floorplan`.
ParamGrid cli_grid() {
    ParamGrid grid;
    grid.set_axis(ParamAxis::frequencies_hz({350e6, 450e6}));
    grid.set_axis(ParamAxis::max_tsvs({15, 25}));
    return grid;
}

/// Every stage's hits and misses in the global registry, which the
/// worker sessions' counters feed (compute_ms left 0).
pipeline::SessionStats global_stage_counts() {
    pipeline::SessionStats s;
    const auto at = [](pipeline::StageCounters& c, const std::string& name) {
        c.hits = counter(("pipeline." + name + ".hits").c_str());
        c.misses = counter(("pipeline." + name + ".misses").c_str());
    };
    at(s.partition, "partition");
    at(s.routing, "routing");
    at(s.placement, "placement");
    at(s.position_lp, "position_lp");
    at(s.evaluation, "evaluation");
    return s;
}

void expect_same_counts(const pipeline::SessionStats& a,
                        const pipeline::SessionStats& b,
                        const std::string& label) {
    const auto same = [&](const pipeline::StageCounters& x,
                          const pipeline::StageCounters& y,
                          const char* stage) {
        EXPECT_EQ(x.hits, y.hits) << label << " " << stage << " hits";
        EXPECT_EQ(x.misses, y.misses) << label << " " << stage << " misses";
    };
    same(a.partition, b.partition, "partition");
    same(a.routing, b.routing, "routing");
    same(a.placement, b.placement, "placement");
    same(a.position_lp, b.position_lp, "position_lp");
    same(a.evaluation, b.evaluation, "evaluation");
}

double pooled_sessions() {
    return obs::Registry::global().gauge("dist.sessions.pooled").value();
}

TEST(DistSessions, OneWorkersShardsShareItsPartitionsAndLpSolutions) {
    // Four one-point jobs on one worker take turns on one session, which
    // keeps the partitions and position-LP solutions between them: each
    // is computed once, as in one explorer's session (a fresh session per
    // job recomputed them: 857 partitions against 523).
    const DesignSpec spec = make_benchmark("D_36_4");
    SynthesisConfig cfg;
    cfg.run_floorplan = false;
    const ExploreOptions opts;
    const ParamGrid grid = cli_grid();
    const ExploreResult ref = Explorer(spec, cfg, opts).run(grid);

    std::vector<std::shared_ptr<dist::ShardTransport>> transports = {
        std::make_shared<dist::InprocTransport>()};
    dist::DistOptions dopts;
    dopts.shards = 4;
    const long long started = counter("dist.sessions.started");
    const long long reused = counter("dist.sessions.reused");
    const ExploreResult got = dist::distribute_explore(
        spec, cfg, opts, grid.enumerate(), transports, dopts);
    EXPECT_EQ(csv_of(got), csv_of(ref));
    EXPECT_EQ(normalized_json(got, spec.name),
              normalized_json(ref, spec.name));
    EXPECT_EQ(got.stats.stage.partition.misses,
              ref.stats.stage.partition.misses);
    EXPECT_EQ(got.stats.stage.position_lp.misses,
              ref.stats.stage.position_lp.misses);
    EXPECT_EQ(counter("dist.sessions.started"), started + 1);
    EXPECT_EQ(counter("dist.sessions.reused"), reused + 3);
    EXPECT_GE(pooled_sessions(), 1.0);
}

TEST(DistSessions, ConsecutiveRunsReuseNothingAndThePoolStaysBounded) {
    // Every run starts cold: a later run never meets an earlier run's
    // session, so identical runs count identical misses. The pool keeps
    // the last run's session only.
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    const ExploreOptions opts = backend_opts(EvalBackend::Analytic);
    const std::vector<GridPoint> points = analytic_grid().enumerate();
    std::vector<std::shared_ptr<dist::ShardTransport>> transports = {
        std::make_shared<dist::InprocTransport>()};
    dist::DistOptions dopts;
    dopts.shards = 2;

    const ExploreResult first = dist::distribute_explore(
        spec, cfg, opts, points, transports, dopts);
    EXPECT_GT(first.stats.stage.partition.misses, 0);
    EXPECT_EQ(pooled_sessions(), 1.0);
    for (int run = 1; run < 4; ++run) {
        const long long started = counter("dist.sessions.started");
        const ExploreResult again = dist::distribute_explore(
            spec, cfg, opts, points, transports, dopts);
        EXPECT_EQ(csv_of(again), csv_of(first)) << "run " << run;
        expect_same_counts(again.stats.stage, first.stats.stage,
                           "run " + std::to_string(run));
        EXPECT_EQ(counter("dist.sessions.started"), started + 1)
            << "run " << run;
        EXPECT_EQ(pooled_sessions(), 1.0) << "run " << run;
    }
}

TEST(DistSessions, ConcurrentShardsOfOneRunNeverShareASessionAtOnce) {
    // Jobs of one run that run side by side each hold a session of their
    // own. Were one session lent to two jobs at once, each job's stage
    // delta would count the other's work too, and the deltas the
    // coordinator sums would exceed what the sessions counted.
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    const ExploreOptions opts = backend_opts(EvalBackend::Analytic);
    ParamGrid grid = analytic_grid();
    grid.set_axis(ParamAxis::thetas({2.0, 4.0}));
    const std::vector<GridPoint> points = grid.enumerate();
    ASSERT_EQ(points.size(), 8u);
    const ExploreResult ref = Explorer(spec, cfg, opts).run(grid);

    TempDir sock_dir;
    dist::WorkerOptions wopts;
    wopts.listen = sock_dir.path + "/worker.sock";
    wopts.conn_threads = 4;
    dist::WorkerServer server(wopts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    for (const bool socket : {false, true}) {
        const int workers = socket ? 4 : 2;
        std::vector<std::shared_ptr<dist::ShardTransport>> transports;
        for (int w = 0; w < workers; ++w) {
            if (socket)
                transports.push_back(
                    std::make_shared<dist::SocketTransport>(wopts.listen));
            else
                transports.push_back(
                    std::make_shared<dist::InprocTransport>());
        }
        dist::DistOptions dopts;
        dopts.shards = 8;
        const std::string label = socket ? "socket" : "inproc";

        const pipeline::SessionStats before = global_stage_counts();
        const long long started = counter("dist.sessions.started");
        const long long reused = counter("dist.sessions.reused");
        const ExploreResult got = dist::distribute_explore(
            spec, cfg, opts, points, transports, dopts);
        EXPECT_EQ(csv_of(got), csv_of(ref)) << label;
        EXPECT_EQ(normalized_json(got, spec.name),
                  normalized_json(ref, spec.name))
            << label;
        expect_same_counts(got.stats.stage,
                           global_stage_counts() - before, label);
        const long long new_started =
            counter("dist.sessions.started") - started;
        EXPECT_EQ(new_started + counter("dist.sessions.reused") - reused, 8)
            << label;
        EXPECT_GE(new_started, 1) << label;
        EXPECT_LE(new_started, workers) << label;
    }
    server.request_shutdown();
    server.wait();
}

// --------------------------------------------------------- fault handling

TEST(DistFaults, FlakyTransportIsRetriedToAnExactResult) {
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    const ExploreOptions opts = backend_opts(EvalBackend::Analytic);
    ParamGrid grid;
    grid.set_axis(ParamAxis::max_tsvs({15, 25}));
    grid.set_axis(ParamAxis::thetas({4.0}));
    const ExploreResult ref = Explorer(spec, cfg, opts).run(grid);

    // The only worker fails twice, then recovers: as the last live
    // worker it retries the job itself, and kMaxRetries covers both
    // failures.
    static_assert(dist::kMaxRetries >= 2);
    std::vector<std::shared_ptr<dist::ShardTransport>> transports = {
        std::make_shared<FlakyTransport>(2)};
    dist::DistOptions dopts;
    dopts.shards = 1;
    const long long retried = counter("dist.jobs.retried");
    const ExploreResult got = dist::distribute_explore(
        spec, cfg, opts, grid.enumerate(), transports, dopts);
    EXPECT_EQ(csv_of(got), csv_of(ref));
    EXPECT_EQ(counter("dist.jobs.retried"), retried + 2);
}

TEST(DistFaults, MixedHealthyAndDeadWorkersStillFinishExactly) {
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    const ExploreOptions opts = backend_opts(EvalBackend::Analytic);
    const ParamGrid grid = analytic_grid();
    const ExploreResult ref = Explorer(spec, cfg, opts).run(grid);

    std::vector<std::shared_ptr<dist::ShardTransport>> transports = {
        std::make_shared<AlwaysFailTransport>(),
        std::make_shared<dist::InprocTransport>(),
    };
    dist::DistOptions dopts;
    dopts.shards = 4;
    const ExploreResult got = dist::distribute_explore(
        spec, cfg, opts, grid.enumerate(), transports, dopts);
    EXPECT_EQ(csv_of(got), csv_of(ref));
}

TEST(DistFaults, OneDeadWorkerAmongHealthyOnesFinishesExactly) {
    // A dead worker that takes a job hands it to the healthy ones and
    // retires, wherever it sits in the worker list, instead of retrying
    // the job until its budget is gone.
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    const ExploreOptions opts = backend_opts(EvalBackend::Analytic);
    const ParamGrid grid = analytic_grid();
    const std::string ref = csv_of(Explorer(spec, cfg, opts).run(grid));
    dist::DistOptions dopts;
    dopts.shards = 4;
    for (const bool dead_first : {true, false}) {
        std::vector<std::shared_ptr<dist::ShardTransport>> transports = {
            std::make_shared<dist::InprocTransport>(),
            std::make_shared<dist::InprocTransport>(),
        };
        transports.insert(dead_first ? transports.begin() : transports.end(),
                          std::make_shared<AlwaysFailTransport>());
        const long long retired = counter("dist.workers.retired");
        const ExploreResult got = dist::distribute_explore(
            spec, cfg, opts, grid.enumerate(), transports, dopts);
        EXPECT_EQ(csv_of(got), ref) << "dead first " << dead_first;
        EXPECT_LE(counter("dist.workers.retired"), retired + 1)
            << "dead first " << dead_first;
    }
}

TEST(DistFaults, RetriesExceededThrowsTheLastErrorKind) {
    const DesignSpec spec = make_benchmark("D_36_4");
    ParamGrid grid;
    grid.set_axis(ParamAxis::thetas({4.0}));
    std::vector<std::shared_ptr<dist::ShardTransport>> transports = {
        std::make_shared<AlwaysFailTransport>()};
    const long long retried = counter("dist.jobs.retried");
    try {
        dist::distribute_explore(spec, fast_cfg(),
                                 backend_opts(EvalBackend::Analytic),
                                 grid.enumerate(), transports,
                                 dist::DistOptions{});
        FAIL() << "expected DistError";
    } catch (const dist::DistError& e) {
        EXPECT_EQ(e.kind(), dist::DistErrorKind::Transport);
        EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
    }
    // The lone worker is the last live one: it retried the job itself.
    EXPECT_EQ(counter("dist.jobs.retried"), retried + dist::kMaxRetries);
}

TEST(DistFaults, ConfigErrorsAreTyped) {
    const DesignSpec spec = make_benchmark("D_36_4");
    ParamGrid grid;
    grid.set_axis(ParamAxis::thetas({4.0}));
    const ExploreOptions opts = backend_opts(EvalBackend::Analytic);
    try {
        dist::distribute_explore(spec, fast_cfg(), opts, grid.enumerate(),
                                 {}, dist::DistOptions{});
        FAIL() << "expected DistError";
    } catch (const dist::DistError& e) {
        EXPECT_EQ(e.kind(), dist::DistErrorKind::Config);
    }
    std::vector<std::shared_ptr<dist::ShardTransport>> with_null = {nullptr};
    try {
        dist::distribute_explore(spec, fast_cfg(), opts, grid.enumerate(),
                                 with_null, dist::DistOptions{});
        FAIL() << "expected DistError";
    } catch (const dist::DistError& e) {
        EXPECT_EQ(e.kind(), dist::DistErrorKind::Config);
    }
}

TEST(DistFaults, ThetaSweepThatCannotAdvanceFailsTheShard) {
    // The sweep axis keeps the base config's theta_step, which a shard
    // frame carries verbatim: a step of 0 must fail the shard, not hang
    // its worker.
    dist::ShardRequest req;
    req.spec = make_benchmark("D_36_4");
    req.base_cfg = fast_cfg();
    req.base_cfg.theta_step = 0.0;
    req.opts = backend_opts(EvalBackend::Analytic);
    req.points = ParamGrid().enumerate();
    ASSERT_EQ(req.points.size(), 1u);
    dist::InprocTransport transport;
    try {
        transport.run(req);
        FAIL() << "expected DistError";
    } catch (const dist::DistError& e) {
        EXPECT_NE(std::string(e.what()).find("theta_step"),
                  std::string::npos)
            << e.what();
    }
}

TEST(DistFaults, HopCostInputOutOfRangeFailsTheShard) {
    // Shard frames decode a grid point's TSV budget without a range
    // check, and the point overwrites the base config's max_ill; the
    // session must reject a negative budget, and the shard fail with it.
    dist::ShardRequest req;
    req.spec = make_benchmark("D_36_4");
    req.base_cfg = fast_cfg();
    req.opts = backend_opts(EvalBackend::Analytic);
    req.points = ParamGrid().enumerate();
    ASSERT_EQ(req.points.size(), 1u);
    req.points[0].max_tsvs = std::numeric_limits<int>::min();
    dist::InprocTransport transport;
    try {
        transport.run(req);
        FAIL() << "expected DistError";
    } catch (const dist::DistError& e) {
        EXPECT_NE(std::string(e.what()).find("max_ill"), std::string::npos)
            << e.what();
    }
}

TEST(DistFaults, ZeroThetaFailsTheShard) {
    // Shard frames decode theta_min without a range check; theta 0 would
    // make the SPG's inter-layer weights infinite, so the session must
    // reject it and the shard fail with it.
    dist::ShardRequest req;
    req.spec = make_benchmark("D_36_4");
    req.base_cfg = fast_cfg();
    req.base_cfg.theta_min = 0.0;
    req.opts = backend_opts(EvalBackend::Analytic);
    req.points = ParamGrid().enumerate();
    dist::InprocTransport transport;
    try {
        transport.run(req);
        FAIL() << "expected DistError";
    } catch (const dist::DistError& e) {
        EXPECT_NE(std::string(e.what()).find("theta_min"), std::string::npos)
            << e.what();
    }
}

TEST(DistFaults, UnreachableSocketWorkerFailsAsTransport) {
    const DesignSpec spec = make_benchmark("D_36_4");
    ParamGrid grid;
    grid.set_axis(ParamAxis::thetas({4.0}));
    std::vector<std::shared_ptr<dist::ShardTransport>> transports = {
        std::make_shared<dist::SocketTransport>(
            "/nonexistent/sunfloor/worker.sock")};
    try {
        dist::distribute_explore(spec, fast_cfg(),
                                 backend_opts(EvalBackend::Analytic),
                                 grid.enumerate(), transports,
                                 dist::DistOptions{});
        FAIL() << "expected DistError";
    } catch (const dist::DistError& e) {
        EXPECT_EQ(e.kind(), dist::DistErrorKind::Transport);
    }
}

// ------------------------------------------------------- frames on sockets

/// A worker on a fresh unix socket with a small request-frame limit.
struct SmallWorker {
    TempDir dir;
    dist::WorkerOptions wopts;
    std::unique_ptr<dist::WorkerServer> server;

    explicit SmallWorker(long long max_frame_bytes, int conn_threads = 2) {
        wopts.listen = dir.path + "/worker.sock";
        wopts.max_frame_bytes = max_frame_bytes;
        wopts.conn_threads = conn_threads;
        server = std::make_unique<dist::WorkerServer>(wopts);
        std::string err;
        EXPECT_TRUE(server->start(err)) << err;
    }

    int dial() const {
        service::Address addr;
        std::string err;
        EXPECT_TRUE(service::parse_address(wopts.listen, addr, err)) << err;
        const int fd = service::dial(addr, err);
        EXPECT_GE(fd, 0) << err;
        return fd;
    }
};

/// Read one response frame and return parse_response_frame's error
/// ("" when it parsed).
std::string response_error(dist::FrameReader& reader) {
    std::string err;
    if (reader.next(err) != 1) return "no frame: " + err;
    std::string payload;
    return dist::parse_response_frame(reader.frame(), payload, err) ? ""
                                                                    : err;
}

TEST(DistFrames, ReaderAssemblesFramesFromOddPieces) {
    SocketPair sp;
    const std::string stream = dist::make_ok_frame(small_response()) +
                               dist::make_pong_frame() +
                               dist::make_error_frame("late");
    std::thread writer([&] {
        for (std::size_t at = 0; at < stream.size(); at += 7)
            if (!service::write_all(sp.fd[1], stream.substr(at, 7))) return;
        ::shutdown(sp.fd[1], SHUT_WR);
    });
    dist::FrameReader reader(sp.fd[0], 0);
    std::string err;
    std::vector<std::string> got;
    int r = 0;
    while ((r = reader.next(err)) == 1) got.push_back(reader.frame());
    writer.join();
    EXPECT_EQ(r, 0) << err;  // clean EOF after the last frame
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0], dist::make_ok_frame(small_response()));
    EXPECT_EQ(got[1], dist::make_pong_frame());
    EXPECT_EQ(got[2], dist::make_error_frame("late"));
}

TEST(DistFrames, EofMidPayloadIsConnectionClosedMidFrame) {
    {
        SocketPair sp;
        ASSERT_TRUE(service::write_all(
            sp.fd[1], "{\"ok\":true,\"bytes\":100}\n0123456789"));
        ::shutdown(sp.fd[1], SHUT_WR);
        dist::FrameReader reader(sp.fd[0], 0);
        std::string err;
        EXPECT_EQ(reader.next(err), -1);
        EXPECT_EQ(err, "connection closed mid-frame");
    }
    // The worker names it in an error frame before it hangs up.
    SmallWorker w(1024);
    const int fd = w.dial();
    ASSERT_TRUE(service::write_all(
        fd, "{\"op\":\"shard_run\",\"bytes\":100}\n0123456789"));
    ::shutdown(fd, SHUT_WR);
    dist::FrameReader reader(fd, 0);
    EXPECT_EQ(response_error(reader), "connection closed mid-frame");
    std::string err;
    EXPECT_EQ(reader.next(err), 0);
    service::close_fd(fd);
}

TEST(DistFrames, WorkerRejectsAnOversizedAnnouncementAndCloses) {
    SmallWorker w(1024);
    {
        // At the limit: read whole, rejected by the payload decode, and
        // the connection stays up for the next frame.
        const int fd = w.dial();
        ASSERT_TRUE(service::write_all(
            fd, "{\"op\":\"shard_run\",\"bytes\":1024}\n" +
                    std::string(1024, 'x')));
        dist::FrameReader reader(fd, 0);
        EXPECT_NE(response_error(reader).find("bad version"),
                  std::string::npos);
        // So does a wire-version-2 frame, refused by name.
        ASSERT_TRUE(service::write_all(
            fd, "{\"op\":\"shard_run\",\"payload\":\"00\"}\n"));
        EXPECT_NE(response_error(reader).find("wire version 2"),
                  std::string::npos);
        ASSERT_TRUE(service::write_all(fd, "{\"op\":\"ping\"}\n"));
        EXPECT_EQ(response_error(reader), "");
        service::close_fd(fd);
    }
    // One byte over: an error frame, then EOF; the payload is never read.
    const int fd = w.dial();
    ASSERT_TRUE(service::write_all(
        fd, "{\"op\":\"shard_run\",\"bytes\":1025}\n"));
    dist::FrameReader reader(fd, 0);
    EXPECT_EQ(response_error(reader), "frame exceeds 1024 bytes");
    std::string err;
    EXPECT_EQ(reader.next(err), 0);
    service::close_fd(fd);
    // A malformed count cannot be skipped either: error frame, then EOF.
    const int fd2 = w.dial();
    ASSERT_TRUE(service::write_all(
        fd2, "{\"op\":\"shard_run\",\"bytes\":-5}\nxxxxx"));
    dist::FrameReader reader2(fd2, 0);
    EXPECT_NE(response_error(reader2).find("non-negative integer"),
              std::string::npos);
    EXPECT_EQ(reader2.next(err), 0);
    service::close_fd(fd2);
}

TEST(DistFrames, HugeAnnouncedResponseFailsAsTransportNotBadAlloc) {
    // A fake worker reads the request, announces 2^62 payload bytes,
    // sends three and hangs up. The coordinator must fail the job as a
    // transport error; a buffer sized by the announcement would throw
    // std::length_error or std::bad_alloc instead.
    TempDir dir;
    service::Address addr;
    std::string err;
    const std::string path = dir.path + "/fake.sock";
    ASSERT_TRUE(service::parse_address(path, addr, err)) << err;
    const int lfd = service::listen_on(addr, err);
    ASSERT_GE(lfd, 0) << err;
    std::thread fake([lfd] {
        const int conn = ::accept(lfd, nullptr, nullptr);
        if (conn < 0) return;
        dist::FrameReader reader(conn, 0);
        std::string e;
        if (reader.next(e) == 1)
            service::write_all(
                conn, "{\"ok\":true,\"bytes\":4611686018427387904}\nabc");
        service::close_fd(conn);
    });
    dist::SocketTransport transport(path);
    std::string wrong;
    try {
        transport.run(small_request());
        wrong = "no error";
    } catch (const dist::DistError& e) {
        EXPECT_EQ(e.kind(), dist::DistErrorKind::Transport);
        EXPECT_NE(std::string(e.what()).find("closed mid-frame"),
                  std::string::npos)
            << e.what();
    } catch (const std::exception& e) {
        wrong = e.what();
    }
    fake.join();
    service::close_fd(lfd);
    EXPECT_EQ(wrong, "") << "expected a transport DistError";
}

TEST(DistFrames, ReceiveTimeoutMidPayloadKeepsThePartialFrame) {
    SocketPair sp;
    timeval tv{0, 50 * 1000};  // 50 ms
    ASSERT_EQ(::setsockopt(sp.fd[0], SOL_SOCKET, SO_RCVTIMEO, &tv,
                           sizeof(tv)),
              0);
    const std::string header = "{\"ok\":true,\"bytes\":10}\n";
    ASSERT_TRUE(service::write_all(sp.fd[1], header + "0123"));
    dist::FrameReader reader(sp.fd[0], 0);
    std::string err;
    EXPECT_EQ(reader.next(err), -2);
    EXPECT_EQ(reader.frame(), header + "0123");
    EXPECT_EQ(reader.next(err), -2);  // still waiting, nothing lost
    ASSERT_TRUE(service::write_all(sp.fd[1], "456789" +
                                                 dist::make_pong_frame()));
    ASSERT_EQ(reader.next(err), 1) << err;
    EXPECT_EQ(reader.frame(), header + "0123456789");
    ASSERT_EQ(reader.next(err), 1) << err;
    EXPECT_EQ(reader.frame(), dist::make_pong_frame());
}

TEST(DistFrames, FullHandOffAnswersWorkerBusyAndServesTheHeldConnections) {
    SmallWorker w(1024, 1);
    // The only handler serves this connection while it stays open ...
    const int held = w.dial();
    dist::FrameReader held_reader(held, 0);
    ASSERT_TRUE(service::write_all(held, "{\"op\":\"ping\"}\n"));
    ASSERT_EQ(response_error(held_reader), "");
    // ... so these fill the hand-off, and the next one is refused.
    std::vector<int> queued;
    for (std::size_t i = 0; i < service::kMaxPendingConns; ++i)
        queued.push_back(w.dial());
    const int refused = w.dial();
    dist::FrameReader refused_reader(refused, 0);
    EXPECT_EQ(response_error(refused_reader),
              "worker busy: too many pending connections");
    std::string err;
    EXPECT_EQ(refused_reader.next(err), 0);
    service::close_fd(refused);
    service::close_fd(held);
    // Every held connection is still served, in turn.
    for (const int fd : queued) {
        dist::FrameReader reader(fd, 0);
        ASSERT_TRUE(service::write_all(fd, "{\"op\":\"ping\"}\n"));
        EXPECT_EQ(response_error(reader), "");
        service::close_fd(fd);
    }
}

TEST(DistFrames, WorkerNoticesShutdownMidPayload) {
    SmallWorker w(1024);
    const int fd = w.dial();
    dist::FrameReader reader(fd, 0);
    // A round trip first, so a handler is serving this connection ...
    ASSERT_TRUE(service::write_all(fd, "{\"op\":\"ping\"}\n"));
    ASSERT_EQ(response_error(reader), "");
    // ... and is left waiting inside a payload when shutdown comes.
    ASSERT_TRUE(service::write_all(
        fd, "{\"op\":\"shard_run\",\"bytes\":1000}\n0123456789"));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    w.server->request_shutdown();
    auto waited = std::async(std::launch::async, [&] { w.server->wait(); });
    const bool stopped = waited.wait_for(std::chrono::seconds(10)) ==
                         std::future_status::ready;
    service::close_fd(fd);  // frees a handler stuck in read(2), if any
    waited.wait();
    EXPECT_TRUE(stopped) << "worker kept waiting for the payload";
}

}  // namespace
}  // namespace sunfloor
