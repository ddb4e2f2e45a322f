// Distributed exploration: byte-identity of sharded runs against the
// single-process explorer over {inproc, socket} transports x {1, 2, 4}
// workers x {analytic, sim} backends x {cold, warm} CAS, the associative
// Pareto merge, slice boundaries, the wire codec and fault tolerance
// (retry, worker retirement, typed failures).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sunfloor/cas/bincode.h"
#include "sunfloor/dist/coordinator.h"
#include "sunfloor/dist/protocol.h"
#include "sunfloor/dist/shard.h"
#include "sunfloor/explore/export.h"
#include "sunfloor/obs/metrics.h"
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
                if (k >= 1)
                    EXPECT_LE(bounds.size() - 1,
                              static_cast<std::size_t>(k));
            }
        }
    }
}

// ------------------------------------------------------------ wire codec

TEST(DistProtocol, HexRoundTripsAndRejectsGarbage) {
    std::string bytes;
    for (int i = 0; i < 256; ++i) bytes.push_back(static_cast<char>(i));
    const std::string hex = dist::to_hex(bytes);
    EXPECT_EQ(hex.size(), 512u);
    std::string back;
    ASSERT_TRUE(dist::from_hex(hex, back));
    EXPECT_EQ(back, bytes);
    EXPECT_FALSE(dist::from_hex("abc", back));   // odd length
    EXPECT_FALSE(dist::from_hex("zz", back));    // non-hex
    ASSERT_TRUE(dist::from_hex("", back));
    EXPECT_TRUE(back.empty());
}

TEST(DistProtocol, ShardRequestRoundTripsCompletely) {
    dist::ShardRequest req;
    req.spec = make_benchmark("D_36_4");
    req.base_cfg = fast_cfg();
    req.base_cfg.eval.freq_hz = 123.456789e6;  // bit-exactness matters
    req.opts = backend_opts(EvalBackend::Simulated);
    req.points = analytic_grid().enumerate();
    req.cas_dir = "/some/cas/dir";
    req.cas_max_bytes = 1234567;

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
    EXPECT_EQ(out.cas_max_bytes, req.cas_max_bytes);
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
    // count sits just before the cas_dir string and cas_max_bytes.
    dist::ShardRequest no_points = req;
    no_points.points.clear();
    std::string inflated = dist::encode_shard_request(no_points);
    patch_u32(inflated, inflated.size() - 8 - (4 + req.cas_dir.size()) - 4,
              0xFFFFFFFFu);
    EXPECT_FALSE(dist::decode_shard_request(inflated, out, err));
    EXPECT_NE(err.find("grid point"), std::string::npos) << err;
}

TEST(DistProtocol, ShardResponseRejectsVersionOneAndInflatedCounts) {
    // An empty response: version, tag, the point and front counts, and
    // five stage-counter triples.
    dist::ShardResponse resp;
    resp.stage.partition = {3, 2, 1.5};
    const std::string payload = dist::encode_shard_response(resp);
    ASSERT_EQ(payload.size(), 133u);
    dist::ShardResponse out;
    std::string err;
    ASSERT_TRUE(dist::decode_shard_response(payload, out, err)) << err;
    EXPECT_EQ(out.stage.partition.hits, 3);

    std::string v1 = payload;
    patch_u32(v1, 0, 1);
    EXPECT_FALSE(dist::decode_shard_response(v1, out, err));
    EXPECT_NE(err.find("bad version"), std::string::npos) << err;
    // The point count (after the 5-byte header), then the front count.
    for (const std::size_t at : {std::size_t{5}, std::size_t{9}}) {
        std::string inflated = payload;
        patch_u32(inflated, at, 0xFFFFFFFFu);
        EXPECT_FALSE(dist::decode_shard_response(inflated, out, err)) << at;
    }
}

TEST(DistProtocol, FramesParseBothDirections) {
    // No shipped coordinator pings; the worker answers the op anyway.
    const std::string ping = "{\"op\":\"ping\"}";
    std::string err;
    dist::WorkerRequest wreq;
    ASSERT_TRUE(dist::parse_worker_frame(ping, wreq, err));
    EXPECT_EQ(wreq.op, dist::WorkerRequest::Op::Ping);

    std::string payload;
    ASSERT_TRUE(
        dist::parse_response_frame(dist::make_pong_frame(), payload, err));
    EXPECT_TRUE(payload.empty());

    EXPECT_FALSE(dist::parse_response_frame(
        dist::make_error_frame("worker exploded"), payload, err));
    EXPECT_NE(err.find("worker exploded"), std::string::npos);

    EXPECT_FALSE(dist::parse_worker_frame("not json", wreq, err));
    EXPECT_FALSE(dist::parse_response_frame("not json", payload, err));
}

// ----------------------------------------------------------- Pareto merge

TEST(DistMerge, SliceFrontMergeEqualsGlobalPareto) {
    // Duplicate axis values on purpose: slicings that separate duplicate
    // keys are exactly where a naive merge (dedup against the confirmed
    // front instead of all seen keys) would diverge.
    const DesignSpec spec = make_benchmark("D_36_4");
    ParamGrid grid;
    grid.set_axis(ParamAxis::frequencies_hz({350e6, 450e6}));
    grid.set_axis(ParamAxis::max_tsvs({25, 25, 15}));
    grid.set_axis(ParamAxis::thetas({4.0}));

    for (const EvalBackend backend :
         {EvalBackend::Analytic, EvalBackend::Simulated}) {
        const Explorer explorer(spec, fast_cfg(), backend_opts(backend));
        const ExploreResult res = explorer.run(grid);
        const bool measured = backend == EvalBackend::Simulated;
        const std::vector<ParetoEntry> want =
            measured ? global_pareto_measured(res.points)
                     : global_pareto(res.points);
        ASSERT_GT(want.size(), 0u);

        for (const int shards : {1, 2, 3, 5, 6}) {
            const std::vector<std::size_t> bounds =
                dist::shard_boundaries(res.points.size(), shards);
            std::vector<std::vector<ParetoEntry>> fronts;
            for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
                const std::vector<ExplorePointResult> slice(
                    res.points.begin() +
                        static_cast<std::ptrdiff_t>(bounds[s]),
                    res.points.begin() +
                        static_cast<std::ptrdiff_t>(bounds[s + 1]));
                std::vector<ParetoEntry> front =
                    measured ? global_pareto_measured(slice)
                             : global_pareto(slice);
                for (ParetoEntry& e : front)
                    e.point_index += static_cast<int>(bounds[s]);
                fronts.push_back(std::move(front));
            }
            const std::vector<ParetoEntry> got =
                merge_pareto_fronts(res.points, fronts, measured);
            ASSERT_EQ(got.size(), want.size()) << "shards=" << shards;
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].point_index, want[i].point_index);
                EXPECT_EQ(got[i].design_index, want[i].design_index);
            }
        }
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
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    const ExploreOptions opts = backend_opts(EvalBackend::Analytic);
    ParamGrid grid;
    grid.set_axis(ParamAxis::max_tsvs({15, 20, 25}));
    grid.set_axis(ParamAxis::thetas({4.0}));
    const ExploreResult ref = Explorer(spec, cfg, opts).run(grid);

    std::vector<std::shared_ptr<dist::ShardTransport>> transports = {
        std::make_shared<dist::InprocTransport>(),
        std::make_shared<dist::InprocTransport>(),
    };
    for (const int shards : {1, 2, 3, 7}) {
        dist::DistOptions dopts;
        dopts.shards = shards;
        const ExploreResult got = dist::distribute_explore(
            spec, cfg, opts, grid.enumerate(), transports, dopts);
        EXPECT_EQ(csv_of(got), csv_of(ref)) << "shards=" << shards;
        EXPECT_EQ(normalized_json(got, spec.name),
                  normalized_json(ref, spec.name))
            << "shards=" << shards;
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

// --------------------------------------------------------- fault handling

TEST(DistFaults, FlakyTransportIsRetriedToAnExactResult) {
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    const ExploreOptions opts = backend_opts(EvalBackend::Analytic);
    ParamGrid grid;
    grid.set_axis(ParamAxis::max_tsvs({15, 25}));
    grid.set_axis(ParamAxis::thetas({4.0}));
    const ExploreResult ref = Explorer(spec, cfg, opts).run(grid);

    // The only worker fails twice (below the retirement threshold), then
    // recovers; with max_retries=2 the job survives both failures.
    std::vector<std::shared_ptr<dist::ShardTransport>> transports = {
        std::make_shared<FlakyTransport>(2)};
    dist::DistOptions dopts;
    dopts.shards = 1;
    dopts.max_retries = 2;
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
    dopts.max_retries = 16;  // failures re-queue onto the healthy worker
    const ExploreResult got = dist::distribute_explore(
        spec, cfg, opts, grid.enumerate(), transports, dopts);
    EXPECT_EQ(csv_of(got), csv_of(ref));
}

TEST(DistFaults, RetriesExceededThrowsTheLastErrorKind) {
    const DesignSpec spec = make_benchmark("D_36_4");
    ParamGrid grid;
    grid.set_axis(ParamAxis::thetas({4.0}));
    std::vector<std::shared_ptr<dist::ShardTransport>> transports = {
        std::make_shared<AlwaysFailTransport>()};
    dist::DistOptions dopts;
    dopts.max_retries = 1;
    try {
        dist::distribute_explore(spec, fast_cfg(),
                                 backend_opts(EvalBackend::Analytic),
                                 grid.enumerate(), transports, dopts);
        FAIL() << "expected DistError";
    } catch (const dist::DistError& e) {
        EXPECT_EQ(e.kind(), dist::DistErrorKind::Transport);
        EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
    }
}

TEST(DistFaults, AllWorkersRetiredThrowsWorkerLost) {
    const DesignSpec spec = make_benchmark("D_36_4");
    ParamGrid grid;
    grid.set_axis(ParamAxis::thetas({4.0}));
    std::vector<std::shared_ptr<dist::ShardTransport>> transports = {
        std::make_shared<AlwaysFailTransport>()};
    dist::DistOptions dopts;
    dopts.max_retries = 100;  // retirement bites before the retry budget
    const long long retired = counter("dist.workers.retired");
    try {
        dist::distribute_explore(spec, fast_cfg(),
                                 backend_opts(EvalBackend::Analytic),
                                 grid.enumerate(), transports, dopts);
        FAIL() << "expected DistError";
    } catch (const dist::DistError& e) {
        EXPECT_EQ(e.kind(), dist::DistErrorKind::WorkerLost);
    }
    EXPECT_EQ(counter("dist.workers.retired"), retired + 1);
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
    // Shard frames decode the soft margins without range checks; the
    // session must reject one that would overflow the hop cost's
    // threshold arithmetic, and the shard fail with it.
    dist::ShardRequest req;
    req.spec = make_benchmark("D_36_4");
    req.base_cfg = fast_cfg();
    req.base_cfg.soft_switch_margin = std::numeric_limits<int>::min();
    req.opts = backend_opts(EvalBackend::Analytic);
    req.points = ParamGrid().enumerate();
    dist::InprocTransport transport;
    try {
        transport.run(req);
        FAIL() << "expected DistError";
    } catch (const dist::DistError& e) {
        EXPECT_NE(std::string(e.what()).find("soft_switch_margin"),
                  std::string::npos)
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
    dist::DistOptions dopts;
    dopts.max_retries = 0;
    try {
        dist::distribute_explore(spec, fast_cfg(),
                                 backend_opts(EvalBackend::Analytic),
                                 grid.enumerate(), transports, dopts);
        FAIL() << "expected DistError";
    } catch (const dist::DistError& e) {
        EXPECT_EQ(e.kind(), dist::DistErrorKind::Transport);
    }
}

}  // namespace
}  // namespace sunfloor
