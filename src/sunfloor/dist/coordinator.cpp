#include "sunfloor/dist/coordinator.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "sunfloor/cas/bincode.h"
#include "sunfloor/cas/codec.h"
#include "sunfloor/cas/store.h"
#include "sunfloor/dist/shard.h"
#include "sunfloor/obs/metrics.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/service/transport.h"
#include "sunfloor/util/enum_names.h"
#include "sunfloor/util/mutex.h"
#include "sunfloor/util/strings.h"

namespace sunfloor::dist {

namespace {

constexpr EnumName<DistErrorKind> kKindNames[] = {
    {DistErrorKind::Config, "config"},
    {DistErrorKind::Transport, "transport"},
    {DistErrorKind::Protocol, "protocol"},
};

/// Close-on-every-path guard for a dialed socket.
struct FdGuard {
    int fd;
    ~FdGuard() { service::close_fd(fd); }
};

/// A fresh run id: the hash of this process's id, a process-wide call
/// count and a steady_clock reading, so runs of one coordinator never
/// share an id and runs of two rarely do (and then share only
/// bit-transparent artifacts of one spec and store).
std::uint64_t draw_run_id() {
    static std::atomic<std::uint64_t> calls{0};
    cas::Enc e;
    e.i64(::getpid());
    e.u64(calls.fetch_add(1, std::memory_order_relaxed));
    e.i64(std::chrono::steady_clock::now().time_since_epoch().count());
    return cas::hash64(e.view());
}

}  // namespace

const char* dist_error_kind_to_string(DistErrorKind kind) {
    return enum_to_string<DistErrorKind>(kKindNames, kind, "config");
}

ShardResponse InprocTransport::run(const ShardRequest& req) {
    // Full frame round trip on purpose: the inproc transport exists so
    // tests (and TSan) can drive the exact socket code path without
    // sockets, so it must not shortcut the codec.
    std::string err;
    WorkerRequest wreq;
    if (!parse_worker_frame(make_shard_run_frame(req), wreq, err))
        throw DistError(DistErrorKind::Protocol, "inproc: " + err);
    std::string rframe;
    try {
        rframe = make_ok_frame(run_shard(wreq.run));
    } catch (const std::exception& e) {
        rframe = make_error_frame(e.what());
    }
    std::string payload;
    if (!parse_response_frame(rframe, payload, err))
        throw DistError(DistErrorKind::Transport, "inproc worker: " + err);
    ShardResponse resp;
    if (!decode_shard_response(payload, resp, err))
        throw DistError(DistErrorKind::Protocol, "inproc: " + err);
    return resp;
}

ShardResponse SocketTransport::run(const ShardRequest& req) {
    std::string err;
    service::Address addr;
    if (!service::parse_address(address_, addr, err))
        throw DistError(DistErrorKind::Config, address_ + ": " + err);
    const int fd = service::dial(addr, err);
    if (fd < 0)
        throw DistError(DistErrorKind::Transport, address_ + ": " + err);
    FdGuard guard{fd};
    if (!service::write_all(fd, make_shard_run_frame(req)))
        throw DistError(DistErrorKind::Transport,
                        address_ + ": connection lost while sending");
    // No size cap: shard responses carry whole design sets.
    FrameReader reader(fd, 0);
    for (;;) {
        const int r = reader.next(err);
        if (r == 1) break;
        if (r == -2) continue;  // receive-timeout pacing while it computes
        throw DistError(DistErrorKind::Transport,
                        address_ + (r == 0 ? ": worker closed the connection"
                                           : ": " + err));
    }
    std::string payload;
    if (!parse_response_frame(reader.frame(), payload, err))
        throw DistError(DistErrorKind::Transport, address_ + ": " + err);
    ShardResponse resp;
    if (!decode_shard_response(payload, resp, err))
        throw DistError(DistErrorKind::Protocol, address_ + ": " + err);
    return resp;
}

std::vector<std::size_t> shard_boundaries(std::size_t n, int shards) {
    std::size_t k = shards < 1 ? 1 : static_cast<std::size_t>(shards);
    if (k > n) k = n == 0 ? 1 : n;
    std::vector<std::size_t> bounds;
    bounds.reserve(k + 1);
    const std::size_t base = n / k;
    const std::size_t rem = n % k;
    std::size_t at = 0;
    bounds.push_back(at);
    for (std::size_t s = 0; s < k; ++s) {
        at += base + (s < rem ? 1 : 0);
        bounds.push_back(at);
    }
    return bounds;
}

ExploreResult distribute_explore(
    const DesignSpec& spec, const SynthesisConfig& base_cfg,
    const ExploreOptions& opts, const std::vector<GridPoint>& points,
    const std::vector<std::shared_ptr<ShardTransport>>& workers,
    const DistOptions& dopts) {
    const auto t0 = std::chrono::steady_clock::now();
    obs::ScopedSpan span("dist.explore", "points",
                         static_cast<long long>(points.size()));
    if (workers.empty())
        throw DistError(DistErrorKind::Config, "no shard workers");
    for (const auto& w : workers)
        if (w == nullptr)
            throw DistError(DistErrorKind::Config, "null shard transport");

    // ---------------------------------------------------- job scheduling
    const std::uint64_t run_id = draw_run_id();
    const std::vector<std::size_t> bounds =
        shard_boundaries(points.size(), dopts.shards);
    const std::size_t njobs = points.empty() ? 0 : bounds.size() - 1;

    util::Mutex mu;
    util::CondVar cv;
    std::vector<std::size_t> queue;          // job indices, any order
    std::vector<int> attempts(njobs, 0);
    std::vector<ShardResponse> results(njobs);
    std::size_t remaining = njobs;
    int active = static_cast<int>(workers.size());
    bool failed = false;
    DistErrorKind fail_kind = DistErrorKind::Transport;
    std::string fail_error;
    for (std::size_t j = 0; j < njobs; ++j) queue.push_back(j);

    auto& reg = obs::Registry::global();
    reg.counter("dist.jobs.total").add(static_cast<long long>(njobs));

    const auto worker_fn = [&](std::size_t wi) {
        ShardTransport& transport = *workers[wi];
        for (;;) {
            std::size_t job = 0;
            {
                util::UniqueLock lk(mu);
                while (!failed && remaining != 0 && queue.empty())
                    cv.wait(lk);
                if (failed || remaining == 0) return;
                job = queue.back();
                queue.pop_back();
            }
            ShardRequest req;
            req.run_id = run_id;
            req.spec = spec;
            req.base_cfg = base_cfg;
            req.opts = opts;
            req.points.assign(
                points.begin() + static_cast<std::ptrdiff_t>(bounds[job]),
                points.begin() +
                    static_cast<std::ptrdiff_t>(bounds[job + 1]));
            req.cas_dir = dopts.cas_dir;
            try {
                ShardResponse resp = transport.run(req);
                if (resp.points.size() != req.points.size())
                    throw DistError(
                        DistErrorKind::Protocol,
                        transport.describe() +
                            ": shard returned wrong point count");
                util::MutexLock lk(mu);
                results[job] = std::move(resp);
                if (--remaining == 0) cv.notify_all();
            } catch (const DistError& e) {
                util::MutexLock lk(mu);
                if (failed) return;
                // While another worker is live, this one hands the job
                // over and retires, so a dead worker cannot spend the
                // job's budget on itself; the last live worker retries
                // the job itself, within the budget.
                const bool last = active == 1;
                if (last && ++attempts[job] > kMaxRetries) {
                    failed = true;
                    fail_kind = e.kind();
                    fail_error = format(
                        "shard job %zu failed %d times on the last live "
                        "worker %s: %s",
                        job, attempts[job], transport.describe().c_str(),
                        e.what());
                    cv.notify_all();
                    return;
                }
                queue.push_back(job);
                reg.counter("dist.jobs.retried").add();
                if (!last) {
                    --active;
                    reg.counter("dist.workers.retired").add();
                    cv.notify_all();
                    return;
                }
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers.size());
    for (std::size_t wi = 0; wi < workers.size(); ++wi)
        threads.emplace_back(worker_fn, wi);
    for (std::thread& t : threads) t.join();
    if (failed) throw DistError(fail_kind, fail_error);

    // ------------------------------------------------ exact reassembly
    //
    // The shipped designs and sim reports land in a result seeded and
    // summarized by the explorer's own steps, so the front and the stats
    // come from the same code a single-process run uses, over the
    // decoded points alone: nothing a worker sends besides its designs,
    // reports and stage counters reaches the result.
    ExploreResult out = seeded_explore_result(points, opts.base_seed);
    for (std::size_t j = 0; j < njobs; ++j) {
        for (std::size_t li = 0; li < results[j].points.size(); ++li) {
            const std::size_t i = bounds[j] + li;
            ShardPointResult& sp = results[j].points[li];
            auto& pr = out.points[i];
            pr.result.phase_used = std::move(sp.phase_used);
            pr.result.points.reserve(sp.designs.size());
            for (const std::string& blob : sp.designs) {
                auto decoded = cas::decode_evaluation(blob, spec);
                if (!decoded)
                    throw DistError(DistErrorKind::Protocol,
                                    format("undecodable design blob for "
                                           "point %zu",
                                           i));
                pr.result.points.push_back(std::move(decoded->point));
            }
            pr.sim_reports = std::move(sp.sim_reports);
        }
        out.stats.stage = out.stats.stage + results[j].stage;
    }
    summarize_explore(out, opts);
    out.stats.elapsed_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    return out;
}

}  // namespace sunfloor::dist
