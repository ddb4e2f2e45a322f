#include "sunfloor/dist/shard.h"

#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sunfloor/cas/bincode.h"
#include "sunfloor/cas/codec.h"
#include "sunfloor/cas/store.h"
#include "sunfloor/obs/metrics.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/service/transport.h"
#include "sunfloor/util/mutex.h"
#include "sunfloor/util/strings.h"

namespace sunfloor::dist {

namespace {

/// What a pooled session must match to serve a job: the run id, the
/// spec's codec bytes and the store directory. The id keeps every run
/// from meeting another run's session, so a cold run stays cold; the
/// spec and the directory keep what a session shares exact whatever the
/// id.
struct RunKey {
    std::uint64_t id = 0;
    std::string spec;
    std::string cas_dir;

    friend bool operator==(const RunKey&, const RunKey&) = default;
};

/// The process's idle shard sessions, all of one run: the run whose job
/// last started a session. A session serves one job at a time: a job
/// takes an idle session of its run (or starts one) and gives it back
/// trimmed to what every point of the grid shares, so the concurrent
/// jobs of one run hold sessions of their own and each job's stage
/// counts (Explorer::run's session deltas) stay exact.
class SessionPool {
  public:
    static SessionPool& instance() {
        static SessionPool pool;
        return pool;
    }

    /// An idle session of `run`, or a new session of the request's spec
    /// and store. A job of another run takes the pool's slot first: the
    /// idle sessions of the run that held it go, before the new session
    /// allocates anything.
    std::shared_ptr<pipeline::SynthesisSession> borrow(
        const RunKey& run, const ShardRequest& req) SF_EXCLUDES(mu_) {
        {
            std::vector<std::shared_ptr<pipeline::SynthesisSession>>
                displaced;  // freed once the lock is released
            util::MutexLock lock(mu_);
            if (!(run_ == run)) {
                run_ = run;
                displaced.swap(idle_);
                pooled_.set(0.0);
            } else if (!idle_.empty()) {
                std::shared_ptr<pipeline::SynthesisSession> session =
                    std::move(idle_.back());
                idle_.pop_back();
                pooled_.set(static_cast<double>(idle_.size()));
                reused_.add();
                return session;
            }
        }
        pipeline::SessionOptions sopts;
        if (!req.cas_dir.empty()) {
            // Throws std::runtime_error on an unusable directory; the
            // serving layer reports it instead of computing without the
            // shared store (a silent fallback would hide misconfiguration,
            // not results — the store is bit-transparent — but the
            // operator asked for it).
            sopts.cas =
                std::make_shared<cas::Store>(cas::StoreOptions{req.cas_dir});
        }
        auto session =
            std::make_shared<pipeline::SynthesisSession>(req.spec, sopts);
        started_.add();
        return session;
    }

    /// Keep a trimmed `session` of `run` while its run holds the slot;
    /// otherwise it is freed (after the lock is released, with the
    /// argument).
    void give_back(const RunKey& run,
                   std::shared_ptr<pipeline::SynthesisSession> session)
        SF_EXCLUDES(mu_) {
        util::MutexLock lock(mu_);
        if (!(run_ == run)) return;
        idle_.push_back(std::move(session));
        pooled_.set(static_cast<double>(idle_.size()));
    }

  private:
    // The instruments live in Registry::global(), built first, so it
    // outlives the pool and the sessions the pool frees at exit.
    SessionPool()
        : started_(obs::Registry::global().counter("dist.sessions.started")),
          reused_(obs::Registry::global().counter("dist.sessions.reused")),
          pooled_(obs::Registry::global().gauge("dist.sessions.pooled")) {}

    obs::Counter& started_;  ///< jobs that found no idle session
    obs::Counter& reused_;   ///< jobs that took a pooled session
    obs::Gauge& pooled_;     ///< idle sessions held
    util::Mutex mu_;
    RunKey run_ SF_GUARDED_BY(mu_);  ///< the run holding the slot
    std::vector<std::shared_ptr<pipeline::SynthesisSession>> idle_
        SF_GUARDED_BY(mu_);
};

}  // namespace

ShardResponse run_shard(const ShardRequest& req) {
    obs::ScopedSpan span("dist.shard", "points",
                         static_cast<long long>(req.points.size()));
    cas::Enc spec_bytes;
    cas::enc_spec(spec_bytes, req.spec);
    const RunKey run{req.run_id, spec_bytes.take(), req.cas_dir};
    SessionPool& pool = SessionPool::instance();
    std::shared_ptr<pipeline::SynthesisSession> session =
        pool.borrow(run, req);
    // A job that throws drops its session; one that returns hands it back
    // without the topologies its points alone use.
    ExploreResult res =
        Explorer(session, req.base_cfg, req.opts).run(req.points);
    session->drop_point_stages();
    pool.give_back(run, std::move(session));

    ShardResponse resp;
    resp.points.reserve(res.points.size());
    for (ExplorePointResult& pr : res.points) {
        ShardPointResult out;
        out.phase_used = pr.result.phase_used;
        out.designs.reserve(pr.result.points.size());
        for (const DesignPoint& dp : pr.result.points)
            out.designs.push_back(
                cas::encode_evaluation(pipeline::EvaluatedDesign(dp)));
        out.sim_reports = std::move(pr.sim_reports);
        resp.points.push_back(std::move(out));
    }
    resp.stage = res.stats.stage;
    obs::Registry::global().counter("dist.shards.run").add();
    return resp;
}

int FrameReader::next(std::string& error) {
    if (want_ == 0) {
        std::string header;
        const int r =
            service::read_line(fd_, buf_, header, max_bytes_, error);
        if (r != 1) return r;
        std::size_t bytes = 0;
        if (!frame_payload_size(header, bytes, error)) return -1;
        if (max_bytes_ > 0 && bytes > max_bytes_) {
            error = format("frame exceeds %zu bytes", max_bytes_);
            return -1;
        }
        frame_ = std::move(header);
        frame_ += '\n';
        want_ = frame_.size() + bytes;  // bytes < 2^63: no wrap
    }
    const int r = service::read_exact(fd_, buf_, frame_, want_, error);
    if (r == 1) want_ = 0;  // the next call starts a new frame
    return r;
}

WorkerServer::WorkerServer(WorkerOptions opts)
    : opts_(std::move(opts)),
      loop_([this](int fd) { serve_connection(fd); },
            make_error_frame("worker busy: too many pending connections")) {}

bool WorkerServer::start(std::string& error) {
    return loop_.start(opts_.listen, opts_.conn_threads, error);
}

void WorkerServer::serve_connection(int fd) {
    FrameReader reader(fd, static_cast<std::size_t>(
                               opts_.max_frame_bytes > 0
                                   ? opts_.max_frame_bytes
                                   : 0));
    std::string err;
    for (;;) {
        const int r = reader.next(err);
        if (r == 0) break;  // clean EOF
        if (r == -2) {      // receive timeout: idle or mid-frame
            if (loop_.stopping()) break;
            continue;
        }
        if (r < 0) {
            service::write_all(fd, make_error_frame(err));
            break;
        }
        std::string resp;
        WorkerRequest req;
        std::string perr;
        if (!parse_worker_frame(reader.frame(), req, perr)) {
            resp = make_error_frame(perr);
        } else if (req.op == WorkerRequest::Op::Ping) {
            resp = make_pong_frame();
        } else {
            try {
                resp = make_ok_frame(run_shard(req.run));
            } catch (const std::exception& e) {
                resp = make_error_frame(e.what());
            }
        }
        if (!service::write_all(fd, resp)) break;
    }
}

}  // namespace sunfloor::dist
