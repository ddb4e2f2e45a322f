#include "sunfloor/service/job_engine.h"

#include <algorithm>
#include <exception>
#include <sstream>
#include <utility>

#include "sunfloor/explore/explorer.h"
#include "sunfloor/explore/export.h"
#include "sunfloor/io/report.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/util/strings.h"

namespace sunfloor::service {

const char* state_to_string(JobState s) {
    switch (s) {
        case JobState::Queued: return "queued";
        case JobState::Running: return "running";
        case JobState::Done: return "done";
        case JobState::Failed: return "failed";
    }
    return "queued";
}

const char* reject_to_string(RejectReason r) {
    switch (r) {
        case RejectReason::None: return "none";
        case RejectReason::QueueFull: return "queue-full";
        case RejectReason::QuotaExceeded: return "quota-exceeded";
        case RejectReason::ShuttingDown: return "shutting-down";
    }
    return "none";
}

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

}  // namespace

std::string JobEngine::coalesce_key(const JobRequest& req) {
    const JobParams& p = req.params;
    std::string k = format("k%d|%zu:", static_cast<int>(req.kind),
                           req.spec_text.size());
    k += req.spec_text;
    k += format("|a%s|s%lld|fp%d|f", double_bits(p.alpha).c_str(), p.seed,
                p.floorplan ? 1 : 0);
    for (const double v : p.freq_mhz) k += double_bits(v) + ",";
    k += "|m";
    for (const int v : p.max_tsvs) k += format("%d,", v);
    k += "|w";
    for (const int v : p.width_bits) k += format("%d,", v);
    k += "|t";
    for (const double v : p.thetas) k += double_bits(v) + ",";
    k += "|p";
    for (const SynthesisPhase ph : p.phases)
        k += format("%s,", phase_to_string(ph));
    k += "|r";
    for (const routing::RoutingPolicyId r : p.routings)
        k += format("%s,", routing::routing_to_string(r));
    return k;
}

JobEngine::JobEngine(EngineOptions opts) : opts_(opts) {
    if (opts_.workers <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        opts_.workers = hw > 0 ? static_cast<int>(hw) : 1;
    }
    opts_.queue_capacity = std::max(1, opts_.queue_capacity);
    opts_.per_client_quota = std::max(1, opts_.per_client_quota);
    opts_.max_sessions = std::max(1, opts_.max_sessions);
    if (opts_.explore_threads < 1) opts_.explore_threads = 1;

    auto& reg = obs::Registry::global();
    m_submitted_ = &reg.counter("service.submitted.total");
    m_coalesced_ = &reg.counter("service.coalesced.total");
    m_completed_ = &reg.counter("service.completed.total");
    m_failed_ = &reg.counter("service.failed.total");
    m_rej_queue_full_ = &reg.counter("service.rejected.queue_full");
    m_rej_quota_ = &reg.counter("service.rejected.quota");
    m_rej_shutdown_ = &reg.counter("service.rejected.shutdown");
    m_queue_depth_ = &reg.histogram(
        "service.queue_depth", {0, 1, 2, 4, 8, 16, 32, 64, 128, 256});
    m_wait_ms_ = &reg.histogram(
        "service.job.wait_ms",
        {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000});
    m_run_ms_ = &reg.histogram(
        "service.job.run_ms",
        {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000});

    workers_.reserve(static_cast<std::size_t>(opts_.workers));
    for (int i = 0; i < opts_.workers; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

JobEngine::~JobEngine() {
    begin_drain();
    drain();
    {
        util::MutexLock lk(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
}

Submission JobEngine::submit(JobRequest req) {
    Submission out;
    util::MutexLock lk(mu_);
    if (draining_) {
        out.reason = RejectReason::ShuttingDown;
        out.error = "server is shutting down";
        ++n_rejected_;
        m_rej_shutdown_->add();
        return out;
    }
    const std::string ckey = coalesce_key(req);
    const auto inflight = inflight_.find(ckey);
    const int queued = static_cast<int>(queue_.size());
    if (inflight == inflight_.end() && queued >= opts_.queue_capacity) {
        // Attaching to in-flight work consumes no queue slot, so only
        // fresh computations are bounced on capacity.
        out.reason = RejectReason::QueueFull;
        out.error = format("queue is full (%d jobs queued)", queued);
        ++n_rejected_;
        m_rej_queue_full_->add();
        return out;
    }
    const int active = active_per_client_[req.client];
    if (active >= opts_.per_client_quota) {
        out.reason = RejectReason::QuotaExceeded;
        out.error = format("client \"%s\" already has %d active job(s)",
                           req.client.c_str(), active);
        ++n_rejected_;
        m_rej_quota_->add();
        return out;
    }

    auto job = std::make_shared<Job>();
    job->id = next_id_++;
    job->req = std::move(req);
    job->submitted_at = std::chrono::steady_clock::now();
    ++active_per_client_[job->req.client];
    jobs_.emplace(job->id, job);
    ++n_submitted_;
    m_submitted_->add();
    out.accepted = true;
    out.id = job->id;
    if (inflight != inflight_.end()) {
        // Identical request already queued or running: ride along. The
        // result is a pure function of the request, so publication of the
        // primary's bytes to every follower is indistinguishable from
        // having run this job itself — minus the compute.
        inflight->second->followers.push_back(std::move(job));
        ++n_coalesced_;
        m_coalesced_->add();
        return out;
    }
    job->ckey = ckey;
    inflight_.emplace(ckey, job);
    queue_.push_back(std::move(job));
    m_queue_depth_->observe(static_cast<double>(queue_.size()));
    work_cv_.notify_one();
    return out;
}

bool JobEngine::status(std::uint64_t id, JobStatus& out) const {
    util::MutexLock lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    const Job& j = *it->second;
    out.id = j.id;
    out.kind = j.req.kind;
    out.client = j.req.client;
    out.state = j.state;
    out.wait_ms = j.wait_ms;
    out.run_ms = j.run_ms;
    return true;
}

bool JobEngine::wait(std::uint64_t id, JobStatus& out,
                     long long timeout_ms) const {
    util::UniqueLock lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    const std::shared_ptr<Job> job = it->second;
    const auto terminal = [&] {
        return job->state == JobState::Done ||
               job->state == JobState::Failed;
    };
    if (timeout_ms < 0) {
        while (!terminal()) done_cv_.wait(lk);
    } else {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(timeout_ms);
        while (!terminal()) {
            if (done_cv_.wait_until(lk, deadline) ==
                std::cv_status::timeout)
                break;
        }
    }
    out.id = job->id;
    out.kind = job->req.kind;
    out.client = job->req.client;
    out.state = job->state;
    out.wait_ms = job->wait_ms;
    out.run_ms = job->run_ms;
    return true;
}

bool JobEngine::result(std::uint64_t id, JobResult& out) const {
    util::MutexLock lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    const Job& j = *it->second;
    if (j.state != JobState::Done && j.state != JobState::Failed)
        return false;
    out = j.result;
    return true;
}

EngineStats JobEngine::stats() const {
    util::MutexLock lk(mu_);
    EngineStats st;
    st.submitted = n_submitted_;
    st.completed = n_completed_;
    st.failed = n_failed_;
    st.rejected = n_rejected_;
    st.coalesced = n_coalesced_;
    st.queued = static_cast<int>(queue_.size());
    st.running = running_;
    st.workers = opts_.workers;
    st.sessions = static_cast<int>(sessions_.size());
    return st;
}

void JobEngine::begin_drain() {
    util::MutexLock lk(mu_);
    draining_ = true;
}

void JobEngine::drain() {
    util::UniqueLock lk(mu_);
    while (!queue_.empty() || running_ != 0) done_cv_.wait(lk);
}

void JobEngine::release_client(const std::string& name) {
    auto client = active_per_client_.find(name);
    if (client != active_per_client_.end() && --client->second <= 0)
        active_per_client_.erase(client);
}

std::shared_ptr<pipeline::SynthesisSession> JobEngine::acquire_session(
    const JobRequest& req) {
    auto it = sessions_.find(req.spec_text);
    if (it == sessions_.end()) {
        if (static_cast<int>(sessions_.size()) >= opts_.max_sessions) {
            // Evict the least recently used entry. A worker still running
            // against it keeps it alive through its shared_ptr; only the
            // warmth for *future* jobs is lost.
            auto victim = sessions_.begin();
            for (auto s = sessions_.begin(); s != sessions_.end(); ++s)
                if (s->second.last_use < victim->second.last_use) victim = s;
            sessions_.erase(victim);
        }
        SessionEntry entry;
        entry.session =
            std::make_shared<pipeline::SynthesisSession>(req.spec);
        it = sessions_.emplace(req.spec_text, std::move(entry)).first;
    }
    it->second.last_use = ++session_clock_;
    return it->second.session;
}

void JobEngine::worker_loop() {
    for (;;) {
        std::shared_ptr<Job> job;
        std::shared_ptr<pipeline::SynthesisSession> session;
        {
            util::UniqueLock lk(mu_);
            while (!stop_ && queue_.empty()) work_cv_.wait(lk);
            if (queue_.empty()) return;  // stopping
            job = std::move(queue_.front());
            queue_.pop_front();
            ++running_;
            job->state = JobState::Running;
            job->wait_ms = ms_since(job->submitted_at);
            m_wait_ms_->observe(job->wait_ms);
            session = acquire_session(job->req);
        }

        const auto started = std::chrono::steady_clock::now();
        JobResult result;
        {
            obs::ScopedSpan span("service.job", "id",
                                 static_cast<long long>(job->id));
            result = execute(job->req, session);
        }
        const double run_ms = ms_since(started);
        m_run_ms_->observe(run_ms);
        if (result.failed) {
            m_failed_->add();
        } else {
            m_completed_->add();
        }

        {
            util::MutexLock lk(mu_);
            job->run_ms = run_ms;
            job->result = std::move(result);
            job->state = job->result.failed ? JobState::Failed
                                            : JobState::Done;
            if (job->result.failed) {
                ++n_failed_;
            } else {
                ++n_completed_;
            }
            --running_;
            release_client(job->req.client);
            // Publish the same bytes to every coalesced duplicate, in the
            // same critical section that retires the in-flight entry — a
            // concurrent submit either attached before this or finds no
            // entry and computes fresh.
            inflight_.erase(job->ckey);
            for (const std::shared_ptr<Job>& f : job->followers) {
                f->result = job->result;
                f->wait_ms = ms_since(f->submitted_at);
                f->run_ms = job->run_ms;
                f->state = job->state;
                if (f->result.failed) {
                    ++n_failed_;
                    m_failed_->add();
                } else {
                    ++n_completed_;
                    m_completed_->add();
                }
                release_client(f->req.client);
            }
            job->followers.clear();
        }
        done_cv_.notify_all();
    }
}

namespace {

JobResult execute_synth(const JobRequest& req,
                        pipeline::SynthesisSession& session) {
    const SynthSetup setup = synth_setup(req.params);
    const SynthesisResult res = session.run(setup.cfg, setup.phase);

    JobResult out;
    // The same bytes the one-shot CLI writes as <prefix>_points.csv
    // (timing-free, unlike write_synthesis_report).
    std::ostringstream os;
    design_points_table(res.points).write_csv(os);
    out.csv = os.str();
    out.phase_used = res.phase_used;
    out.num_points = static_cast<int>(res.points.size());
    out.num_valid = res.num_valid();
    out.pareto_size = static_cast<int>(res.pareto_indices().size());
    const int best = res.best_power_index();
    if (best >= 0) {
        const DesignPoint& dp =
            res.points[static_cast<std::size_t>(best)];
        out.best_power_mw = dp.report.power.total_mw();
        out.best_latency_cycles = dp.report.avg_latency_cycles;
    }
    return out;
}

JobResult execute_explore(
    const JobRequest& req,
    const std::shared_ptr<pipeline::SynthesisSession>& session,
    int explore_threads) {
    const ExploreSetup setup = explore_setup(req.params);
    ExploreOptions opts;
    opts.num_threads = explore_threads;
    opts.base_seed = setup.base_seed;

    // A fresh Explorer per job on the *shared* session: stage artifacts
    // stay warm across jobs, and the exported CSV matches a one-shot run
    // byte for byte because reuse is bit-transparent.
    const Explorer explorer(session, setup.cfg, opts);
    const ExploreResult res = explorer.run(setup.grid);

    JobResult out;
    std::ostringstream os;
    explore_table(res).write_csv(os);
    out.csv = os.str();
    out.num_points = res.stats.total_designs;
    out.num_valid = res.stats.valid_designs;
    out.pareto_size = res.stats.pareto_size;
    const ParetoEntry bp = res.best_power();
    if (bp.point_index >= 0) {
        const DesignPoint& dp = res.design(bp);
        out.best_power_mw = dp.report.power.total_mw();
        out.best_latency_cycles = dp.report.avg_latency_cycles;
    }
    return out;
}

}  // namespace

JobResult JobEngine::execute(
    const JobRequest& req,
    const std::shared_ptr<pipeline::SynthesisSession>& session) const {
    try {
        if (req.kind == JobKind::Explore)
            return execute_explore(req, session, opts_.explore_threads);
        return execute_synth(req, *session);
    } catch (const std::exception& e) {
        JobResult out;
        out.failed = true;
        out.error = e.what();
        return out;
    }
}

}  // namespace sunfloor::service
