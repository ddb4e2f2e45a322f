// Asynchronous synthesis job engine: the daemon's core.
//
// Jobs (one synthesis run or one grid exploration each) are submitted as
// validated JobRequests and executed on a pool of worker threads against
// *shared, warm* pipeline::SynthesisSessions — one session per distinct
// spec text, LRU-bounded. Because session reuse is bit-transparent (see
// pipeline/session.h) and each job's RNG seeding depends only on the
// request, a job's result is byte-identical no matter how many workers
// run, in which order jobs were submitted, or how warm the caches are —
// the property tests/service_test.cpp pins against the one-shot
// run_synthesis()/Explorer paths.
//
// Queueing: jobs run in submission order (FIFO). The warm sessions'
// stage caches are keyed on content, so the order never changes a
// result.
//
// Coalescing: a submission whose *entire* request content (coalesce_key()
// — spec text plus every config field; the client name deliberately
// excluded) matches a job that is still queued or running attaches to
// that computation instead of enqueueing a duplicate. Followers get their
// own ids and their own quota accounting, but the work runs once: one
// worker, one service.job span, one set of stage misses — and every
// attached job is published the byte-identical result the moment the
// primary finishes. Safe because a job's result is a pure function of its
// request (see above). A follower's wait_ms spans submit to publication;
// its run_ms mirrors the primary's.
//
// Admission control: submissions are rejected (typed, never silently
// dropped) when the engine is draining, the queue is at capacity, or the
// client already has `per_client_quota` jobs queued or running.
//
// Shutdown: begin_drain() rejects new submissions; drain() blocks until
// every accepted job reached a terminal state. The destructor drains.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sunfloor/util/mutex.h"

#include "sunfloor/obs/metrics.h"
#include "sunfloor/pipeline/session.h"
#include "sunfloor/service/protocol.h"

namespace sunfloor::service {

enum class JobState { Queued, Running, Done, Failed };

/// "queued" / "running" / "done" / "failed" — the wire status strings.
const char* state_to_string(JobState s);

enum class RejectReason { None, QueueFull, QuotaExceeded, ShuttingDown };

/// "queue-full" / "quota-exceeded" / "shutting-down" — the wire
/// "rejected" field.
const char* reject_to_string(RejectReason r);

/// Outcome of a finished job. `csv` is byte-identical to what the
/// one-shot CLI writes for the same request: design_points_table() CSV
/// (synth, the `--out` *_points.csv) or explore_table() CSV (explore,
/// the *_explore.csv).
struct JobResult {
    bool failed = false;
    std::string error;   ///< failed jobs: what went wrong
    std::string csv;
    std::string phase_used;  ///< synth jobs: "phase1"/"phase2"
    int num_points = 0;      ///< design points produced
    int num_valid = 0;
    int pareto_size = 0;
    double best_power_mw = -1.0;        ///< -1 when nothing was valid
    double best_latency_cycles = -1.0;  ///< of the best-power design
};

/// Point-in-time view of one job.
struct JobStatus {
    std::uint64_t id = 0;
    JobKind kind = JobKind::Synth;
    std::string client;
    JobState state = JobState::Queued;
    double wait_ms = 0.0;  ///< queue time (0 while queued)
    double run_ms = 0.0;   ///< execution time (0 until terminal)
};

/// Outcome of submit(): an id, or a typed rejection.
struct Submission {
    bool accepted = false;
    std::uint64_t id = 0;
    RejectReason reason = RejectReason::None;
    std::string error;
};

struct EngineOptions {
    /// Worker threads; 0 picks the hardware concurrency.
    int workers = 0;
    /// Maximum queued (not yet running) jobs before QueueFull.
    int queue_capacity = 256;
    /// Maximum queued+running jobs per client before QuotaExceeded.
    int per_client_quota = 64;
    /// Warm sessions kept alive (one per distinct spec text), LRU.
    int max_sessions = 8;
    /// Threads *inside* one explore job (results are thread-count
    /// invariant; this only trades intra-job vs cross-job parallelism).
    int explore_threads = 1;
};

/// Snapshot for the "stats" op.
struct EngineStats {
    long long submitted = 0;
    long long completed = 0;
    long long failed = 0;
    long long rejected = 0;
    long long coalesced = 0;  ///< submissions attached to in-flight work
    int queued = 0;
    int running = 0;
    int workers = 0;
    int sessions = 0;  ///< warm sessions currently held
};

class JobEngine {
  public:
    explicit JobEngine(EngineOptions opts = {});
    ~JobEngine();  ///< drains accepted jobs, then joins the workers

    JobEngine(const JobEngine&) = delete;
    JobEngine& operator=(const JobEngine&) = delete;

    const EngineOptions& options() const { return opts_; }

    /// Admit or reject a job. Accepted jobs eventually reach Done or
    /// Failed (never lost); rejected jobs carry a typed reason.
    Submission submit(JobRequest req) SF_EXCLUDES(mu_);

    /// False when `id` was never issued.
    bool status(std::uint64_t id, JobStatus& out) const SF_EXCLUDES(mu_);

    /// Block until `id` is terminal (or `timeout_ms` elapsed; < 0 waits
    /// forever). False when `id` was never issued; on true, `out` holds
    /// the state at return — check it for Done/Failed after a timeout.
    bool wait(std::uint64_t id, JobStatus& out,
              long long timeout_ms = -1) const SF_EXCLUDES(mu_);

    /// Fetch a terminal job's result. False when `id` is unknown or the
    /// job is still queued/running.
    bool result(std::uint64_t id, JobResult& out) const SF_EXCLUDES(mu_);

    EngineStats stats() const SF_EXCLUDES(mu_);

    /// Reject all future submissions (idempotent).
    void begin_drain() SF_EXCLUDES(mu_);

    /// Block until every accepted job is terminal. Call begin_drain()
    /// first or this may never return under a steady submit stream.
    void drain() SF_EXCLUDES(mu_);

    /// Full-content identity of a request — every field a job's result
    /// depends on (kind, spec text, all params), excluding the client.
    /// Equal keys => byte-identical results, which is what licenses
    /// cross-client coalescing of in-flight duplicates. Unambiguous (the
    /// spec text is length-prefixed, doubles keyed by bit pattern), not a
    /// hash: a collision here would serve one request another's result.
    static std::string coalesce_key(const JobRequest& req);

  private:
    struct Job {
        std::uint64_t id = 0;
        JobRequest req;
        std::string ckey;  ///< coalesce_key(); primaries only
        JobState state = JobState::Queued;
        JobResult result;
        std::chrono::steady_clock::time_point submitted_at;
        double wait_ms = 0.0;
        double run_ms = 0.0;
        /// Coalesced duplicates published together with this (primary)
        /// job's terminal state. Mutated only under mu_ while the primary
        /// is non-terminal.
        std::vector<std::shared_ptr<Job>> followers;
    };

    void worker_loop() SF_EXCLUDES(mu_);
    /// Decrement (and clean up) a client's active-job count when one of
    /// its jobs reaches a terminal state. Caller holds mu_.
    void release_client(const std::string& name) SF_REQUIRES(mu_);
    /// Find-or-create the warm session for a request's spec, bumping its
    /// LRU stamp and evicting beyond max_sessions. Caller holds mu_.
    std::shared_ptr<pipeline::SynthesisSession> acquire_session(
        const JobRequest& req) SF_REQUIRES(mu_);
    /// Execute one job (no lock held). The result is published into the
    /// Job under mu_ by the worker, together with the terminal state —
    /// readers only ever see it after that fence.
    JobResult execute(
        const JobRequest& req,
        const std::shared_ptr<pipeline::SynthesisSession>& session) const;

    EngineOptions opts_;

    /// The engine's single state lock. Orders strictly after any
    /// Channel lock (see the contract in util/channel.h): server handler
    /// threads finish their channel hand-off before calling in here, and
    /// nothing under mu_ ever calls a blocking Channel method.
    ///
    /// Job fields (state/result/wait_ms/run_ms/followers) are likewise
    /// read and written only under mu_ once a job is shared — Job is a
    /// private struct reached through jobs_/queue_/inflight_, so the
    /// guarded maps are the capability boundary; the fields themselves
    /// cannot carry SF_GUARDED_BY(mu_) because execute() reads the
    /// *request* of an unshared copy without the lock.
    mutable util::Mutex mu_ SF_ACQUIRED_AFTER(util::lock_rank::channel);
    util::CondVar work_cv_;          ///< workers: work or stop
    mutable util::CondVar done_cv_;  ///< waiters: job terminal
    bool draining_ SF_GUARDED_BY(mu_) = false;
    bool stop_ SF_GUARDED_BY(mu_) = false;
    std::uint64_t next_id_ SF_GUARDED_BY(mu_) = 1;
    int running_ SF_GUARDED_BY(mu_) = 0;
    std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs_
        SF_GUARDED_BY(mu_);
    /// Queued primaries, oldest first.
    std::deque<std::shared_ptr<Job>> queue_ SF_GUARDED_BY(mu_);
    std::unordered_map<std::string, int> active_per_client_
        SF_GUARDED_BY(mu_);
    /// Non-terminal primaries by coalesce_key(); entries are erased in
    /// the same critical section that publishes the terminal state, so a
    /// submission either attaches before publication or starts fresh.
    std::unordered_map<std::string, std::shared_ptr<Job>> inflight_
        SF_GUARDED_BY(mu_);

    struct SessionEntry {
        std::shared_ptr<pipeline::SynthesisSession> session;
        std::uint64_t last_use = 0;
    };
    std::unordered_map<std::string, SessionEntry> sessions_
        SF_GUARDED_BY(mu_);
    std::uint64_t session_clock_ SF_GUARDED_BY(mu_) = 0;

    // Engine-local totals for stats(); the registry counters below are
    // process-wide and would mix engines in one process (tests, benches).
    long long n_submitted_ SF_GUARDED_BY(mu_) = 0;
    long long n_completed_ SF_GUARDED_BY(mu_) = 0;
    long long n_failed_ SF_GUARDED_BY(mu_) = 0;
    long long n_rejected_ SF_GUARDED_BY(mu_) = 0;
    long long n_coalesced_ SF_GUARDED_BY(mu_) = 0;

    obs::Counter* m_submitted_;
    obs::Counter* m_coalesced_;
    obs::Counter* m_completed_;
    obs::Counter* m_failed_;
    obs::Counter* m_rej_queue_full_;
    obs::Counter* m_rej_quota_;
    obs::Counter* m_rej_shutdown_;
    obs::Histogram* m_queue_depth_;
    obs::Histogram* m_wait_ms_;
    obs::Histogram* m_run_ms_;

    std::vector<std::thread> workers_;
};

}  // namespace sunfloor::service
