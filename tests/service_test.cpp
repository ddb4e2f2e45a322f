// Job-engine semantics, headlined by the service's acceptance property:
// a job's result CSV is byte-identical to the one-shot path
// (run_synthesis + design_points_table, or a fresh Explorer) no matter
// how many workers run, in which order jobs were submitted, or how warm
// the shared sessions are. Also covers typed admission control
// (queue-full / quota / shutting-down), the drain contract, the
// warm-session LRU bound, the warm path's stage hits, and failed-job
// reporting. Runs under TSan in CI — the multi-worker identity sweep
// doubles as a race probe on the engine's publish/read discipline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/explore/explorer.h"
#include "sunfloor/explore/export.h"
#include "sunfloor/io/report.h"
#include "sunfloor/obs/metrics.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/pipeline/session.h"
#include "sunfloor/service/job_engine.h"
#include "sunfloor/service/protocol.h"
#include "sunfloor/spec/parser.h"
#include "sunfloor/specgen/specgen.h"
#include "sunfloor/util/json.h"

namespace sunfloor::service {
namespace {

// Small generated designs keep one job in the tens-of-milliseconds
// range; floorplan stays off in JobParams (not in the reference config
// mapping, which must mirror the request bit for bit).
DesignSpec small_spec(specgen::GenFamily family, int cores,
                      std::uint64_t seed) {
    specgen::GenParams gp;
    gp.family = family;
    gp.num_cores = cores;
    gp.num_layers = 2;
    return specgen::generate(gp, seed);
}

std::string spec_text_of(const DesignSpec& spec) {
    std::ostringstream os;
    write_design(os, spec);
    return os.str();
}

JobRequest make_request(const DesignSpec& spec, JobKind kind,
                        JobParams params,
                        const std::string& client = "test") {
    JobRequest req;
    req.kind = kind;
    req.client = client;
    req.spec = spec;
    req.spec_text = spec_text_of(spec);
    req.params = std::move(params);
    return req;
}

JobParams fast_params() {
    JobParams p;
    p.floorplan = false;
    return p;
}

// Every knob a synth job takes, each away from its default.
JobParams non_default_params() {
    JobParams p = fast_params();
    p.freq_mhz = {450.0};
    p.max_tsvs = {20};
    p.phases = {SynthesisPhase::Phase2};
    p.routings = {routing::RoutingPolicyId::WestFirst};
    p.alpha = 0.5;
    p.seed = 7;
    return p;
}

// The one-shot reference for a synth request: the knobs mapped by hand
// (an oracle for service::synth_setup, which the engine and the CLI
// share), run through the stateless entry point.
std::string reference_synth_csv(const DesignSpec& spec,
                                const JobParams& p) {
    SynthesisConfig cfg;
    cfg.eval.freq_hz =
        (p.freq_mhz.empty() ? 400.0 : p.freq_mhz.front()) * 1e6;
    if (!p.max_tsvs.empty()) cfg.max_ill = p.max_tsvs.front();
    if (!p.routings.empty()) cfg.routing = p.routings.front();
    cfg.alpha = p.alpha;
    cfg.seed = static_cast<std::uint64_t>(p.seed);
    cfg.run_floorplan = p.floorplan;
    const SynthesisPhase phase =
        p.phases.empty() ? SynthesisPhase::Auto : p.phases.front();
    const SynthesisResult res = run_synthesis(spec, cfg, phase);
    std::ostringstream os;
    design_points_table(res.points).write_csv(os);
    return os.str();
}

// The one-shot reference for an explore request: a fresh Explorer on a
// cold session. Like reference_synth_csv, it maps the knobs by hand, so
// it checks service::explore_setup instead of sharing it.
std::string reference_explore_csv(const DesignSpec& spec,
                                  const JobParams& p) {
    SynthesisConfig cfg;
    cfg.alpha = p.alpha;
    cfg.run_floorplan = p.floorplan;
    ParamGrid grid;
    if (!p.freq_mhz.empty()) {
        std::vector<double> hz;
        for (const double mhz : p.freq_mhz) hz.push_back(mhz * 1e6);
        grid.set_axis(ParamAxis::frequencies_hz(hz));
    }
    if (!p.max_tsvs.empty())
        grid.set_axis(ParamAxis::max_tsvs(p.max_tsvs));
    if (!p.width_bits.empty())
        grid.set_axis(ParamAxis::link_widths_bits(p.width_bits));
    if (!p.phases.empty()) grid.set_axis(ParamAxis::phases(p.phases));
    if (!p.thetas.empty()) grid.set_axis(ParamAxis::thetas(p.thetas));
    if (!p.routings.empty())
        grid.set_axis(ParamAxis::routing_policies(p.routings));
    ExploreOptions opts;
    opts.num_threads = 1;
    opts.base_seed = static_cast<std::uint64_t>(p.seed);
    const Explorer explorer(
        std::make_shared<pipeline::SynthesisSession>(spec), cfg, opts);
    const ExploreResult res = explorer.run(grid);
    std::ostringstream os;
    explore_table(res).write_csv(os);
    return os.str();
}

JobResult run_to_result(JobEngine& engine, const JobRequest& req) {
    const Submission sub = engine.submit(req);
    EXPECT_TRUE(sub.accepted) << sub.error;
    JobStatus st;
    EXPECT_TRUE(engine.wait(sub.id, st));
    JobResult out;
    EXPECT_TRUE(engine.result(sub.id, out));
    return out;
}

// ------------------------------------------------- byte-identity property

TEST(ServiceEngine, SynthResultsByteIdenticalAcrossWorkersOrderWarmth) {
    const DesignSpec pipe =
        small_spec(specgen::GenFamily::Pipeline, 8, 1);
    const DesignSpec hub =
        small_spec(specgen::GenFamily::HubAndSpoke, 8, 2);

    // A mixed workload: two specs x two frequencies, plus a repeat that
    // must hit a warm session, plus a phase1-pinned run.
    std::vector<JobRequest> jobs;
    for (const DesignSpec* spec : {&pipe, &hub}) {
        for (const double mhz : {400.0, 500.0}) {
            JobParams p = fast_params();
            p.freq_mhz = {mhz};
            jobs.push_back(make_request(*spec, JobKind::Synth, p));
        }
    }
    {
        JobParams p = fast_params();
        p.freq_mhz = {400.0};
        jobs.push_back(make_request(pipe, JobKind::Synth, p));  // repeat
        p.phases = {SynthesisPhase::Phase1};
        jobs.push_back(make_request(pipe, JobKind::Synth, p));
    }
    jobs.push_back(make_request(hub, JobKind::Synth, non_default_params()));

    std::vector<std::string> want;
    want.reserve(jobs.size());
    for (const JobRequest& j : jobs)
        want.push_back(reference_synth_csv(j.spec, j.params));
    EXPECT_FALSE(want[0].empty());
    EXPECT_EQ(want[0], want[4]);  // repeat shares the reference

    for (const int workers : {1, 2, 4}) {
        EngineOptions opts;
        opts.workers = workers;
        opts.max_sessions = 2;
        JobEngine engine(opts);
        // A different submission order per worker count: reversed for
        // even counts.
        std::vector<std::size_t> order(jobs.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        if (workers % 2 == 0)
            std::reverse(order.begin(), order.end());
        std::vector<std::uint64_t> ids(jobs.size(), 0);
        for (const std::size_t i : order) {
            const Submission sub = engine.submit(jobs[i]);
            ASSERT_TRUE(sub.accepted) << sub.error;
            ids[i] = sub.id;
        }
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            JobStatus st;
            ASSERT_TRUE(engine.wait(ids[i], st));
            JobResult r;
            ASSERT_TRUE(engine.result(ids[i], r));
            ASSERT_FALSE(r.failed) << r.error;
            EXPECT_EQ(r.csv, want[i])
                << "workers=" << workers << " job=" << i;
            EXPECT_GT(r.num_points, 0);
        }
        // Warm repetition inside one engine: same bytes again.
        const JobResult again = run_to_result(engine, jobs[0]);
        ASSERT_FALSE(again.failed) << again.error;
        EXPECT_EQ(again.csv, want[0]) << "workers=" << workers;
    }
}

TEST(ServiceEngine, ExploreResultMatchesFreshExplorerRun) {
    const DesignSpec spec =
        small_spec(specgen::GenFamily::Pipeline, 8, 3);
    JobParams p = fast_params();
    p.freq_mhz = {400.0, 600.0};
    p.max_tsvs = {10, 25};
    // Every explore knob away from its default.
    JobParams knobs = non_default_params();
    knobs.width_bits = {16, 32};
    knobs.phases = {SynthesisPhase::Phase1};
    knobs.thetas = {3.0};
    knobs.routings = {routing::RoutingPolicyId::UpDown,
                      routing::RoutingPolicyId::WestFirst};

    EngineOptions opts;
    opts.workers = 2;
    JobEngine engine(opts);
    for (const JobParams& params : {p, knobs}) {
        const std::string want = reference_explore_csv(spec, params);
        EXPECT_FALSE(want.empty());
        const JobRequest req = make_request(spec, JobKind::Explore, params);
        // Twice: the second run rides a warm session, which must not
        // change a byte of the export.
        for (int round = 0; round < 2; ++round) {
            const JobResult r = run_to_result(engine, req);
            ASSERT_FALSE(r.failed) << r.error;
            EXPECT_EQ(r.csv, want) << "round " << round;
            // stats.total_designs counts evaluated designs, several per
            // grid point — 4 grid cells produce at least 4.
            EXPECT_GE(r.num_points, 4);
        }
    }
}

// ------------------------------------------------------ admission control

TEST(ServiceEngine, QueueFullRejectionIsTypedAndNothingIsLost) {
    EngineOptions opts;
    opts.workers = 1;
    opts.queue_capacity = 1;
    opts.per_client_quota = 1000;
    JobEngine engine(opts);
    const DesignSpec spec =
        small_spec(specgen::GenFamily::Pipeline, 8, 4);

    // Submissions are instant next to a synthesis run, so a burst far
    // beyond capacity must see back-pressure. Every request is distinct
    // (the frequency varies) — identical ones would coalesce instead of
    // queueing, which is tested separately below.
    int accepted = 0, queue_full = 0;
    for (int i = 0; i < 200; ++i) {
        JobParams p = fast_params();
        p.freq_mhz = {400.0 + i};
        const Submission sub =
            engine.submit(make_request(spec, JobKind::Synth, p));
        if (sub.accepted) {
            ++accepted;
        } else {
            ASSERT_EQ(sub.reason, RejectReason::QueueFull) << sub.error;
            EXPECT_NE(sub.error.find("queue is full"),
                      std::string::npos);
            ++queue_full;
        }
    }
    EXPECT_GE(accepted, 1);
    EXPECT_GE(queue_full, 1);
    engine.begin_drain();
    engine.drain();
    const EngineStats st = engine.stats();
    EXPECT_EQ(st.submitted, accepted);
    EXPECT_EQ(st.completed, accepted);  // accepted jobs are never lost
    EXPECT_EQ(st.rejected, queue_full);
    EXPECT_EQ(st.queued, 0);
    EXPECT_EQ(st.running, 0);
}

TEST(ServiceEngine, PerClientQuotaRejectsTheGreedyClientOnly) {
    EngineOptions opts;
    opts.workers = 1;
    opts.queue_capacity = 100;
    opts.per_client_quota = 2;
    JobEngine engine(opts);
    const DesignSpec spec =
        small_spec(specgen::GenFamily::Pipeline, 8, 5);

    int accepted = 0, quota = 0;
    for (int i = 0; i < 10; ++i) {
        const Submission sub = engine.submit(
            make_request(spec, JobKind::Synth, fast_params(), "greedy"));
        if (sub.accepted) {
            ++accepted;
        } else {
            ASSERT_EQ(sub.reason, RejectReason::QuotaExceeded)
                << sub.error;
            EXPECT_NE(sub.error.find("\"greedy\""), std::string::npos);
            ++quota;
        }
    }
    EXPECT_GE(accepted, 2);
    EXPECT_GE(quota, 1);
    // Another client is not affected by the greedy one's quota.
    const Submission other = engine.submit(
        make_request(spec, JobKind::Synth, fast_params(), "polite"));
    EXPECT_TRUE(other.accepted) << other.error;
    engine.begin_drain();
    engine.drain();
    // Quota released on completion: the greedy client may submit again.
    // (Draining rejects it for the *other* typed reason.)
    const Submission after = engine.submit(
        make_request(spec, JobKind::Synth, fast_params(), "greedy"));
    EXPECT_FALSE(after.accepted);
    EXPECT_EQ(after.reason, RejectReason::ShuttingDown);
}

TEST(ServiceEngine, DrainRejectsNewSubmissionsAndFinishesAccepted) {
    EngineOptions opts;
    opts.workers = 2;
    JobEngine engine(opts);
    const DesignSpec spec =
        small_spec(specgen::GenFamily::Pipeline, 8, 6);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 4; ++i) {
        JobParams p = fast_params();
        p.freq_mhz = {400.0 + 50.0 * i};
        const Submission sub =
            engine.submit(make_request(spec, JobKind::Synth, p));
        ASSERT_TRUE(sub.accepted) << sub.error;
        ids.push_back(sub.id);
    }
    engine.begin_drain();
    const Submission rejected =
        engine.submit(make_request(spec, JobKind::Synth, fast_params()));
    EXPECT_FALSE(rejected.accepted);
    EXPECT_EQ(rejected.reason, RejectReason::ShuttingDown);
    EXPECT_EQ(rejected.error, "server is shutting down");
    engine.drain();
    for (const std::uint64_t id : ids) {
        JobStatus st;
        ASSERT_TRUE(engine.status(id, st));
        EXPECT_EQ(st.state, JobState::Done);
        EXPECT_GE(st.wait_ms, 0.0);
        EXPECT_GT(st.run_ms, 0.0);
    }
    const EngineStats st = engine.stats();
    EXPECT_EQ(st.submitted, 4);
    EXPECT_EQ(st.completed, 4);
    EXPECT_EQ(st.failed, 0);
    EXPECT_EQ(st.rejected, 1);
    EXPECT_EQ(st.workers, 2);
}

// ------------------------------------------------------- lookup contract

TEST(ServiceEngine, UnknownIdsAreReportedNotInvented) {
    JobEngine engine(EngineOptions{.workers = 1});
    JobStatus st;
    JobResult r;
    EXPECT_FALSE(engine.status(999, st));
    EXPECT_FALSE(engine.wait(999, st, 10));
    EXPECT_FALSE(engine.result(999, r));
}

TEST(ServiceEngine, WarmSessionCacheIsLruBounded) {
    EngineOptions opts;
    opts.workers = 1;
    opts.max_sessions = 2;
    JobEngine engine(opts);
    for (std::uint64_t seed = 10; seed < 14; ++seed) {
        const DesignSpec spec =
            small_spec(specgen::GenFamily::Pipeline, 6, seed);
        const JobResult r = run_to_result(
            engine, make_request(spec, JobKind::Synth, fast_params()));
        ASSERT_FALSE(r.failed) << r.error;
    }
    EXPECT_LE(engine.stats().sessions, 2);
    EXPECT_GE(engine.stats().sessions, 1);
}

// ------------------------------------------------------------ warm path

// pipeline.<stage>.{hits,misses} summed over every session: each
// session's registry feeds obs::Registry::global().
struct StageCounts {
    long long hits = 0;
    long long misses = 0;
};
using StageSnapshot = std::map<std::string, StageCounts>;

const std::vector<std::string> kStages = {"partition", "routing", "placement",
                                          "position_lp", "evaluation"};

StageSnapshot stage_snapshot() {
    StageSnapshot out;
    for (const std::string& stage : kStages) {
        const std::string name = "pipeline." + stage;
        out[stage] = {obs::Registry::global().counter(name + ".hits").value(),
                      obs::Registry::global().counter(name + ".misses").value()};
    }
    return out;
}

StageCounts delta(const StageSnapshot& from, const StageSnapshot& to,
                  const std::string& stage) {
    return {to.at(stage).hits - from.at(stage).hits,
            to.at(stage).misses - from.at(stage).misses};
}

// What the daemon is for, checked by counts rather than timings: after
// one synth job, the same request from another client computes nothing
// and hits every stage the first run called, and the same spec at a new
// frequency computes fewer partitions than a cold run of that request.
TEST(ServiceEngine, WarmSessionServesRepeatsFromItsStageCaches) {
    const DesignSpec spec = small_spec(specgen::GenFamily::Pipeline, 8, 4);
    JobEngine engine(EngineOptions{.workers = 1});
    JobParams p = fast_params();
    p.freq_mhz = {400.0};

    const StageSnapshot start = stage_snapshot();
    const JobResult first =
        run_to_result(engine, make_request(spec, JobKind::Synth, p, "ann"));
    ASSERT_FALSE(first.failed) << first.error;
    const StageSnapshot after_first = stage_snapshot();
    const JobResult repeat =
        run_to_result(engine, make_request(spec, JobKind::Synth, p, "bob"));
    ASSERT_FALSE(repeat.failed) << repeat.error;
    EXPECT_EQ(repeat.csv, first.csv);
    const StageSnapshot after_repeat = stage_snapshot();

    for (const std::string& stage : kStages) {
        const StageCounts cold = delta(start, after_first, stage);
        const StageCounts warm = delta(after_first, after_repeat, stage);
        EXPECT_EQ(warm.misses, 0) << stage;
        // The position LP is solved inside a placement miss, so a run
        // whose placements all hit calls it not at all.
        if (stage == "position_lp") {
            EXPECT_EQ(warm.hits, 0);
            continue;
        }
        EXPECT_GT(cold.hits + cold.misses, 0) << stage;
        EXPECT_EQ(warm.hits, cold.hits + cold.misses) << stage;
    }

    p.freq_mhz = {500.0};
    const JobResult reuse =
        run_to_result(engine, make_request(spec, JobKind::Synth, p, "cy"));
    ASSERT_FALSE(reuse.failed) << reuse.error;
    const StageSnapshot after_reuse = stage_snapshot();
    EXPECT_EQ(reuse.csv, reference_synth_csv(spec, p));  // a cold session
    const StageSnapshot after_cold = stage_snapshot();
    const StageCounts warm = delta(after_repeat, after_reuse, "partition");
    EXPECT_GT(warm.hits, 0);
    EXPECT_LT(warm.misses,
              delta(after_reuse, after_cold, "partition").misses);
}

// ----------------------------------------------------------- coalescing

// K concurrent byte-identical submits from K different clients run ONE
// computation: one service.job span in the trace, every submission its
// own id, and all K results byte-identical to the one-shot reference.
TEST(ServiceEngine, ConcurrentIdenticalSubmitsCoalesceToOneComputation) {
    const DesignSpec spec =
        small_spec(specgen::GenFamily::Pipeline, 8, 7);
    JobParams p = fast_params();
    p.freq_mhz = {400.0};
    const std::string want = reference_synth_csv(spec, p);
    ASSERT_FALSE(want.empty());

    EngineOptions opts;
    opts.workers = 1;
    // Two queue slots (blocker + primary): the 7 duplicates can only be
    // accepted by attaching (attaches consume no queue capacity).
    opts.queue_capacity = 2;
    JobEngine engine(opts);

    ASSERT_TRUE(obs::start_tracing());
    // Park the only worker on a slow distinct job so the primary stays
    // queued — and therefore coalescable — for the whole submit burst,
    // however unfairly the submitter threads get scheduled.
    const DesignSpec blocker_spec =
        small_spec(specgen::GenFamily::Pipeline, 64, 70);
    JobParams blocker_params;  // floorplan on: ~150 ms on a 4-vCPU host
    const Submission blocker = engine.submit(
        make_request(blocker_spec, JobKind::Synth, blocker_params));
    ASSERT_TRUE(blocker.accepted) << blocker.error;

    constexpr int kClients = 8;
    std::vector<std::uint64_t> ids(kClients, 0);
    {
        std::atomic<bool> go{false};
        std::vector<std::thread> submitters;
        submitters.reserve(kClients);
        for (int i = 0; i < kClients; ++i)
            submitters.emplace_back([&, i] {
                while (!go.load()) std::this_thread::yield();
                const Submission sub = engine.submit(make_request(
                    spec, JobKind::Synth, p,
                    "client" + std::to_string(i)));
                ASSERT_TRUE(sub.accepted) << sub.error;
                ids[static_cast<std::size_t>(i)] = sub.id;
            });
        go.store(true);
        for (std::thread& t : submitters) t.join();
    }
    for (const std::uint64_t id : ids) {
        JobStatus st;
        ASSERT_TRUE(engine.wait(id, st));
        EXPECT_EQ(st.state, JobState::Done);
        JobResult r;
        ASSERT_TRUE(engine.result(id, r));
        ASSERT_FALSE(r.failed) << r.error;
        EXPECT_EQ(r.csv, want);  // every client gets the same bytes
    }
    engine.begin_drain();
    engine.drain();
    std::ostringstream trace;
    ASSERT_TRUE(obs::stop_tracing(trace));

    // One span = one "B" plus one "E" event carrying the name. Exactly
    // two jobs computed: the blocker and the one coalesced primary.
    const std::string json = trace.str();
    std::size_t events = 0;
    for (std::size_t at = json.find("\"service.job\"");
         at != std::string::npos;
         at = json.find("\"service.job\"", at + 1))
        ++events;
    EXPECT_EQ(events, 4u);

    const EngineStats st = engine.stats();
    EXPECT_EQ(st.submitted, kClients + 1);
    EXPECT_EQ(st.coalesced, kClients - 1);
    EXPECT_EQ(st.completed, kClients + 1);  // followers complete too
    EXPECT_EQ(st.failed, 0);
}

// ---------------------------------------------------------------- order

// The queue is FIFO: with one worker busy, jobs for specs A, B, A run in
// that order. The second A job (another frequency, so not a coalesced
// duplicate) may not jump ahead of B to reuse A's warm session.
TEST(ServiceEngine, QueuedJobsRunInSubmissionOrder) {
    EngineOptions opts;
    opts.workers = 1;
    JobEngine engine(opts);
    ASSERT_TRUE(obs::start_tracing());
    const Submission blocker = engine.submit(make_request(
        small_spec(specgen::GenFamily::Pipeline, 20, 71), JobKind::Synth,
        JobParams{}));  // floorplan on: tens of milliseconds
    ASSERT_TRUE(blocker.accepted) << blocker.error;

    const DesignSpec a = small_spec(specgen::GenFamily::Pipeline, 8, 8);
    const DesignSpec b = small_spec(specgen::GenFamily::HubAndSpoke, 8, 9);
    std::vector<long long> submitted{static_cast<long long>(blocker.id)};
    for (const auto& [spec, mhz] :
         std::vector<std::pair<const DesignSpec*, double>>{
             {&a, 400.0}, {&b, 400.0}, {&a, 500.0}}) {
        JobParams p = fast_params();
        p.freq_mhz = {mhz};
        const Submission sub =
            engine.submit(make_request(*spec, JobKind::Synth, p));
        ASSERT_TRUE(sub.accepted) << sub.error;
        submitted.push_back(static_cast<long long>(sub.id));
    }
    engine.begin_drain();
    engine.drain();
    std::ostringstream trace;
    ASSERT_TRUE(obs::stop_tracing(trace));

    // The trace lists events by start time: the service.job begins give
    // the run order.
    const JsonParseResult doc = parse_json(trace.str());
    ASSERT_TRUE(doc.ok) << doc.error;
    std::vector<long long> ran;
    for (const JsonValue& ev : doc.value.find("traceEvents")->items()) {
        if (ev.find("name")->as_string() == "service.job" &&
            ev.find("ph")->as_string() == "B")
            ran.push_back(ev.find("args")->find("id")->as_int64());
    }
    EXPECT_EQ(ran, submitted);
}

TEST(ServiceEngine, ThrowingJobReportsFailedWithTheException) {
    JobEngine engine(EngineOptions{.workers = 1});
    const DesignSpec spec =
        small_spec(specgen::GenFamily::Pipeline, 6, 20);
    // Bypasses the protocol's theta > 0 validation on purpose: the grid
    // itself throws, and the engine must turn that into a Failed job
    // instead of losing the job or the worker.
    JobParams p = fast_params();
    p.thetas = {-2.0};
    const Submission sub =
        engine.submit(make_request(spec, JobKind::Explore, p));
    ASSERT_TRUE(sub.accepted) << sub.error;
    JobStatus st;
    ASSERT_TRUE(engine.wait(sub.id, st));
    EXPECT_EQ(st.state, JobState::Failed);
    JobResult r;
    ASSERT_TRUE(engine.result(sub.id, r));
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.error.find("theta"), std::string::npos) << r.error;
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.failed, 1);
    EXPECT_EQ(stats.completed, 0);
    // The worker survived: the next job still runs.
    const JobResult ok = run_to_result(
        engine, make_request(spec, JobKind::Synth, fast_params()));
    EXPECT_FALSE(ok.failed) << ok.error;
}

}  // namespace
}  // namespace sunfloor::service
