// explore_grid and explore_sharded: Fig. 3's outer loop on D_26_media
// over the 32-point grid of inputs.h, analytic backend, floorplan off.
//
// explore_grid runs Explorer::run with 2 pool threads on a fresh session
// per op (cold), then reruns the grid on fresh Explorers over that now
// warm session (hit: every stage cached, no point cache involved) and
// runs three 4-point grids at frequencies the session has not seen
// (reuse: partitions hit, routing and evaluation miss).
//
// The spec is prepared as bench/common.h does (annealing seed 42) and the
// explorer's base seed is its default, so every workload seed explores
// the same designs; the seed orders the reuse grids (ExploreSetup).
//
// explore_sharded runs the same grid through dist::distribute_explore
// with 1 in-process worker and 4 shards: cold without a store, hit
// against a content-addressed store written once per run (untimed), and
// the three 4-point grids without a store. Every CSV must equal the
// single-process Explorer's for the same grid and seed.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "inputs.h"
#include "sunfloor/cas/store.h"
#include "sunfloor/dist/coordinator.h"
#include "sunfloor/dist/shard.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/util/mutex.h"

namespace perfbench {

using namespace sunfloor;

namespace {

constexpr int kGridPoints = 32;
constexpr int kReusePoints = 4;
/// One shard worker. With two racing on a shared store, how much
/// partition and position-LP work one shard reused from another depended
/// on their relative timing (identical cold ops took 1.1 to 2.8 s); one
/// worker runs the 4 shards in turn through the same job queue and codec.
constexpr int kShardWorkers = 1;

struct ExploreSetup {
    DesignSpec spec;
    SynthesisConfig cfg;
    ExploreOptions opts;
    std::vector<GridPoint> points;
    std::vector<std::vector<GridPoint>> reuse_points;  ///< one per kReuseHz
    /// The seeded order the reuse grids run in. The point order itself is
    /// fixed: which points run side by side on the 2 pool threads, or
    /// share one of the 4 contiguous shards, decides how much partition
    /// and LP work they share, and a seeded point order moved the cold op
    /// by up to 10% (explore_grid) and 60% (explore_sharded).
    std::vector<int> reuse_order;
};

ExploreSetup explore_setup(Recorder& rec) {
    const Options& o = rec.opt();
    ExploreSetup s;
    for (int r = 0; r < o.setup_reps; ++r)
        rec.bracketed("setup", [&] {
            s.spec = prepared_benchmark("D_26_media", 42);
        });
    s.cfg = paper_cfg();
    s.cfg.run_floorplan = false;
    s.opts.num_threads = 2;
    s.points = explore_grid_points().enumerate();
    for (const double hz : kReuseHz)
        s.reuse_points.push_back(explore_reuse_points(hz).enumerate());
    s.reuse_order = permutation(static_cast<int>(std::size(kReuseHz)),
                                mix_seed(o.seed, 1));
    return s;
}

void quality_metrics(Recorder& rec, const ExploreResult& res) {
    const double best = best_power_mw(res);
    rec.metric("best_power_mw", best, "mW", 1, best,
               "best-power design on the grid's Pareto front");
    rec.metric("valid_designs", res.stats.valid_designs, "count", 1,
               res.stats.valid_designs, "valid designs per op");
}

/// Commit the filesystem holding `dir` (syncfs), so its pending work is
/// done before the process exits.
void sync_filesystem(const std::string& dir) {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return;
    ::syncfs(fd);
    ::close(fd);
}

/// Sample kind of the reuse grid at kReuseHz[g]: each frequency is its
/// own kind, since the grids differ in work.
std::string reuse_kind(std::size_t g) {
    return "reuse." + std::to_string(static_cast<int>(kReuseHz[g] / 1e6));
}

std::vector<std::string> reuse_kinds() {
    std::vector<std::string> out;
    for (std::size_t g = 0; g < std::size(kReuseHz); ++g)
        out.push_back(reuse_kind(g));
    return out;
}

void class_metrics(Recorder& rec) {
    rec.kind_metric("cold_ms.p50", "cold", 0.5, 1e3, "ms", "median cold op");
    rec.kind_metric("hit_ms.p50", "hit", 0.5, 1e3, "ms", "median hit op");
    rec.kind_metric("hit_ms.p90", "hit", 0.9, 1e3, "ms", "p90 of hit ops");
    rec.sum_metric("reuse_ms.p50", reuse_kinds(), 0.5, 1e3, "ms",
                   "sum over the 3 reuse grids of each grid's median");
}

/// InprocTransport's exact call sequence — frame encode, frame parse and
/// decode, run_shard, response encode, response decode — with each step
/// timed and spanned. Used for the traced run only.
class TimedTransport : public dist::ShardTransport {
  public:
    struct Totals {
        double codec_s = 0.0;
        double payload_bytes = 0.0;
        std::vector<double> shard_s;  ///< run_shard time per job
    };

    dist::ShardResponse run(const dist::ShardRequest& req) override {
        std::string err;
        double codec = 0.0;
        auto t0 = Clock::now();
        std::string frame;
        {
            obs::ScopedSpan span("dist.encode_request");
            frame = dist::make_shard_run_frame(req);
        }
        dist::WorkerRequest wreq;
        bool ok = false;
        {
            obs::ScopedSpan span("dist.decode_request");
            ok = dist::parse_worker_frame(frame, wreq, err);
        }
        codec += seconds_since(t0);
        if (!ok) throw dist::DistError(dist::DistErrorKind::Protocol, err);
        t0 = Clock::now();
        dist::ShardResponse resp;
        {
            obs::ScopedSpan span("dist.run_shard");
            resp = dist::run_shard(wreq.run);
        }
        const double shard = seconds_since(t0);
        t0 = Clock::now();
        std::string rframe;
        {
            obs::ScopedSpan span("dist.encode_response");
            rframe = dist::make_ok_frame(resp);
        }
        dist::ShardResponse out;
        {
            obs::ScopedSpan span("dist.decode_response");
            std::string payload;
            ok = dist::parse_response_frame(rframe, payload, err) &&
                 dist::decode_shard_response(payload, out, err);
        }
        codec += seconds_since(t0);
        if (!ok) throw dist::DistError(dist::DistErrorKind::Protocol, err);

        util::MutexLock lock(mu_);
        totals_.codec_s += codec;
        totals_.payload_bytes +=
            static_cast<double>(frame.size() + rframe.size());
        totals_.shard_s.push_back(shard);
        return out;
    }

    std::string describe() const override { return "timed-inproc"; }

    /// Totals since the last take (the coordinator's threads have joined).
    Totals take() {
        util::MutexLock lock(mu_);
        Totals t = std::move(totals_);
        totals_ = Totals{};
        return t;
    }

  private:
    util::Mutex mu_;
    Totals totals_ SF_GUARDED_BY(mu_);
};

}  // namespace

void run_explore_grid(Recorder& rec) {
    const Options& o = rec.opt();
    const ExploreSetup s = explore_setup(rec);

    // Warm-up (untimed).
    Explorer(s.spec, s.cfg, s.opts).run(s.reuse_points[0]);

    std::string ref_cold;
    std::vector<std::string> ref_reuse(s.reuse_points.size());
    ExploreResult first;
    LayerTotals lt;
    LpResolve lp;
    double pareto_s = 0.0, points = 0.0, designs = 0.0;

    start_trace(o);
    for (int op = 0; op < o.passes; ++op) {
        auto session = std::make_shared<pipeline::SynthesisSession>(s.spec);
        ExploreResult cold;
        const Snapshot before = snapshot();
        double cpu = 0.0;
        const double wall = rec.bracketed("cold", [&] {
            const double cpu0 = process_cpu_s();
            obs::ScopedSpan span("op.cold", "op", op);
            cold = Explorer(session, s.cfg, s.opts).run(s.points);
            cpu = process_cpu_s() - cpu0;
        });
        lt.add(before, wall, cpu);
        const std::string cold_csv = explore_csv(cold);
        if (op == 0) ref_cold = cold_csv;
        else rec.check_same(cold_csv, ref_cold, "explore_grid cold op");

        // Hits, then the reuse grids, bracketed as one group.
        std::vector<double> hit_s, reuse_s;
        std::vector<std::string> hit_csv, reuse_csv;
        const double c0 = rec.fresh_slice();
        for (int k = 0; k < o.hit_reps; ++k) {
            const auto t0 = Clock::now();
            ExploreResult h;
            {
                obs::ScopedSpan span("op.hit", "op", op);
                h = Explorer(session, s.cfg, s.opts).run(s.points);
            }
            hit_s.push_back(seconds_since(t0));
            hit_csv.push_back(explore_csv(h));
        }
        reuse_s.resize(s.reuse_points.size());
        reuse_csv.resize(s.reuse_points.size());
        for (const int g : s.reuse_order) {
            const auto gi = static_cast<std::size_t>(g);
            const auto t0 = Clock::now();
            ExploreResult r;
            {
                obs::ScopedSpan span("op.reuse", "op", op);
                r = Explorer(session, s.cfg, s.opts).run(s.reuse_points[gi]);
            }
            reuse_s[gi] = seconds_since(t0);
            reuse_csv[gi] = explore_csv(r);
        }
        const double c1 = rec.slice();
        for (const double x : hit_s) rec.add("hit", x, 0.5 * (c0 + c1));
        for (std::size_t g = 0; g < reuse_s.size(); ++g)
            rec.add(reuse_kind(g), reuse_s[g], 0.5 * (c0 + c1));
        for (const std::string& csv : hit_csv)
            rec.check_same(csv, cold_csv, "explore_grid hit rerun");
        for (std::size_t g = 0; g < reuse_csv.size(); ++g) {
            if (op == 0) ref_reuse[g] = reuse_csv[g];
            else rec.check_same(reuse_csv[g], ref_reuse[g], "explore_grid reuse op");
        }

        if (o.trace) {
            if (op == 0)  // every op yields the same designs (checked)
                for (const ExplorePointResult& pr : cold.points)
                    lp.add(pr.result.points, s.spec);
            const auto p0 = Clock::now();
            {
                obs::ScopedSpan span("trace_only.global_pareto");
                global_pareto(cold.points);
            }
            pareto_s += seconds_since(p0);
            points += cold.stats.total_points;
            designs += cold.stats.total_designs;
        }
        if (op == 0) first = std::move(cold);
    }
    finish_trace(o);

    const double pass_s = median(rec.normalized("cold"));
    rec.metric("pass_s", pass_s, "s", static_cast<long>(rec.count("cold")),
               median(rec.raw("cold")), "median cold op (32 grid points)");
    rec.metric("jobs_per_s", kGridPoints / pass_s, "1/s",
               static_cast<long>(rec.count("cold")),
               kGridPoints / median(rec.raw("cold")),
               "grid points per second: 32 / pass_s");
    class_metrics(rec);
    quality_metrics(rec, first);

    if (o.trace) {
        lt.threads = s.opts.num_threads;
        rec.pipeline_layers(lt, o.passes);
        const double per = 1.0 / o.passes;
        const double f = rec.run_factor();
        rec.layer("lp.solve_ms", lp.seconds * 1e3 * f, "ms",
                  std::to_string(lp.solves) + " re-solves");
        rec.layer("lp.fallbacks", static_cast<double>(lp.fallbacks), "count");
        rec.layer("explore.points", points * per, "count");
        rec.layer("explore.designs", designs * per, "count");
        rec.layer("explore.pareto_ms", pareto_s * 1e3 * f * per, "ms");
    }
}

void run_explore_sharded(Recorder& rec) {
    const Options& o = rec.opt();
    const ExploreSetup s = explore_setup(rec);

    // The single-process reference CSVs (untimed): explore_grid's
    // Explorer::run for the same grids and seed.
    const std::string ref_csv =
        explore_csv(Explorer(s.spec, s.cfg, s.opts).run(s.points));
    std::vector<std::string> ref_reuse;
    for (const std::vector<GridPoint>& pts : s.reuse_points)
        ref_reuse.push_back(explore_csv(Explorer(s.spec, s.cfg, s.opts).run(pts)));

    ExploreOptions wopts = s.opts;
    wopts.num_threads = 1;  // each shard runs inline on its worker
    std::vector<std::shared_ptr<dist::ShardTransport>> workers;
    std::vector<std::shared_ptr<TimedTransport>> timed;
    for (int w = 0; w < kShardWorkers; ++w) {
        if (o.trace) {
            timed.push_back(std::make_shared<TimedTransport>());
            workers.push_back(timed.back());
        } else {
            workers.push_back(std::make_shared<dist::InprocTransport>());
        }
    }
    const auto take = [&] {
        TimedTransport::Totals all;
        for (const auto& t : timed) {
            TimedTransport::Totals x = t->take();
            all.codec_s += x.codec_s;
            all.payload_bytes += x.payload_bytes;
            all.shard_s.insert(all.shard_s.end(), x.shard_s.begin(),
                               x.shard_s.end());
        }
        return all;
    };
    // Every timed op either runs without a store (cold, reuse) or only
    // reads one (hit); the store is written once per run, untimed. Timed
    // writes of its ~4300 objects were not steady on this host's ext4
    // volume: in one of two identical checkouts run alternately, cold ops
    // went from 2.1 to 3.3-3.9 s after its fourth run while the other's
    // stayed at 2.0-2.5 s, and reads never slowed.
    dist::DistOptions no_store;
    no_store.shards = 4;
    dist::DistOptions with_store = no_store;
    with_store.cas_dir = o.store_dir + "/cas";
    std::filesystem::remove_all(with_store.cas_dir);
    const Snapshot before_store = snapshot();
    rec.check_same(explore_csv(dist::distribute_explore(
                       s.spec, s.cfg, wopts, s.points, workers, with_store)),
                   ref_csv, "explore_sharded store-writing run");
    const Snapshot store_delta = snapshot() - before_store;
    const double object_mb =
        static_cast<double>(
            cas::Store(cas::StoreOptions{with_store.cas_dir}).stats().object_bytes) /
        (1024.0 * 1024.0);
    take();

    ExploreResult first;
    LayerTotals lt;
    Snapshot hit_delta;
    LpResolve lp;
    double codec_s = 0.0, payload = 0.0, hit_shard_s = 0.0;
    std::vector<double> imbalance;

    start_trace(o);
    for (int p = 0; p < o.passes; ++p) {
        // One timed distribute_explore; returns the shard totals (traced).
        const auto timed_op = [&](const std::string& kind, const char* span_name,
                                  const std::vector<GridPoint>& pts,
                                  const dist::DistOptions& dopts,
                                  const std::string& want) {
            const Snapshot before = snapshot();
            double cpu = 0.0;
            ExploreResult out;
            const double wall = rec.bracketed(kind, [&] {
                const double cpu0 = process_cpu_s();
                obs::ScopedSpan span(span_name, "op", p);
                out = dist::distribute_explore(s.spec, s.cfg, wopts, pts,
                                               workers, dopts);
                cpu = process_cpu_s() - cpu0;
            });
            lt.add(before, wall, cpu);
            rec.check_same(explore_csv(out), want, "explore_sharded " + kind + " op");
            if (kind == "hit") hit_delta += snapshot() - before;
            if (p == 0 && kind == "cold") first = std::move(out);
            TimedTransport::Totals t = take();
            codec_s += t.codec_s;
            payload += t.payload_bytes;
            return t;
        };

        const TimedTransport::Totals cold =
            timed_op("cold", "op.cold", s.points, no_store, ref_csv);
        if (o.trace) {
            double mx = 0.0, sum = 0.0;
            for (const double x : cold.shard_s) {
                mx = std::max(mx, x);
                sum += x;
            }
            if (sum > 0) imbalance.push_back(mx * cold.shard_s.size() / sum);
        }
        for (int k = 0; k < o.hit_reps; ++k)
            for (const double x :
                 timed_op("hit", "op.hit", s.points, with_store, ref_csv).shard_s)
                hit_shard_s += x;
        for (const int g : s.reuse_order) {
            const auto gi = static_cast<std::size_t>(g);
            timed_op(reuse_kind(gi), "op.reuse", s.reuse_points[gi], no_store,
                     ref_reuse[gi]);
        }
        if (o.trace && p == 0)
            for (const ExplorePointResult& pr : first.points)
                lp.add(pr.result.points, s.spec);
    }
    finish_trace(o);
    // Deleted, then synced, so the unlinks' filesystem work is done before
    // the process exits rather than inside the next run.
    std::filesystem::remove_all(with_store.cas_dir);
    sync_filesystem(o.store_dir);

    std::vector<std::string> pass_kinds = reuse_kinds();
    pass_kinds.push_back("cold");
    pass_kinds.push_back("hit");
    double pass_s = 0.0, pass_raw = 0.0;
    for (const std::string& k : pass_kinds) {
        pass_s += median(rec.normalized(k));
        pass_raw += median(rec.raw(k));
    }
    rec.metric("pass_s", pass_s, "s", static_cast<long>(rec.count("cold")),
               pass_raw,
               "sum of the medians of the cold op, a hit op and each reuse grid");
    const int pass_points =
        2 * kGridPoints + kReusePoints * static_cast<int>(std::size(kReuseHz));
    rec.metric("jobs_per_s", pass_points / pass_s, "1/s",
               static_cast<long>(rec.count("cold")), pass_points / pass_raw,
               "grid points per second over one pass: 76 / pass_s");
    class_metrics(rec);
    quality_metrics(rec, first);

    if (o.trace) {
        lt.threads = kShardWorkers;
        rec.pipeline_layers(lt, o.passes);
        const double per = 1.0 / o.passes;
        const double f = rec.run_factor();
        rec.layer("lp.solve_ms", lp.seconds * 1e3 * f, "ms",
                  std::to_string(lp.solves) + " re-solves");
        rec.layer("lp.fallbacks", static_cast<double>(lp.fallbacks), "count");
        rec.layer("explore.points",
                  kGridPoints * (1.0 + o.hit_reps) +
                      kReusePoints * static_cast<double>(s.reuse_points.size()),
                  "count");
        rec.layer("explore.designs", first.stats.total_designs, "count",
                  "of the cold op");
        rec.layer("dist.codec_ms", codec_s * 1e3 * f * per, "ms");
        rec.layer("dist.payload_kb", payload / 1024.0 * per, "KiB");
        rec.layer("dist.imbalance", median(imbalance), "ratio",
                  "max / mean shard-job time, median over cold ops");
        rec.layer("cas.hits", hit_delta["cas.hits"] * per, "count", "hit ops");
        rec.layer("cas.misses", lt.delta["cas.misses"] * per, "count");
        rec.layer("cas.stores", store_delta["cas.stores"], "count",
                  "the untimed store-writing run");
        rec.layer("cas.corrupt", (lt.delta["cas.corrupt"] + store_delta["cas.corrupt"]),
                  "count");
        rec.layer("cas.object_mb", object_mb, "MiB", "store after writing");
        const double hits = hit_delta["cas.hits"];
        rec.layer("cas.us_per_hit",
                  hits > 0 ? hit_shard_s * 1e6 * f / hits : 0.0, "us",
                  "hit-op shard time / " + std::to_string(static_cast<long>(hits)) +
                      " hits");
    }
}

}  // namespace perfbench
