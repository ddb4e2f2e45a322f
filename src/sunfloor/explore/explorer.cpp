#include "sunfloor/explore/explorer.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "sunfloor/obs/metrics.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/util/enum_names.h"
#include "sunfloor/util/mutex.h"
#include "sunfloor/util/strings.h"
#include "sunfloor/util/thread_pool.h"

namespace sunfloor {

namespace {

constexpr EnumName<EvalBackend> kBackendNames[] = {
    {EvalBackend::Analytic, "analytic"},
    {EvalBackend::Simulated, "sim"},
    {EvalBackend::Simulated, "simulated"},  // parse-only alias
};

}  // namespace

const char* backend_to_string(EvalBackend b) {
    return enum_to_string<EvalBackend>(kBackendNames, b, "analytic");
}

bool backend_from_string(const std::string& s, EvalBackend& out) {
    return enum_from_string<EvalBackend>(kBackendNames, s, out);
}

std::string backend_choices() {
    return enum_choices<EvalBackend>(kBackendNames);
}

std::uint64_t explore_point_seed(std::uint64_t base_seed,
                                 const std::string& point_key) {
    return splitmix64(base_seed ^ splitmix64(fnv1a64(point_key)));
}

std::uint64_t explore_sim_seed(std::uint64_t point_seed,
                               std::uint64_t sim_seed, int design_index) {
    const std::uint64_t d =
        splitmix64(sim_seed + 0x9e3779b97f4a7c15ULL *
                                  (static_cast<std::uint64_t>(design_index) +
                                   1));
    return splitmix64(point_seed ^ d);
}

ParetoEntry ExploreResult::best_power() const {
    ParetoEntry best{-1, -1};
    double best_mw = 0.0;
    for (const auto& e : pareto) {
        const double mw = design(e).report.power.total_mw();
        if (best.point_index < 0 || mw < best_mw) {
            best = e;
            best_mw = mw;
        }
    }
    return best;
}

namespace {

struct Candidate {
    ParetoEntry entry;
    const EvalReport* report;
};

/// All-pairs strict-dominance filter; keeps candidate order.
std::vector<ParetoEntry> dominance_filter(
    const std::vector<Candidate>& cands) {
    obs::ScopedSpan span("explore.pareto", "candidates",
                         static_cast<long long>(cands.size()));
    std::vector<ParetoEntry> front;
    for (const auto& a : cands) {
        bool dominated = false;
        for (const auto& b : cands) {
            if (&a == &b) continue;
            if (dominates(*b.report, *a.report)) {
                dominated = true;
                break;
            }
        }
        if (!dominated) front.push_back(a.entry);
    }
    auto& reg = obs::Registry::global();
    reg.counter("explore.pareto.candidates")
        .add(static_cast<long long>(cands.size()));
    reg.counter("explore.pareto.insertions")
        .add(static_cast<long long>(front.size()));
    reg.counter("explore.pareto.prunes")
        .add(static_cast<long long>(cands.size() - front.size()));
    return front;
}

/// Workers a pool over `work` items runs: `requested` (0 = the hardware
/// concurrency), but never more than there are items, so 1 means the work
/// runs inline on the caller and 0 that there is none.
int clamp_threads(int requested, std::size_t work) {
    const int threads =
        requested > 0 ? requested : ThreadPool::default_thread_count();
    return static_cast<int>(
        std::min(static_cast<std::size_t>(threads), work));
}

}  // namespace

std::vector<ParetoEntry> global_pareto(
    const std::vector<ExplorePointResult>& points) {
    // A design dominated within its own point is dominated globally
    // (dominates() is the one shared rule), so only the per-point fronts
    // can survive; this keeps the all-pairs dominance scan below over a
    // candidate set that stays small even for huge grids. Repeated
    // architectural points carry copies of the same designs (dominance is
    // strict, so ties would all survive); only the first occurrence of
    // each key contributes candidates.
    std::vector<Candidate> cands;
    std::unordered_set<std::string> seen_keys;
    for (int pi = 0; pi < static_cast<int>(points.size()); ++pi) {
        if (!seen_keys.insert(points[static_cast<std::size_t>(pi)].point.key())
                 .second)
            continue;
        const auto& ps = points[static_cast<std::size_t>(pi)].result.points;
        for (int di : pareto_front(ps))
            cands.push_back(
                {{pi, di}, &ps[static_cast<std::size_t>(di)].report});
    }
    return dominance_filter(cands);
}

std::vector<ParetoEntry> global_pareto_measured(
    const std::vector<ExplorePointResult>& points) {
    // No per-point prefilter here: pareto_front() ranks by *analytic*
    // latency and could drop a design that the measured numbers would
    // keep, so every unique valid design is a candidate. Overridden
    // reports live in a deque for stable addresses.
    std::deque<EvalReport> overridden;
    std::vector<Candidate> cands;
    std::unordered_set<std::string> seen_keys;
    for (int pi = 0; pi < static_cast<int>(points.size()); ++pi) {
        const auto& pr = points[static_cast<std::size_t>(pi)];
        if (!seen_keys.insert(pr.point.key()).second) continue;
        for (int di = 0; di < static_cast<int>(pr.result.points.size());
             ++di) {
            const auto& dp = pr.result.points[static_cast<std::size_t>(di)];
            if (!dp.valid) continue;
            if (const sim::SimReport* sr = pr.sim_report(di)) {
                overridden.push_back(dp.report);
                overridden.back().avg_latency_cycles =
                    sr->avg_latency_cycles;
                cands.push_back({{pi, di}, &overridden.back()});
            } else {
                cands.push_back({{pi, di}, &dp.report});
            }
        }
    }
    return dominance_filter(cands);
}

ExploreResult seeded_explore_result(const std::vector<GridPoint>& points,
                                    std::uint64_t base_seed) {
    ExploreResult out;
    out.points.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        auto& pr = out.points[i];
        pr.point = points[i];
        pr.seed = explore_point_seed(base_seed, points[i].key());
        // The synthesis seed mixes only the partition-stage fields, so
        // points differing in frequency / TSV budget / link width share
        // their partition RNG streams — the precondition for stage reuse.
        pr.synth_seed =
            explore_point_seed(base_seed, points[i].partition_key());
    }
    return out;
}

void summarize_explore(ExploreResult& res, const ExploreOptions& opts) {
    const bool measured = opts.backend == EvalBackend::Simulated;
    res.pareto = measured ? global_pareto_measured(res.points)
                          : global_pareto(res.points);
    for (const auto& e : res.pareto)
        ++res.points[static_cast<std::size_t>(e.point_index)].pareto_survivors;

    auto& st = res.stats;
    st.total_points = static_cast<int>(res.points.size());
    std::unordered_set<std::string> counted_keys;
    for (const auto& pr : res.points) {
        st.total_designs += static_cast<int>(pr.result.points.size());
        st.valid_designs += pr.result.num_valid();
        if (!counted_keys.insert(pr.point.key()).second) continue;
        st.unique_valid_designs += pr.result.num_valid();
        // The simulated backend runs every valid, fully routed design of
        // each distinct point once (Explorer::run's simulation jobs).
        if (measured)
            for (const DesignPoint& dp : pr.result.points)
                if (dp.valid && dp.topo->all_flows_routed())
                    ++st.simulated_designs;
    }
    st.pareto_size = static_cast<int>(res.pareto.size());
    st.dominated_designs = st.unique_valid_designs - st.pareto_size;
    st.num_threads = clamp_threads(opts.num_threads, res.points.size());
    st.backend = opts.backend;
}

Explorer::Explorer(DesignSpec spec, SynthesisConfig base_cfg,
                   ExploreOptions opts)
    : spec_(std::move(spec)), base_cfg_(std::move(base_cfg)), opts_(opts),
      session_(std::make_shared<pipeline::SynthesisSession>(spec_)) {}

Explorer::Explorer(std::shared_ptr<pipeline::SynthesisSession> session,
                   SynthesisConfig base_cfg, ExploreOptions opts)
    : spec_(session->spec()), base_cfg_(std::move(base_cfg)), opts_(opts),
      session_(std::move(session)) {}

ExploreResult Explorer::run(const ParamGrid& grid) const {
    return run(grid.enumerate());
}

ExploreResult Explorer::run(const std::vector<GridPoint>& points) const {
    const auto t0 = std::chrono::steady_clock::now();

    const pipeline::SessionStats stage_before = session_->stats();
    ExploreResult out = seeded_explore_result(points, opts_.base_seed);

    // Every point runs through the shared session. A repeated point (same
    // key, so same seed) is served from its stage caches, bit-identical
    // to a fresh synthesis (see pipeline/session.h).
    const auto evaluate = [&](std::size_t i) {
        obs::ScopedSpan span("explore.point", "index",
                             static_cast<long long>(i));
        const GridPoint& p = points[i];
        SynthesisConfig cfg = p.apply(base_cfg_);
        cfg.seed = out.points[i].synth_seed;
        out.points[i].result = session_->run(cfg, p.phase);
    };

    // Never more workers than points; summarize_explore reports the same
    // clamp as num_threads.
    const int threads = clamp_threads(opts_.num_threads, points.size());
    if (threads <= 1) {
        for (std::size_t i = 0; i < points.size(); ++i) evaluate(i);
    } else {
        ThreadPool pool(threads);
        pool.parallel_for(points.size(), evaluate);
    }

    if (opts_.backend == EvalBackend::Simulated) {
        // Simulate every valid design of every *distinct* architectural
        // point; repeated keys copy the first occurrence's reports (the
        // derived seeds coincide, so the copy is what a re-run would
        // produce). Seeds never depend on the worker, keeping N-thread
        // runs bit-identical to serial ones.
        struct SimJob {
            std::size_t point;
            int design;
        };
        std::vector<SimJob> jobs;
        std::vector<std::size_t> first(out.points.size());
        std::unordered_map<std::string, std::size_t> first_of_key;
        for (std::size_t i = 0; i < out.points.size(); ++i) {
            auto& pr = out.points[i];
            first[i] = first_of_key.emplace(pr.point.key(), i).first->second;
            if (first[i] != i) continue;
            pr.sim_reports.assign(pr.result.points.size(), sim::SimReport{});
            for (int d = 0;
                 d < static_cast<int>(pr.result.points.size()); ++d) {
                const DesignPoint& dp =
                    pr.result.points[static_cast<std::size_t>(d)];
                if (dp.valid && dp.topo->all_flows_routed())
                    jobs.push_back({i, d});
            }
        }
        // Distinct grid points routinely synthesize identical
        // topologies (only non-architectural axes differ); cache built
        // SimIndexes by content key so each distinct flattening happens
        // once and is shared — the index is immutable, each job drives
        // its own Simulator over it.
        util::Mutex index_mu;
        std::unordered_map<std::string,
                           std::shared_ptr<const sim::SimIndex>>
            index_cache;
        const auto simulate_job = [&](std::size_t j) {
            const SimJob& job = jobs[j];
            obs::ScopedSpan span("explore.sim", "design", job.design);
            auto& pr = out.points[job.point];
            const SynthesisConfig cfg = pr.point.apply(base_cfg_);
            sim::SimParams sp = opts_.sim;
            sp.seed = explore_sim_seed(pr.seed, opts_.sim.seed, job.design);
            // Measure with the discipline the point was synthesized
            // under: adaptive policies select outputs per hop, so the
            // routing axis shifts measured latency, not just the paths.
            sp.routing = cfg.routing;
            const Topology& topo =
                pr.result.points[static_cast<std::size_t>(job.design)].topo;
            const std::string key =
                sim::sim_index_key(topo, spec_, cfg.eval, sp.routing);
            std::shared_ptr<const sim::SimIndex> index;
            {
                util::MutexLock lock(index_mu);
                auto it = index_cache.find(key);
                if (it != index_cache.end()) index = it->second;
            }
            if (!index) {
                // Built outside the lock: concurrent builders of the
                // same key produce identical indexes, first insert wins.
                auto built = std::make_shared<const sim::SimIndex>(
                    sim::build_sim_index(topo, spec_, cfg.eval,
                                         sp.routing));
                util::MutexLock lock(index_mu);
                index = index_cache.emplace(key, std::move(built))
                            .first->second;
            }
            pr.sim_reports[static_cast<std::size_t>(job.design)] =
                sim::Simulator(index).run(spec_, cfg.eval, sp);
        };
        const int sim_threads = clamp_threads(opts_.num_threads, jobs.size());
        if (sim_threads <= 1) {
            for (std::size_t j = 0; j < jobs.size(); ++j) simulate_job(j);
        } else {
            ThreadPool pool(sim_threads);
            pool.parallel_for(jobs.size(), simulate_job);
        }
        for (std::size_t i = 0; i < out.points.size(); ++i)
            if (first[i] != i)
                out.points[i].sim_reports = out.points[first[i]].sim_reports;
    }

    summarize_explore(out, opts_);
    auto& st = out.stats;
    st.stage = session_->stats() - stage_before;

    auto& reg = obs::Registry::global();
    reg.counter("explore.points.total").add(st.total_points);
    reg.counter("explore.designs.simulated").add(st.simulated_designs);
    st.elapsed_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    return out;
}

}  // namespace sunfloor
