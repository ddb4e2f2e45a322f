// synth_paper: cold one-shot synthesis of the seven paper specs (Section
// VIII's experiment), interleaved in a seeded order within each pass.
// The specs are prepared exactly as bench/common.h does (annealing seed
// 42), so the designs, and with them best_power_mw and valid_designs,
// are the same for every workload seed; the seed orders the work.
//
// A cold op is run_synthesis's own body — a fresh SynthesisSession's
// run(cfg) — so the same session then serves the hit samples (reruns of
// the identical config, every stage cached) and one reuse sample (the
// same config with floorplanning off: partition, routing and position-LP
// artifacts hit, evaluation misses). Every class metric sums the seven
// per-spec statistics, like pass_s.
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "inputs.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/pipeline/session.h"

namespace perfbench {

using namespace sunfloor;

namespace {

const char* const kSpecs[] = {"D_26_media", "D_36_4",    "D_36_6",
                              "D_36_8",     "D_35_bot",  "D_65_pipe",
                              "D_38_tvopd"};
constexpr int kNumSpecs = 7;

}  // namespace

void run_synth_paper(Recorder& rec) {
    const Options& o = rec.opt();

    std::vector<DesignSpec> specs;
    for (int r = 0; r < o.setup_reps; ++r) {
        rec.bracketed("setup", [&] {
            specs.clear();
            for (int i = 0; i < kNumSpecs; ++i)
                specs.push_back(prepared_benchmark(kSpecs[i], 42));
        });
    }
    const SynthesisConfig cfg = paper_cfg();
    SynthesisConfig reuse_cfg = cfg;
    reuse_cfg.run_floorplan = false;

    // Warm-up (untimed): page in the code and the allocator.
    run_synthesis(specs[0], cfg);

    std::vector<std::string> ref_cold(kNumSpecs), ref_reuse(kNumSpecs);
    std::vector<double> best_mw(kNumSpecs, 0.0);
    std::vector<int> valid(kNumSpecs, 0);
    LayerTotals lt;
    LpResolve lp;
    long op = 0;

    start_trace(o);
    for (int p = 0; p < o.passes; ++p) {
        for (const int i : permutation(kNumSpecs, mix_seed(o.seed, 1000 + p))) {
            const auto si = static_cast<std::size_t>(i);
            const std::string name = kSpecs[i];
            std::unique_ptr<pipeline::SynthesisSession> session;
            SynthesisResult cold;
            const Snapshot before = snapshot();
            double cpu = 0.0;
            const double wall = rec.bracketed("cold." + name, [&] {
                const double cpu0 = process_cpu_s();
                obs::ScopedSpan span("op.cold", "op", op);
                session = std::make_unique<pipeline::SynthesisSession>(specs[si]);
                obs::ScopedSpan run_span("pipeline.run");
                cold = session->run(cfg);
                cpu = process_cpu_s() - cpu0;
            });
            lt.add(before, wall, cpu);
            const std::string cold_csv = points_csv(cold);
            if (p == 0) {
                ref_cold[si] = cold_csv;
                best_mw[si] = best_power_mw(cold);
                valid[si] = cold.num_valid();
            } else {
                rec.check_same(cold_csv, ref_cold[si], name + " cold pass");
            }

            // Hits and the reuse sample, bracketed as one group.
            std::vector<double> hit_s;
            std::vector<SynthesisResult> hits;
            const double c0 = rec.fresh_slice();
            for (int k = 0; k < o.hit_reps; ++k) {
                const auto t0 = Clock::now();
                {
                    obs::ScopedSpan span("op.hit", "op", op);
                    obs::ScopedSpan run_span("pipeline.run");
                    hits.push_back(session->run(cfg));
                }
                hit_s.push_back(seconds_since(t0));
            }
            SynthesisResult reuse;
            const auto t0 = Clock::now();
            {
                obs::ScopedSpan span("op.reuse", "op", op);
                obs::ScopedSpan run_span("pipeline.run");
                reuse = session->run(reuse_cfg);
            }
            const double reuse_s = seconds_since(t0);
            const double c1 = rec.slice();
            for (const double s : hit_s) rec.add("hit." + name, s, 0.5 * (c0 + c1));
            rec.add("reuse." + name, reuse_s, 0.5 * (c0 + c1));

            for (const SynthesisResult& h : hits)
                rec.check_same(points_csv(h), cold_csv, name + " hit rerun");
            const std::string reuse_csv = points_csv(reuse);
            if (p == 0) ref_reuse[si] = reuse_csv;
            else rec.check_same(reuse_csv, ref_reuse[si], name + " reuse pass");

            // Every pass yields the same designs (checked above), so the
            // first pass's re-solves cover them all.
            if (o.trace && p == 0) lp.add(cold.points, specs[si]);
            ++op;
        }
    }
    finish_trace(o);

    std::vector<std::string> cold_k, hit_k, reuse_k;
    for (const char* s : kSpecs) {
        cold_k.push_back(std::string("cold.") + s);
        hit_k.push_back(std::string("hit.") + s);
        reuse_k.push_back(std::string("reuse.") + s);
    }
    const double pass_s = rec.sum_metric(
        "pass_s", cold_k, 0.5, 1.0, "s",
        "sum over the 7 specs of each spec's median cold synthesis");
    rec.metric("jobs_per_s", kNumSpecs / pass_s, "1/s",
               static_cast<long>(rec.count(cold_k[0])) * kNumSpecs, 0.0,
               "cold syntheses per second: 7 / pass_s");
    rec.sum_metric("cold_ms.p50", cold_k, 0.5, 1e3, "ms",
                   "sum of per-spec cold medians");
    rec.sum_metric("hit_ms.p50", hit_k, 0.5, 1e3, "ms",
                   "sum of per-spec medians of a warm-session rerun");
    rec.sum_metric("hit_ms.p90", hit_k, 0.9, 1e3, "ms",
                   "sum of per-spec p90s of a warm-session rerun");
    rec.sum_metric("reuse_ms.p50", reuse_k, 0.5, 1e3, "ms",
                   "sum of per-spec medians of the floorplan-off rerun");
    double best = 0.0;
    int nvalid = 0;
    for (int i = 0; i < kNumSpecs; ++i) {
        best += best_mw[static_cast<std::size_t>(i)];
        nvalid += valid[static_cast<std::size_t>(i)];
    }
    rec.metric("best_power_mw", best, "mW", kNumSpecs, best,
               "sum over the 7 specs of the best-power design");
    rec.metric("valid_designs", nvalid, "count", kNumSpecs, nvalid,
               "valid designs per pass");

    if (o.trace) {
        lt.threads = 1;
        rec.pipeline_layers(lt, o.passes);
        rec.layer("lp.solve_ms", lp.seconds * 1e3 * rec.run_factor(), "ms",
                  std::to_string(lp.solves) + " re-solves");
        rec.layer("lp.fallbacks", static_cast<double>(lp.fallbacks), "count");
        double warm = 0.0;
        for (const std::string& k : hit_k) warm += median(rec.normalized(k));
        rec.layer("pipeline.warm_run_ms.p50", warm * 1e3, "ms",
                  "sum of per-spec medians");
    }
}

}  // namespace perfbench
