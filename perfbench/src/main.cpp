// sfbench: one workload of the repository benchmark per invocation.
//
//   sfbench --workload NAME --seed N [--trace 0|1] [--passes N]
//           [--hit-reps N] [--window N] [--setup-reps N] [--calib-ref S]
//           [--work-dir DIR] [--store-dir DIR] [--trace-out FILE]
//           --record FILE [--flip-byte]
//
// Writes one JSON record (metrics with units and sample counts, checks,
// calibration, per-layer figures when traced) to --record. perfbench/run.py
// builds this binary, picks the counts and prints the result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.h"
#include "sunfloor/obs/trace.h"

namespace perfbench {

void start_trace(const Options& opts) {
    if (opts.trace) sunfloor::obs::start_tracing();
}

void finish_trace(const Options& opts) {
    if (!opts.trace) return;
    std::ofstream out(opts.trace_out);
    sunfloor::obs::stop_tracing(out);
}

}  // namespace perfbench

namespace {

int usage(const char* msg) {
    std::fprintf(stderr, "sfbench: %s\n", msg);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace perfbench;
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--flip-byte") {
            o.flip_byte = true;
            continue;
        }
        if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload") o.workload = v;
        else if (a == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--trace") o.trace = v == "1";
        else if (a == "--passes") o.passes = std::atoi(v.c_str());
        else if (a == "--hit-reps") o.hit_reps = std::atoi(v.c_str());
        else if (a == "--window") o.window = std::atoi(v.c_str());
        else if (a == "--setup-reps") o.setup_reps = std::atoi(v.c_str());
        else if (a == "--calib-ref") o.calib_ref_s = std::atof(v.c_str());
        else if (a == "--work-dir") o.work_dir = v;
        else if (a == "--store-dir") o.store_dir = v;
        else if (a == "--trace-out") o.trace_out = v;
        else if (a == "--record") o.record_out = v;
        else return usage(("unknown option " + a).c_str());
    }
    if (o.record_out.empty()) return usage("--record is required");
    if (o.trace && o.trace_out.empty()) return usage("--trace 1 needs --trace-out");
    if (o.passes < 1 || o.hit_reps < 1 || o.window < 1 || o.setup_reps < 1)
        return usage("counts must be >= 1");

    // Busy threads: synth_paper and explore_sharded (one shard worker)
    // keep one busy; explore_grid's pool and serve_mixed's engine two.
    o.cpus = o.workload == "synth_paper" || o.workload == "explore_sharded" ? 1 : 2;
    Recorder rec(o);
    try {
        if (o.workload == "synth_paper") run_synth_paper(rec);
        else if (o.workload == "explore_grid") run_explore_grid(rec);
        else if (o.workload == "explore_sharded") run_explore_sharded(rec);
        else if (o.workload == "serve_mixed") run_serve_mixed(rec);
        else return usage(("unknown workload " + o.workload).c_str());
        rec.common_metrics();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "sfbench: %s failed: %s\n", o.workload.c_str(),
                     e.what());
        return 1;
    }
    if (!rec.write(o.record_out)) return usage("cannot write the record");
    return rec.failed() == 0 ? 0 : 3;
}
