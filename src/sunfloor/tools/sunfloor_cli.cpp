// sunfloor_cli — command-line front end of the SunFloor 3D tool.
//
// Usage:
//   sunfloor_cli --design <file> [options]         # Section IV input file
//   sunfloor_cli --benchmark <name> [options]      # built-in benchmark
//   sunfloor_cli explore (--design <file> | --benchmark <name> |
//                         --family <f>) [options]
//   sunfloor_cli simulate (--design <file> | --benchmark <name>) [options]
//   sunfloor_cli generate --family <f> [options]   # emit a generated spec
//   sunfloor_cli submit --connect <addr> (--design <file> |
//                       --benchmark <name>) [options]   # job to sunfloord
//   sunfloor_cli status --connect <addr> --id <n>
//   sunfloor_cli result --connect <addr> --id <n> [--wait]
//   sunfloor_cli cas (stats | gc) --cas <dir> [--max-bytes <n>]
//
// Synthesis options:
//   --freq <MHz>[,<MHz>...]   operating points to sweep  (default 400)
//   --max-ill <n>             inter-layer link budget    (default 25)
//   --alpha <0..1>            PG bandwidth/latency blend (default 1.0)
//   --phase <auto|1|2>        synthesis phase            (default auto)
//   --routing <policy>        routing policy: up-down|west-first|odd-even
//                             (default up-down, the paper's discipline)
//   --seed <n>                RNG seed, 0..2^63-1        (default fixed)
//                             (every subcommand's --seed takes this range)
//   --no-floorplan            skip NoC insertion legalization
//   --out <prefix>            write <prefix>_topology.dot,
//                             <prefix>_layer<k>.svg, <prefix>_points.csv
//   --list-benchmarks         print built-in benchmark names and exit
//
// Explore options (each *-list axis expands the parameter grid):
//   --freq <MHz>[,...]        frequency axis             (default 400)
//   --max-tsvs <n>[,...]      TSV budget axis, in inter-layer links
//                             (the paper's max_ill)      (default 25)
//   --width <bits>[,...]      link width axis            (default 32)
//   --phase <auto|1|2>[,...]  synthesis phase axis       (default auto)
//   --theta <v>[,...]         fixed-theta axis           (default sweep)
//   --routing <p>[,...]       routing-policy axis        (default up-down)
//   --alpha <0..1>            PG bandwidth/latency blend (default 1.0)
//   --threads <n>             worker threads; 0 = all cores (default 0)
//   --backend <analytic|sim>  Pareto ranking backend     (default analytic)
//   --rate <scale>            sim backend: injection scale (default 1.0)
//   --traffic <kind>          sim backend: uniform|bursty|hotspot
//   --packet-len <flits>      sim backend: packet length (default 4)
//   --out <prefix>            write <prefix>_explore.csv, _explore.json
//
// Distributed exploration (explore; results are byte-identical to the
// single-process run of the same grid):
//   --shards <n>              split the grid into n contiguous shard jobs
//   --shard-transport <t>     inproc|socket (default inproc; socket ships
//                             jobs to sunfloor_shard_worker processes)
//   --shard-addrs <a>[,...]   worker addresses (socket transport); one
//                             transport per address, jobs re-queue on
//                             worker failure
//   --cas <dir>               content-addressed artifact store shared by
//                             all shards (also usable without --shards);
//                             warm stages are loaded instead of recomputed
//   --cas-max-bytes <n>       size bound handed to the shards' stores
//
// CAS maintenance (cas stats | cas gc):
//   --cas <dir>               the store directory      (required)
//   --max-bytes <n>           gc: evict LRU objects down to this bound
//
// Generator options (generate, and explore --family; specgen families):
//   --family <f>              pipeline|hub|layered-dag
//   --cores <n>               total cores                (default 24)
//   --layers <n>              3-D layers                 (default 3)
//   --peak-bw <mbps>          most-loaded core aggregate (default 900)
//   --skew <s>                bandwidth skew 0..4        (default 0)
//   --lat-slack <s>           latency constraint scale   (default 1.5)
//   --resp <f>                response pairing fraction  (default 0.5)
//   --hubs <k>                hub family: hot cores      (default 2)
//   --hotspot <f>             hub family: hub bw share   (default 0.75)
//   --stages <n>              dag family: stage count    (default 6)
//   --fanout <n>              dag family: max fan-in     (default 3)
// generate only:
//   --seed <n>                generator seed             (default 1)
//   --out <file>              write the spec file (default: stdout)
// explore --family only:
//   --instances <n>           members to generate        (default 4)
//   --gen-seed <n>            first member seed          (default 1)
//
// Simulate options (flit-level simulation of the best synthesized design):
//   --freq <MHz>              operating point            (default 400)
//   --max-ill, --alpha, --phase, --routing, --seed, --no-floorplan
//                             as above; adaptive policies (west-first,
//                             odd-even) also select outputs per hop
//   --rate <s>[,<s>...]       injection-scale sweep (default 0.25..1.0)
//   --traffic <kind>          uniform|bursty|hotspot     (default uniform)
//   --packet-len <flits>      flits per packet           (default 4)
//   --buffers <flits>         per-link FIFO depth        (default 4)
//   --warmup <cycles>         warmup phase               (default 2000)
//   --measure <cycles>        measurement window         (default 10000)
//   --out <prefix>            write <prefix>_sim.csv
//
// Service options (submit/status/result talk to a running sunfloord):
//   --connect <addr>          unix socket path or host:port (required)
//   --client <name>           client name for quota accounting
//   --explore                 submit an explore job (axes may be lists)
//   --freq, --max-tsvs, --width, --phase, --theta, --routing, --alpha,
//   --seed, --no-floorplan    job config; synth jobs take single values,
//                             explore jobs accept comma lists per axis
//   --wait                    block until done; result CSV on stdout
//                             (byte-identical to the one-shot CLI's
//                             _points.csv / _explore.csv for the same
//                             request)
//   --id <n>                  job id (status/result)
//
// Observability (synth, explore and simulate):
//   --trace <file>            span trace of the run, Chrome/Perfetto
//                             trace-event JSON (open in ui.perfetto.dev)
//   --metrics <file|->        metrics-registry snapshot JSON; '-' writes
//                             it to stdout for scripting and moves the
//                             human-readable report to stderr, so stdout
//                             holds only the JSON
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sunfloor/cas/store.h"
#include "sunfloor/core/synthesizer.h"
#include "sunfloor/dist/coordinator.h"
#include "sunfloor/explore/explorer.h"
#include "sunfloor/explore/export.h"
#include "sunfloor/explore/family_sweep.h"
#include "sunfloor/floorplan/annealer.h"
#include "sunfloor/io/dot.h"
#include "sunfloor/io/floorplan_dump.h"
#include "sunfloor/io/report.h"
#include "sunfloor/obs/metrics.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/routing/policy.h"
#include "sunfloor/sim/simulator.h"
#include "sunfloor/service/client.h"
#include "sunfloor/service/protocol.h"
#include "sunfloor/spec/benchmarks.h"
#include "sunfloor/specgen/specgen.h"
#include "sunfloor/tools/obs_sinks.h"
#include "sunfloor/util/json.h"
#include "sunfloor/util/strings.h"

using namespace sunfloor;

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s (--design <file> | --benchmark <name>) "
                 "[--freq MHz[,MHz...]] [--max-ill N] [--alpha A] "
                 "[--phase auto|1|2] [--routing up-down|west-first|odd-even] "
                 "[--seed N] [--no-floorplan] "
                 "[--out prefix] [--trace file] [--metrics file|-] "
                 "[--list-benchmarks]\n"
                 "       %s explore (--design <file> | --benchmark <name> | "
                 "--family pipeline|hub|layered-dag [generator knobs] "
                 "[--instances N] [--gen-seed N]) "
                 "[--freq MHz[,...]] [--max-tsvs N[,...]] [--width B[,...]] "
                 "[--phase auto|1|2[,...]] [--theta V[,...]] "
                 "[--routing P[,...]] [--alpha A] "
                 "[--threads N] [--seed N] [--no-floorplan] "
                 "[--backend analytic|sim] [--rate S] "
                 "[--traffic uniform|bursty|hotspot] [--packet-len N] "
                 "[--shards N] [--shard-transport inproc|socket] "
                 "[--shard-addrs A[,A...]] [--cas dir] [--cas-max-bytes N] "
                 "[--out prefix] [--trace file] [--metrics file|-]\n"
                 "       %s simulate (--design <file> | --benchmark <name>) "
                 "[--freq MHz] [--max-ill N] [--alpha A] [--phase auto|1|2] "
                 "[--routing up-down|west-first|odd-even] "
                 "[--seed N] [--no-floorplan] [--rate S[,S...]] "
                 "[--traffic uniform|bursty|hotspot] [--packet-len N] "
                 "[--buffers N] [--warmup N] [--measure N] [--out prefix] "
                 "[--trace file] [--metrics file|-]\n"
                 "       %s generate --family pipeline|hub|layered-dag "
                 "[--cores N] [--layers N] [--peak-bw MBPS] [--skew S] "
                 "[--lat-slack S] [--resp F] [--hubs K] [--hotspot F] "
                 "[--stages N] [--fanout N] [--seed N] [--out file]\n"
                 "       %s submit --connect <addr> (--design <file> | "
                 "--benchmark <name>) [--client NAME] [--explore] "
                 "[--freq MHz[,...]] [--max-tsvs N[,...]] [--width B[,...]] "
                 "[--phase auto|1|2[,...]] [--theta V[,...]] "
                 "[--routing P[,...]] [--alpha A] [--seed N] "
                 "[--no-floorplan] [--wait]\n"
                 "       %s status --connect <addr> --id <n>\n"
                 "       %s result --connect <addr> --id <n> [--wait]\n"
                 "       %s cas (stats | gc) --cas <dir> [--max-bytes N]\n",
                 argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0);
    return 2;
}

/// Load a design file, or a benchmark with the annealed placement the
/// benches use. Returns false (with a message on stderr) on failure.
bool load_spec(const std::string& design_file, const std::string& benchmark,
               DesignSpec& spec) {
    if (!design_file.empty()) {
        const ParseResult parsed = parse_design_file(design_file);
        if (!parsed.ok) {
            std::fprintf(stderr, "parse error: %s\n", parsed.error.c_str());
            return false;
        }
        spec = parsed.spec;
        return true;
    }
    try {
        spec = make_benchmark(benchmark);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return false;
    }
    AnnealOptions fopts;
    fopts.wirelength_weight = 5e-4;
    Rng rng(42);
    floorplan_design_layers(spec.cores, spec.comm, fopts, rng);
    return true;
}

/// Uniform parse-failure report for enum-valued flags (--phase, --backend,
/// --traffic). All of them parse case-insensitively through one
/// enum_names table per enum; this prints the matching canonical choices.
int bad_enum_value(const char* flag, const char* value,
                   const std::string& choices) {
    std::fprintf(stderr, "bad %s value '%s' (expected %s)\n", flag,
                 value ? value : "", choices.c_str());
    return 2;
}

using tools::ObsSinks;

/// Parse a "400,600" MHz list into Hz, shared by both subcommands; prints
/// the offending token and returns false on a malformed or non-positive
/// entry.
bool parse_freq_list_hz(const char* arg, std::vector<double>& out) {
    out.clear();
    for (const auto& part : split(arg, ',')) {
        double mhz = 0.0;
        if (!parse_double(part, mhz) || mhz <= 0.0) {
            std::fprintf(stderr, "bad --freq value '%s'\n", part.c_str());
            return false;
        }
        out.push_back(mhz * 1e6);
    }
    return !out.empty();
}

bool parse_double_list(const char* arg, std::vector<double>& out) {
    out.clear();
    for (const auto& part : split(arg, ',')) {
        double v = 0.0;
        if (!parse_double(part, v)) return false;
        out.push_back(v);
    }
    return !out.empty();
}

bool parse_int_list(const char* arg, std::vector<int>& out) {
    out.clear();
    for (const auto& part : split(arg, ',')) {
        int v = 0;
        if (!parse_int(part, v)) return false;
        out.push_back(v);
    }
    return !out.empty();
}

/// Every `--seed` and `--gen-seed`: a 64-bit integer >= 0, read the same
/// way by each subcommand, so a one-shot run reproduces a served job.
bool parse_seed(const char* arg, long long& out) {
    return arg != nullptr && parse_int64(arg, out) && out >= 0;
}

/// Generator knobs shared by `generate` and `explore --family`. Returns
/// 1 when `arg` (plus its value) was consumed, 0 when it is not a
/// generator flag, -1 on a bad value (message printed). Range checks live
/// in GenParams::validate(); here only the parse can fail.
template <typename NextFn>
int parse_gen_flag(const std::string& arg, NextFn&& next,
                   specgen::GenParams& gp, bool& have_family) {
    const auto bad = [&](const char* v) {
        std::fprintf(stderr, "bad %s value '%s'\n", arg.c_str(),
                     v ? v : "");
        return -1;
    };
    const auto int_knob = [&](int& out) {
        const char* v = next();
        return (v && parse_int(v, out)) ? 1 : bad(v);
    };
    const auto double_knob = [&](double& out) {
        const char* v = next();
        return (v && parse_double(v, out)) ? 1 : bad(v);
    };
    if (arg == "--family") {
        const char* v = next();
        if (!v || !specgen::family_from_string(v, gp.family)) {
            bad_enum_value("--family", v, specgen::family_choices());
            return -1;
        }
        have_family = true;
        return 1;
    }
    if (arg == "--cores") return int_knob(gp.num_cores);
    if (arg == "--layers") return int_knob(gp.num_layers);
    if (arg == "--peak-bw") return double_knob(gp.peak_core_bw_mbps);
    if (arg == "--skew") return double_knob(gp.bw_skew);
    if (arg == "--lat-slack") return double_knob(gp.latency_slack);
    if (arg == "--resp") return double_knob(gp.response_fraction);
    if (arg == "--hubs") return int_knob(gp.num_hubs);
    if (arg == "--hotspot") return double_knob(gp.hotspot_fraction);
    if (arg == "--stages") return int_knob(gp.stages);
    if (arg == "--fanout") return int_knob(gp.max_fanout);
    return 0;
}

int run_generate(int argc, char** argv) {
    specgen::GenParams gp;
    bool have_family = false;
    long long seed = 1;
    std::string out_path;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--seed") {
            if (!parse_seed(next(), seed)) return usage(argv[0]);
        } else if (arg == "--out") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            out_path = v;
        } else {
            const int r = parse_gen_flag(arg, next, gp, have_family);
            if (r < 0) return 2;
            if (r == 0) {
                std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
                return usage(argv[0]);
            }
        }
    }
    if (!have_family) {
        std::fprintf(stderr, "generate requires --family (expected %s)\n",
                     specgen::family_choices().c_str());
        return 2;
    }

    DesignSpec spec;
    try {
        spec = specgen::generate(gp, static_cast<std::uint64_t>(seed));
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    std::ostringstream os;
    write_design(os, spec);
    const std::string text = os.str();

    // Enforce the round-trip guarantee at run time: the emitted file must
    // parse back and re-serialize to exactly these bytes.
    std::istringstream is(text);
    const ParseResult rt = parse_design(is, spec.name);
    std::ostringstream os2;
    if (rt.ok) write_design(os2, rt.spec);
    if (!rt.ok || os2.str() != text) {
        std::fprintf(stderr,
                     "internal error: generated spec does not round-trip "
                     "(%s)\n",
                     rt.ok ? "reserialization differs" : rt.error.c_str());
        return 1;
    }

    if (out_path.empty()) {
        std::fputs(text.c_str(), stdout);
    } else {
        std::ofstream f(out_path);
        if (!f || !(f << text) || !f.flush()) {
            std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
            return 1;
        }
        std::printf("wrote %s: %s, %d cores, %d layers, %d flows\n",
                    out_path.c_str(), spec.name.c_str(),
                    spec.cores.num_cores(), spec.cores.num_layers(),
                    spec.comm.num_flows());
    }
    return 0;
}

/// Render `t` as the aligned report table into `out`.
void print_table(FILE* out, const Table& t) {
    std::ostringstream ss;
    t.write_pretty(ss);
    std::fputs(ss.str().c_str(), out);
}

/// explore --family: the same architectural grid swept over every
/// generated member of a spec family (explore/family_sweep.h).
int run_explore_family(const specgen::GenParams& gp, int instances,
                       long long gen_seed, const SynthesisConfig& cfg,
                       const ParamGrid& grid, const ExploreOptions& opts,
                       const std::string& out_prefix, FILE* out) {
    std::fprintf(out,
                 "family %s: %d member(s), seeds %lld..%lld, %d cores, "
                 "%d layers, skew %g\n",
                 specgen::family_to_string(gp.family), instances, gen_seed,
                 gen_seed + instances - 1, gp.num_cores, gp.num_layers,
                 gp.bw_skew);
    std::fprintf(out, "grid: %zu architectural points per member\n",
                 grid.cartesian_size());

    FamilySweepResult fam;
    try {
        fam = explore_generated_family(
            gp,
            family_seeds(static_cast<std::uint64_t>(gen_seed), instances),
            cfg, grid, opts);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    Table t({"seed", "spec", "cores", "flows", "valid", "pareto",
             "best_power_mw", "best_latency_cycles"});
    for (const auto& m : fam.members) {
        const ParetoEntry bp = m.result.best_power();
        double mw = -1.0;
        double lat = -1.0;
        if (bp.point_index >= 0) {
            const DesignPoint& dp = m.result.design(bp);
            mw = dp.report.power.total_mw();
            lat = dp.report.avg_latency_cycles;
        }
        t.add_row({static_cast<long long>(m.spec_seed), m.spec_name,
                   static_cast<long long>(m.num_cores),
                   static_cast<long long>(m.num_flows),
                   static_cast<long long>(m.result.stats.valid_designs),
                   static_cast<long long>(m.result.stats.pareto_size), mw,
                   lat});
    }
    std::fprintf(out, "\n");
    print_table(out, t);
    std::fprintf(out,
                 "\n%d/%zu member(s) feasible, %d valid designs, "
                 "%d Pareto designs in %.0f ms\n",
                 fam.feasible_members, fam.members.size(),
                 fam.total_valid_designs, fam.total_pareto_designs,
                 fam.elapsed_ms);

    if (!out_prefix.empty()) {
        if (!t.save_csv(out_prefix + "_family.csv")) {
            std::fprintf(stderr, "failed to write %s_family.csv\n",
                         out_prefix.c_str());
            return 1;
        }
        std::fprintf(out, "wrote %s_family.csv\n", out_prefix.c_str());
    }
    if (fam.total_valid_designs == 0) {
        std::fprintf(stderr, "\nno valid design in any family member\n");
        return 1;
    }
    return 0;
}

int run_explore(int argc, char** argv) {
    std::string design_file;
    std::string benchmark;
    std::string out_prefix;
    SynthesisConfig cfg;
    ExploreOptions opts;
    opts.num_threads = 0;  // all cores
    ParamGrid grid;
    const char* sim_only_flag = nullptr;  // sim flag seen, for validation
    specgen::GenParams gp;
    bool have_family = false;
    int instances = 4;
    long long gen_seed = 1;
    std::string family_only_flag;  // generator flag seen, for validation
    int shards = 0;                // 0 = single-process explore
    bool shard_socket = false;
    std::vector<std::string> shard_addrs;
    std::string dist_only_flag;    // shard flag seen, for validation
    std::string cas_dir;
    long long cas_max_bytes = 0;
    ObsSinks sinks;

    for (int i = 2; i < argc; ++i) try {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--design") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            design_file = v;
        } else if (arg == "--benchmark") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            benchmark = v;
        } else if (arg == "--freq") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            std::vector<double> hz;
            if (!parse_freq_list_hz(v, hz)) return 2;
            grid.set_axis(ParamAxis::frequencies_hz(hz));
        } else if (arg == "--max-tsvs") {
            const char* v = next();
            std::vector<int> tsvs;
            if (!v || !parse_int_list(v, tsvs)) return usage(argv[0]);
            grid.set_axis(ParamAxis::max_tsvs(tsvs));
        } else if (arg == "--width") {
            const char* v = next();
            std::vector<int> widths;
            if (!v || !parse_int_list(v, widths)) return usage(argv[0]);
            grid.set_axis(ParamAxis::link_widths_bits(widths));
        } else if (arg == "--phase") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            std::vector<SynthesisPhase> phases;
            for (const auto& part : split(v, ',')) {
                SynthesisPhase p;
                if (!phase_from_string(part, p))
                    return bad_enum_value("--phase", part.c_str(),
                                          phase_choices());
                phases.push_back(p);
            }
            grid.set_axis(ParamAxis::phases(phases));
        } else if (arg == "--theta") {
            const char* v = next();
            std::vector<double> thetas;
            if (!v || !parse_double_list(v, thetas)) return usage(argv[0]);
            grid.set_axis(ParamAxis::thetas(thetas));
        } else if (arg == "--routing") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            std::vector<routing::RoutingPolicyId> policies;
            for (const auto& part : split(v, ',')) {
                routing::RoutingPolicyId p;
                if (!routing::routing_from_string(part, p))
                    return bad_enum_value("--routing", part.c_str(),
                                          routing::routing_choices());
                policies.push_back(p);
            }
            grid.set_axis(ParamAxis::routing_policies(policies));
        } else if (arg == "--alpha") {
            const char* v = next();
            if (!v || !parse_double(v, cfg.alpha)) return usage(argv[0]);
        } else if (arg == "--threads") {
            const char* v = next();
            if (!v || !parse_int(v, opts.num_threads)) return usage(argv[0]);
        } else if (arg == "--seed") {
            long long seed = 0;
            if (!parse_seed(next(), seed)) return usage(argv[0]);
            opts.base_seed = static_cast<std::uint64_t>(seed);
        } else if (arg == "--no-floorplan") {
            cfg.run_floorplan = false;
        } else if (arg == "--backend") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            if (!backend_from_string(v, opts.backend))
                return bad_enum_value("--backend", v, backend_choices());
        } else if (arg == "--rate") {
            const char* v = next();
            if (!v || !parse_double(v, opts.sim.inject.injection_scale) ||
                opts.sim.inject.injection_scale < 0.0)
                return usage(argv[0]);
            sim_only_flag = "--rate";
        } else if (arg == "--traffic") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            if (!sim::traffic_from_string(v, opts.sim.inject.traffic))
                return bad_enum_value("--traffic", v,
                                      sim::traffic_choices());
            sim_only_flag = "--traffic";
        } else if (arg == "--packet-len") {
            const char* v = next();
            if (!v || !parse_int(v, opts.sim.inject.packet_length_flits) ||
                opts.sim.inject.packet_length_flits < 1)
                return usage(argv[0]);
            sim_only_flag = "--packet-len";
        } else if (arg == "--shards") {
            const char* v = next();
            if (!v || !parse_int(v, shards) || shards < 1)
                return usage(argv[0]);
        } else if (arg == "--shard-transport") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            const std::string t = v;
            if (t == "inproc")
                shard_socket = false;
            else if (t == "socket")
                shard_socket = true;
            else
                return bad_enum_value("--shard-transport", v,
                                      "inproc|socket");
            dist_only_flag = "--shard-transport";
        } else if (arg == "--shard-addrs") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            shard_addrs = split(v, ',');
            if (shard_addrs.empty()) return usage(argv[0]);
            shard_socket = true;
        } else if (arg == "--cas") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            cas_dir = v;
        } else if (arg == "--cas-max-bytes") {
            const char* v = next();
            if (!v || !parse_int64(v, cas_max_bytes) || cas_max_bytes < 0)
                return usage(argv[0]);
        } else if (arg == "--out") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            out_prefix = v;
        } else if (arg == "--instances") {
            const char* v = next();
            if (!v || !parse_int(v, instances) || instances < 1)
                return usage(argv[0]);
            family_only_flag = "--instances";
        } else if (arg == "--gen-seed") {
            if (!parse_seed(next(), gen_seed)) return usage(argv[0]);
            family_only_flag = "--gen-seed";
        } else {
            const int ob = sinks.parse_flag(arg, next);
            if (ob < 0) return usage(argv[0]);
            if (ob == 1) continue;
            const int r = parse_gen_flag(arg, next, gp, have_family);
            if (r < 0) return 2;
            if (r == 0) {
                std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
                return usage(argv[0]);
            }
            if (arg != "--family") family_only_flag = arg;
        }
    } catch (const std::invalid_argument& e) {  // out-of-domain axis value
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    const int sources = static_cast<int>(!design_file.empty()) +
                        static_cast<int>(!benchmark.empty()) +
                        static_cast<int>(have_family);
    if (sources != 1) return usage(argv[0]);
    if (sim_only_flag && opts.backend != EvalBackend::Simulated) {
        std::fprintf(stderr,
                     "%s only affects the simulated backend; add "
                     "--backend sim\n",
                     sim_only_flag);
        return 2;
    }
    if (!family_only_flag.empty() && !have_family) {
        std::fprintf(stderr,
                     "%s only affects generated families; add --family\n",
                     family_only_flag.c_str());
        return 2;
    }
    if (shards == 0 && !shard_addrs.empty())
        shards = static_cast<int>(shard_addrs.size());
    if (shards == 0 && !dist_only_flag.empty()) {
        std::fprintf(stderr,
                     "%s only affects distributed runs; add --shards\n",
                     dist_only_flag.c_str());
        return 2;
    }
    if (have_family && (shards > 0 || !cas_dir.empty())) {
        std::fprintf(stderr,
                     "--shards/--cas do not apply to generated families\n");
        return 2;
    }
    if (shard_socket && shard_addrs.empty()) {
        std::fprintf(stderr,
                     "--shard-transport socket requires --shard-addrs\n");
        return 2;
    }

    if (!sinks.open()) return 1;
    FILE* const out = sinks.report();

    if (have_family) {
        const int rc = run_explore_family(gp, instances, gen_seed, cfg,
                                          grid, opts, out_prefix, out);
        if (!sinks.finish() && rc == 0) return 1;
        return rc;
    }

    DesignSpec spec;
    if (!load_spec(design_file, benchmark, spec)) return 1;
    std::fprintf(out, "design '%s': %d cores, %d layers, %d flows\n",
                 spec.name.c_str(), spec.cores.num_cores(),
                 spec.cores.num_layers(), spec.comm.num_flows());
    std::fprintf(out, "grid: %zu architectural points\n",
                 grid.cartesian_size());

    ExploreResult res;
    if (shards > 0) {
        std::vector<std::shared_ptr<dist::ShardTransport>> workers;
        if (shard_socket) {
            for (const std::string& a : shard_addrs)
                workers.push_back(std::make_shared<dist::SocketTransport>(a));
        } else {
            for (int s = 0; s < shards; ++s)
                workers.push_back(std::make_shared<dist::InprocTransport>());
        }
        dist::DistOptions dopts;
        dopts.shards = shards;
        dopts.cas_dir = cas_dir;
        dopts.cas_max_bytes = static_cast<std::uint64_t>(cas_max_bytes);
        std::fprintf(out,
                     "distributing %d shard job(s) over %zu %s worker(s)\n",
                     shards, workers.size(),
                     shard_socket ? "socket" : "inproc");
        try {
            res = dist::distribute_explore(spec, cfg, opts,
                                           grid.enumerate(), workers, dopts);
        } catch (const dist::DistError& e) {
            std::fprintf(stderr, "distributed explore failed (%s): %s\n",
                         dist::dist_error_kind_to_string(e.kind()),
                         e.what());
            return 1;
        }
    } else if (!cas_dir.empty()) {
        pipeline::SessionOptions sopts;
        try {
            sopts.cas = std::make_shared<cas::Store>(cas::StoreOptions{
                cas_dir, static_cast<std::uint64_t>(cas_max_bytes), 60.0});
        } catch (const std::exception& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
        auto session = std::make_shared<pipeline::SynthesisSession>(
            spec, std::move(sopts));
        const Explorer explorer(std::move(session), cfg, opts);
        res = explorer.run(grid);
    } else {
        const Explorer explorer(spec, cfg, opts);
        res = explorer.run(grid);
    }
    if (!sinks.finish()) return 1;

    const auto& st = res.stats;
    std::fprintf(out, "\nexplored %d points on %d thread(s) in %.0f ms\n",
                 st.total_points, st.num_threads, st.elapsed_ms);
    std::fprintf(out,
                 "%d/%d valid designs, global Pareto front: %d points\n",
                 st.valid_designs, st.total_designs, st.pareto_size);
    const auto& sg = st.stage;
    std::fprintf(
        out,
        "stage reuse: partition %lld/%lld hits (%.0f ms computing), "
        "routing %lld/%lld (%.0f ms), placement %lld/%lld (%.0f ms, "
        "LP %lld/%lld, %.0f ms), evaluation %lld/%lld (%.0f ms)\n",
        sg.partition.hits, sg.partition.calls(), sg.partition.compute_ms,
        sg.routing.hits, sg.routing.calls(), sg.routing.compute_ms,
        sg.placement.hits, sg.placement.calls(), sg.placement.compute_ms,
        sg.position_lp.hits, sg.position_lp.calls(),
        sg.position_lp.compute_ms, sg.evaluation.hits, sg.evaluation.calls(),
        sg.evaluation.compute_ms);
    const bool simulated = st.backend == EvalBackend::Simulated;
    if (simulated)
        std::fprintf(out,
                     "simulated %d designs (%s traffic, rate %.2f, "
                     "%d-flit packets); front ranked by measured latency\n",
                     st.simulated_designs,
                     sim::traffic_to_string(opts.sim.inject.traffic),
                     opts.sim.inject.injection_scale,
                     opts.sim.inject.packet_length_flits);

    std::vector<std::string> cols{"label", "switches", "power_mw",
                                  "latency_cycles", "area_mm2"};
    if (simulated) cols.insert(cols.begin() + 4, "sim_latency_cycles");
    Table front(cols);
    for (const auto& e : res.pareto) {
        const auto& pr = res.points[static_cast<std::size_t>(e.point_index)];
        const DesignPoint& dp = res.design(e);
        std::vector<Cell> row{pr.point.label(),
                              static_cast<long long>(dp.switch_count),
                              dp.report.power.total_mw(),
                              dp.report.avg_latency_cycles,
                              dp.report.noc_area_mm2()};
        if (simulated) {
            const sim::SimReport* sr = pr.sim_report(e.design_index);
            row.insert(row.begin() + 4,
                       sr ? sr->avg_latency_cycles : -1.0);
        }
        front.add_row(std::move(row));
    }
    std::fprintf(out, "\n");
    print_table(out, front);

    // Export before the validity check: the fail_reason column is most
    // useful exactly when nothing in the grid was feasible.
    if (!out_prefix.empty()) {
        if (!save_explore_csv(out_prefix + "_explore.csv", res) ||
            !save_explore_json(out_prefix + "_explore.json", res,
                               spec.name)) {
            std::fprintf(stderr, "failed to write %s_explore.{csv,json}\n",
                         out_prefix.c_str());
            return 1;
        }
        std::fprintf(out, "wrote %s_explore.csv, %s_explore.json\n",
                     out_prefix.c_str(), out_prefix.c_str());
    }

    const ParetoEntry bp = res.best_power();
    if (bp.point_index < 0) {
        std::fprintf(stderr, "\nno valid design point anywhere in the grid\n");
        return 1;
    }
    const auto& bpr =
        res.points[static_cast<std::size_t>(bp.point_index)];
    const DesignPoint& bdp = res.design(bp);
    std::fprintf(out,
                 "\noverall best: %s, %d switches, %.2f mW NoC power, "
                 "%.2f cycles\n",
                 bpr.point.label().c_str(), bdp.switch_count,
                 bdp.report.power.noc_mw(), bdp.report.avg_latency_cycles);
    return 0;
}

int run_simulate(int argc, char** argv) {
    std::string design_file;
    std::string benchmark;
    std::string out_prefix;
    double freq_mhz = 400.0;
    SynthesisConfig cfg;
    SynthesisPhase phase = SynthesisPhase::Auto;
    sim::SimParams sp;
    std::vector<double> rates{0.25, 0.5, 0.75, 1.0};
    ObsSinks sinks;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        auto next_ll = [&](long long& out) {
            const char* v = next();
            long long n = 0;
            if (!v || !parse_int64(v, n) || n < 0) return false;
            out = n;
            return true;
        };
        if (arg == "--design") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            design_file = v;
        } else if (arg == "--benchmark") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            benchmark = v;
        } else if (arg == "--freq") {
            const char* v = next();
            if (!v || !parse_double(v, freq_mhz) || freq_mhz <= 0.0)
                return usage(argv[0]);
        } else if (arg == "--max-ill") {
            const char* v = next();
            if (!v || !parse_int(v, cfg.max_ill)) return usage(argv[0]);
        } else if (arg == "--alpha") {
            const char* v = next();
            if (!v || !parse_double(v, cfg.alpha)) return usage(argv[0]);
        } else if (arg == "--phase") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            if (!phase_from_string(v, phase))
                return bad_enum_value("--phase", v, phase_choices());
        } else if (arg == "--routing") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            if (!routing::routing_from_string(v, cfg.routing))
                return bad_enum_value("--routing", v,
                                      routing::routing_choices());
        } else if (arg == "--seed") {
            long long seed = 0;
            if (!parse_seed(next(), seed)) return usage(argv[0]);
            cfg.seed = static_cast<std::uint64_t>(seed);
            sp.seed = cfg.seed;
        } else if (arg == "--no-floorplan") {
            cfg.run_floorplan = false;
        } else if (arg == "--rate") {
            const char* v = next();
            if (!v || !parse_double_list(v, rates)) return usage(argv[0]);
            for (double r : rates)
                if (r < 0.0) return usage(argv[0]);
        } else if (arg == "--traffic") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            if (!sim::traffic_from_string(v, sp.inject.traffic))
                return bad_enum_value("--traffic", v,
                                      sim::traffic_choices());
        } else if (arg == "--packet-len") {
            const char* v = next();
            if (!v || !parse_int(v, sp.inject.packet_length_flits) ||
                sp.inject.packet_length_flits < 1)
                return usage(argv[0]);
        } else if (arg == "--buffers") {
            const char* v = next();
            if (!v || !parse_int(v, sp.buffer_depth_flits) ||
                sp.buffer_depth_flits < 1)
                return usage(argv[0]);
        } else if (arg == "--warmup") {
            if (!next_ll(sp.warmup_cycles)) return usage(argv[0]);
        } else if (arg == "--measure") {
            if (!next_ll(sp.measure_cycles) || sp.measure_cycles < 1)
                return usage(argv[0]);
        } else if (arg == "--out") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            out_prefix = v;
        } else {
            const int ob = sinks.parse_flag(arg, next);
            if (ob < 0) return usage(argv[0]);
            if (ob == 1) continue;
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return usage(argv[0]);
        }
    }
    if (design_file.empty() == benchmark.empty()) return usage(argv[0]);
    if (!sinks.open()) return 1;
    FILE* const out = sinks.report();

    DesignSpec spec;
    if (!load_spec(design_file, benchmark, spec)) return 1;
    cfg.eval.freq_hz = freq_mhz * 1e6;
    sp.routing = cfg.routing;  // measure under the synthesis discipline
    std::fprintf(out, "design '%s': %d cores, %d layers, %d flows\n",
                 spec.name.c_str(), spec.cores.num_cores(),
                 spec.cores.num_layers(), spec.comm.num_flows());

    const SynthesisResult res = run_synthesis(spec, cfg, phase);
    const int best = res.best_power_index();
    if (best < 0) {
        std::fprintf(stderr, "no valid design point to simulate\n");
        return 1;
    }
    const DesignPoint& dp = res.points[static_cast<std::size_t>(best)];
    std::fprintf(out,
                 "simulating best design: %d switches, %.2f mW total, "
                 "zero-load %.2f cycles, at %.0f MHz\n",
                 dp.switch_count, dp.report.power.total_mw(),
                 dp.report.avg_latency_cycles, freq_mhz);
    std::fprintf(out,
                 "traffic %s, routing %s, %d-flit packets, %d-flit buffers, "
                 "%lld warmup + %lld measured cycles\n\n",
                 sim::traffic_to_string(sp.inject.traffic),
                 routing::routing_to_string(sp.routing),
                 sp.inject.packet_length_flits, sp.buffer_depth_flits,
                 sp.warmup_cycles, sp.measure_cycles);

    Table t({"rate", "offered_fpc", "accepted_fpc", "avg_latency",
             "p99_latency", "max_latency", "packets", "drained"});
    // One simulator for the whole sweep: the rate only changes SimParams,
    // so every point replays against the same immutable SimIndex and the
    // warmed engine's arenas instead of rebuilding both per rate.
    sim::Simulator simulator(dp.topo, spec, cfg.eval, sp.routing);
    for (double r : rates) {
        sim::SimParams p = sp;
        p.inject.injection_scale = r;
        const sim::SimReport rep = simulator.run(spec, cfg.eval, p);
        t.add_row({r, rep.offered_flits_per_cycle,
                   rep.accepted_flits_per_cycle, rep.avg_latency_cycles,
                   rep.p99_latency_cycles, rep.max_latency_cycles,
                   static_cast<long long>(rep.received_packets),
                   static_cast<long long>(rep.drained ? 1 : 0)});
    }
    if (!sinks.finish()) return 1;
    print_table(out, t);

    if (!out_prefix.empty()) {
        if (!t.save_csv(out_prefix + "_sim.csv")) {
            std::fprintf(stderr, "failed to write %s_sim.csv\n",
                         out_prefix.c_str());
            return 1;
        }
        std::fprintf(out, "\nwrote %s_sim.csv\n", out_prefix.c_str());
    }
    return 0;
}

int run_synthesize(int argc, char** argv) {
    std::string design_file;
    std::string benchmark;
    std::string out_prefix;
    std::vector<double> freqs_hz{400e6};
    SynthesisConfig cfg;
    SynthesisPhase phase = SynthesisPhase::Auto;
    ObsSinks sinks;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--list-benchmarks") {
            for (const auto& n : benchmark_names()) std::puts(n.c_str());
            return 0;
        }
        if (arg == "--design") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            design_file = v;
        } else if (arg == "--benchmark") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            benchmark = v;
        } else if (arg == "--freq") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            if (!parse_freq_list_hz(v, freqs_hz)) return 2;
        } else if (arg == "--max-ill") {
            const char* v = next();
            if (!v || !parse_int(v, cfg.max_ill)) return usage(argv[0]);
        } else if (arg == "--alpha") {
            const char* v = next();
            if (!v || !parse_double(v, cfg.alpha)) return usage(argv[0]);
        } else if (arg == "--phase") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            if (!phase_from_string(v, phase))
                return bad_enum_value("--phase", v, phase_choices());
        } else if (arg == "--routing") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            if (!routing::routing_from_string(v, cfg.routing))
                return bad_enum_value("--routing", v,
                                      routing::routing_choices());
        } else if (arg == "--seed") {
            long long seed = 0;
            if (!parse_seed(next(), seed)) return usage(argv[0]);
            cfg.seed = static_cast<std::uint64_t>(seed);
        } else if (arg == "--no-floorplan") {
            cfg.run_floorplan = false;
        } else if (arg == "--out") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            out_prefix = v;
        } else {
            const int ob = sinks.parse_flag(arg, next);
            if (ob < 0) return usage(argv[0]);
            if (ob == 1) continue;
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return usage(argv[0]);
        }
    }
    if (design_file.empty() == benchmark.empty()) return usage(argv[0]);
    if (!sinks.open()) return 1;
    FILE* const out = sinks.report();

    DesignSpec spec;
    if (!load_spec(design_file, benchmark, spec)) return 1;
    std::fprintf(out, "design '%s': %d cores, %d layers, %d flows\n",
                 spec.name.c_str(), spec.cores.num_cores(),
                 spec.cores.num_layers(), spec.comm.num_flows());

    const auto sweep = run_frequency_sweep(spec, cfg, freqs_hz, phase);
    if (!sinks.finish()) return 1;
    for (const auto& fp : sweep) {
        std::fprintf(out, "\n=== %.0f MHz ===\n", fp.freq_hz / 1e6);
        std::ostringstream report;
        write_synthesis_report(report, fp.result);
        std::fputs(report.str().c_str(), out);
    }
    const auto [fi, pi] = best_power_over_sweep(sweep);
    if (fi < 0) {
        std::fprintf(stderr, "no valid design point at any frequency\n");
        return 1;
    }
    const auto& bp = sweep[static_cast<std::size_t>(fi)]
                         .result.points[static_cast<std::size_t>(pi)];
    std::fprintf(
        out,
        "\noverall best: %.0f MHz, %d switches, %.2f mW NoC power, "
        "%.2f cycles\n",
        sweep[static_cast<std::size_t>(fi)].freq_hz / 1e6, bp.switch_count,
        bp.report.power.noc_mw(), bp.report.avg_latency_cycles);

    if (!out_prefix.empty()) {
        save_topology_dot(out_prefix + "_topology.dot", bp.topo, spec);
        for (int ly = 0; ly < spec.cores.num_layers(); ++ly)
            save_layer_svg(out_prefix + "_layer" + std::to_string(ly) + ".svg",
                           bp.topo, spec, ly);
        design_points_table(sweep[static_cast<std::size_t>(fi)].result.points)
            .save_csv(out_prefix + "_points.csv");
        std::fprintf(out,
                     "wrote %s_topology.dot, %s_layer*.svg, %s_points.csv\n",
                     out_prefix.c_str(), out_prefix.c_str(),
                     out_prefix.c_str());
    }
    return 0;
}

/// One request/response round trip to a sunfloord. False (message
/// printed) on connect/transport failure.
bool service_call(const std::string& connect, const std::string& frame,
                  JsonValue& resp) {
    service::Client client;
    std::string err;
    if (!client.connect(connect, err)) {
        std::fprintf(stderr, "cannot connect to %s: %s\n", connect.c_str(),
                     err.c_str());
        return false;
    }
    if (!client.call(frame, resp, err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return false;
    }
    return true;
}

/// Print a server-side error/rejection. Returns the exit code: 3 for a
/// typed admission rejection (retryable), 1 otherwise.
int report_server_error(const JsonValue& resp) {
    const JsonValue* rej = resp.find("rejected");
    const JsonValue* err = resp.find("error");
    const std::string msg =
        err && err->is_string() ? err->as_string() : "unknown error";
    if (rej && rej->is_string()) {
        std::fprintf(stderr, "rejected (%s): %s\n",
                     rej->as_string().c_str(), msg.c_str());
        return 3;
    }
    std::fprintf(stderr, "error: %s\n", msg.c_str());
    return 1;
}

/// Print a terminal job's result payload: the CSV (byte-identical to the
/// one-shot CLI's table) on stdout, or the failure on stderr.
int print_result_payload(const JsonValue& resp) {
    const JsonValue* status = resp.find("status");
    const JsonValue* result = resp.find("result");
    if (status && status->is_string() &&
        status->as_string() == "failed") {
        const JsonValue* e = result ? result->find("error") : nullptr;
        std::fprintf(stderr, "job failed: %s\n",
                     e && e->is_string() ? e->as_string().c_str()
                                         : "unknown error");
        return 1;
    }
    const JsonValue* csv = result ? result->find("csv") : nullptr;
    if (!csv || !csv->is_string()) {
        std::fprintf(stderr, "malformed response: no result csv\n");
        return 1;
    }
    std::fputs(csv->as_string().c_str(), stdout);
    return 0;
}

int run_submit(int argc, char** argv) {
    std::string connect;
    std::string design_file;
    std::string benchmark;
    service::SubmitRequest sr;
    bool explore = false;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--connect") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            connect = v;
        } else if (arg == "--design") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            design_file = v;
        } else if (arg == "--benchmark") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            benchmark = v;
        } else if (arg == "--client") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            sr.client = v;
        } else if (arg == "--explore") {
            explore = true;
        } else if (arg == "--freq") {
            const char* v = next();
            if (!v || !parse_double_list(v, sr.params.freq_mhz))
                return usage(argv[0]);
        } else if (arg == "--max-tsvs") {
            const char* v = next();
            if (!v || !parse_int_list(v, sr.params.max_tsvs))
                return usage(argv[0]);
        } else if (arg == "--width") {
            const char* v = next();
            if (!v || !parse_int_list(v, sr.params.width_bits))
                return usage(argv[0]);
        } else if (arg == "--theta") {
            const char* v = next();
            if (!v || !parse_double_list(v, sr.params.thetas))
                return usage(argv[0]);
        } else if (arg == "--phase") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            for (const auto& part : split(v, ',')) {
                SynthesisPhase p;
                if (!phase_from_string(part, p))
                    return bad_enum_value("--phase", part.c_str(),
                                          phase_choices());
                sr.params.phases.push_back(p);
            }
        } else if (arg == "--routing") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            for (const auto& part : split(v, ',')) {
                routing::RoutingPolicyId p;
                if (!routing::routing_from_string(part, p))
                    return bad_enum_value("--routing", part.c_str(),
                                          routing::routing_choices());
                sr.params.routings.push_back(p);
            }
        } else if (arg == "--alpha") {
            const char* v = next();
            if (!v || !parse_double(v, sr.params.alpha))
                return usage(argv[0]);
        } else if (arg == "--seed") {
            if (!parse_seed(next(), sr.params.seed)) return usage(argv[0]);
        } else if (arg == "--no-floorplan") {
            sr.params.floorplan = false;
        } else if (arg == "--wait") {
            sr.wait = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return usage(argv[0]);
        }
    }
    if (connect.empty()) {
        std::fprintf(stderr, "submit requires --connect\n");
        return 2;
    }
    if (design_file.empty() == benchmark.empty()) return usage(argv[0]);
    sr.kind = explore ? service::JobKind::Explore : service::JobKind::Synth;

    DesignSpec spec;
    if (!load_spec(design_file, benchmark, spec)) return 1;
    std::ostringstream os;
    write_design(os, spec);
    sr.spec_text = os.str();
    sr.spec_name = spec.name;

    JsonValue resp;
    if (!service_call(connect, service::make_submit_frame(sr), resp))
        return 1;
    const JsonValue* ok = resp.find("ok");
    if (!ok || !ok->is_bool() || !ok->as_bool())
        return report_server_error(resp);
    if (!sr.wait) {
        const JsonValue* id = resp.find("id");
        std::printf("%lld\n",
                    id && id->is_integer() ? id->as_int64() : -1LL);
        return 0;
    }
    return print_result_payload(resp);
}

/// status and result share the flag surface; `result_op` selects the op
/// and the output (human status line vs the raw result CSV).
int run_job_query(int argc, char** argv, bool result_op) {
    std::string connect;
    long long id = -1;
    bool wait = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--connect") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            connect = v;
        } else if (arg == "--id") {
            const char* v = next();
            if (!v || !parse_int64(v, id) || id < 0) return usage(argv[0]);
        } else if (result_op && arg == "--wait") {
            wait = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return usage(argv[0]);
        }
    }
    if (connect.empty() || id < 0) {
        std::fprintf(stderr, "%s requires --connect and --id\n",
                     result_op ? "result" : "status");
        return 2;
    }
    const std::string frame =
        result_op
            ? service::make_result_frame(static_cast<std::uint64_t>(id),
                                         wait)
            : service::make_status_frame(static_cast<std::uint64_t>(id));
    JsonValue resp;
    if (!service_call(connect, frame, resp)) return 1;
    const JsonValue* ok = resp.find("ok");
    if (!ok || !ok->is_bool() || !ok->as_bool())
        return report_server_error(resp);
    if (result_op) return print_result_payload(resp);

    const JsonValue* status = resp.find("status");
    const JsonValue* kind = resp.find("kind");
    const JsonValue* wait_ms = resp.find("wait_ms");
    const JsonValue* run_ms = resp.find("run_ms");
    std::printf("job %lld: %s (%s, wait %.1f ms, run %.1f ms)\n", id,
                status && status->is_string() ? status->as_string().c_str()
                                              : "?",
                kind && kind->is_string() ? kind->as_string().c_str()
                                          : "?",
                wait_ms && wait_ms->is_number() ? wait_ms->as_double()
                                                : 0.0,
                run_ms && run_ms->is_number() ? run_ms->as_double() : 0.0);
    return 0;
}

/// `cas stats` / `cas gc`: operator surface of the content-addressed
/// artifact store (see cas/store.h). stats scans; gc reaps stale .tmp
/// debris and evicts LRU objects down to --max-bytes.
int run_cas(int argc, char** argv) {
    if (argc < 3) return usage(argv[0]);
    const std::string op = argv[2];
    if (op != "stats" && op != "gc") {
        std::fprintf(stderr, "unknown cas operation '%s'\n", op.c_str());
        return usage(argv[0]);
    }
    std::string dir;
    long long max_bytes = 0;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--cas") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            dir = v;
        } else if (arg == "--max-bytes") {
            const char* v = next();
            if (!v || !parse_int64(v, max_bytes) || max_bytes < 0)
                return usage(argv[0]);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return usage(argv[0]);
        }
    }
    if (dir.empty()) {
        std::fprintf(stderr, "cas %s requires --cas <dir>\n", op.c_str());
        return 2;
    }
    try {
        cas::Store store(cas::StoreOptions{
            dir, static_cast<std::uint64_t>(max_bytes), 60.0});
        if (op == "gc") {
            const cas::GcResult g = store.gc();
            std::printf("gc %s: evicted %llu object(s) (%.2f MB), "
                        "removed %llu stale tmp file(s)\n",
                        dir.c_str(),
                        static_cast<unsigned long long>(g.evicted_objects),
                        static_cast<double>(g.evicted_bytes) / 1e6,
                        static_cast<unsigned long long>(g.removed_tmp));
        }
        const cas::StoreStats s = store.stats();
        std::printf("%s: %llu object(s), %.2f MB",
                    dir.c_str(),
                    static_cast<unsigned long long>(s.objects),
                    static_cast<double>(s.object_bytes) / 1e6);
        if (s.tmp_files > 0)
            std::printf("; %llu tmp file(s), %.2f MB",
                        static_cast<unsigned long long>(s.tmp_files),
                        static_cast<double>(s.tmp_bytes) / 1e6);
        if (max_bytes > 0)
            std::printf("; bound %.2f MB",
                        static_cast<double>(max_bytes) / 1e6);
        std::printf("\n");
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    return 0;
}

int run_command(int argc, char** argv) {
    if (argc > 1 && std::string(argv[1]) == "cas")
        return run_cas(argc, argv);
    if (argc > 1 && std::string(argv[1]) == "explore")
        return run_explore(argc, argv);
    if (argc > 1 && std::string(argv[1]) == "simulate")
        return run_simulate(argc, argv);
    if (argc > 1 && std::string(argv[1]) == "generate")
        return run_generate(argc, argv);
    if (argc > 1 && std::string(argv[1]) == "submit")
        return run_submit(argc, argv);
    if (argc > 1 && std::string(argv[1]) == "status")
        return run_job_query(argc, argv, /*result_op=*/false);
    if (argc > 1 && std::string(argv[1]) == "result")
        return run_job_query(argc, argv, /*result_op=*/true);
    return run_synthesize(argc, argv);
}

}  // namespace

int main(int argc, char** argv) {
    // A configuration the synthesis flow rejects (e.g. a non-finite
    // frequency or a negative max_ill) is a usage error, not a crash.
    try {
        return run_command(argc, argv);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}
