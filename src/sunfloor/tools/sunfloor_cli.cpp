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
// Every subcommand parses through one flag table (tools/flags.h). A
// parse error prints `missing value for --x`, `bad --x value 'v'
// (expected ...)` or `unknown option '--x'` plus the subcommand's usage
// line and exits 2; so does a rejected combination of flags (below).
//
// Synthesis options (synth; simulate takes one --freq):
//   --freq <MHz>[,<MHz>...]   operating points to sweep  (default 400)
//   --max-ill <n>             inter-layer link budget, >= 0 (default 25)
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
//                             (the paper's max_ill), >= 1 (default 25)
//   --width <bits>[,...]      link width axis            (default 32)
//   --phase <auto|1|2>[,...]  synthesis phase axis       (default auto)
//   --theta <v>[,...]         fixed-theta axis, > 0      (default sweep)
//   --routing <p>[,...]       routing-policy axis        (default up-down)
//   --alpha <0..1>            PG bandwidth/latency blend (default 1.0)
//   --threads <n>             worker threads, >= 0; 0 = all cores
//                             (default 0)
//   --backend <analytic|sim>  Pareto ranking backend     (default analytic)
//   --rate <scale>            sim backend: injection scale (default 1.0)
//   --traffic <kind>          sim backend: uniform|bursty|hotspot
//   --packet-len <flits>      sim backend: packet length (default 4)
//   --out <prefix>            write <prefix>_explore.csv, _explore.json
//
// Distributed exploration (explore; results are byte-identical to the
// single-process run of the same grid):
//   --shards <n>              split the grid into n contiguous shard jobs,
//                             run by in-process workers
//   --shard-addrs <a>[,...]   ship the jobs to sunfloor_shard_worker
//                             processes instead, one transport per
//                             address (--shards defaults to their count);
//                             jobs re-queue on worker failure
//   --cas <dir>               content-addressed artifact store shared by
//                             all shards (also usable without --shards);
//                             warm stages are loaded instead of recomputed.
//                             Nothing bounds it but `cas gc --max-bytes`
//
// Explore's dependent flags are checked after the parse, on the parsed
// values: exactly one of --design, --benchmark and --family; --rate,
// --traffic and --packet-len need --backend sim; generator knobs,
// --instances and --gen-seed need --family; --shards, --shard-addrs and
// --cas do not apply to --family.
//
// CAS maintenance (cas stats | cas gc):
//   --cas <dir>               the store directory      (required)
//   --max-bytes <n>           gc: evict LRU objects down to this bound
//                             (the only bound a store has)
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
//   --seed, --no-floorplan    job config, read by explore's rows; synth
//                             jobs take single values (the server checks)
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
#include <span>
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
#include "sunfloor/tools/flags.h"
#include "sunfloor/tools/obs_sinks.h"
#include "sunfloor/util/json.h"
#include "sunfloor/util/strings.h"

using namespace sunfloor;
using namespace sunfloor::tools;

namespace {

/// --design / --benchmark: where the spec comes from.
struct Source {
    std::string design_file;
    std::string benchmark;

    std::vector<Flag> flags() {
        return {flag("--design", design_file, a_string("file")),
                flag("--benchmark", benchmark, a_string("name"))};
    }

    /// How many of the two were given (a non-empty value).
    int count() const {
        return static_cast<int>(!design_file.empty()) +
               static_cast<int>(!benchmark.empty());
    }

    /// Load the design file, or the benchmark with the annealed placement
    /// the benches use. False (with a message on stderr) on failure.
    bool load(DesignSpec& spec) const {
        if (!design_file.empty()) {
            const ParseResult parsed = parse_design_file(design_file);
            if (!parsed.ok) {
                std::fprintf(stderr, "parse error: %s\n",
                             parsed.error.c_str());
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
};

constexpr const char* kOneSource =
    "give exactly one of --design and --benchmark";

/// How a subcommand takes the synthesis knobs of service::JobParams:
/// synth sweeps --freq and runs one value of every other knob, simulate
/// runs one value of each, explore and submit take a comma list per grid
/// axis.
enum class Knobs { Synth, Simulate, Grid };

std::vector<Flag> knob_flags(service::JobParams& p, Knobs mode) {
    const bool grid = mode == Knobs::Grid;
    const auto axis = [grid](std::string name, auto& out, auto kind) {
        return grid ? list_flag(std::move(name), out, std::move(kind))
                    : one_flag(std::move(name), out, std::move(kind));
    };
    std::vector<Flag> rows{
        mode == Knobs::Simulate
            ? one_flag("--freq", p.freq_mhz, a_positive("MHz"))
            : list_flag("--freq", p.freq_mhz, a_positive("MHz")),
        // The inter-layer link budget: a grid axis of budgets >= 1, or one
        // run's max_ill, where a one-layer spec may use 0.
        grid ? list_flag("--max-tsvs", p.max_tsvs, an_int(1))
             : one_flag("--max-ill", p.max_tsvs, an_int(0)),
        axis("--phase", p.phases, a_choice(phase_from_string, phase_choices())),
        axis("--routing", p.routings,
             a_choice(routing::routing_from_string,
                      routing::routing_choices())),
        flag("--alpha", p.alpha, a_number("A")),
        flag("--seed", p.seed, a_seed()),
        switch_flag("--no-floorplan", p.floorplan, false)};
    if (grid) {
        rows.push_back(list_flag("--width", p.width_bits, an_int(1, "B")));
        rows.push_back(list_flag("--theta", p.thetas, a_positive("V")));
    }
    return rows;
}

Flag family_flag(specgen::GenParams& gp) {
    return flag("--family", gp.family,
                a_choice(specgen::family_from_string,
                         specgen::family_choices()));
}

/// Generator knobs shared by `generate` and `explore --family`. Range
/// checks live in GenParams::validate(); here only the parse can fail.
std::vector<Flag> gen_flags(specgen::GenParams& gp) {
    return {flag("--cores", gp.num_cores, an_int()),
            flag("--layers", gp.num_layers, an_int()),
            flag("--peak-bw", gp.peak_core_bw_mbps, a_number("MBPS")),
            flag("--skew", gp.bw_skew, a_number("S")),
            flag("--lat-slack", gp.latency_slack, a_number("S")),
            flag("--resp", gp.response_fraction, a_number("F")),
            flag("--hubs", gp.num_hubs, an_int()),
            flag("--hotspot", gp.hotspot_fraction, a_number("F")),
            flag("--stages", gp.stages, an_int()),
            flag("--fanout", gp.max_fanout, an_int())};
}

int run_generate(int argc, char** argv) {
    specgen::GenParams gp;
    long long seed = 1;
    std::string out_path;
    Flags flags(std::string(argv[0]) + " generate");
    flags.add({family_flag(gp)})
        .add(gen_flags(gp))
        .add({flag("--seed", seed, a_seed()),
              flag("--out", out_path, a_string("file"))});
    if (!flags.parse(argc, argv, 2)) return 2;
    if (!flags.seen("--family"))
        return flags.error(format("generate requires --family (expected %s)",
                                  specgen::family_choices().c_str()));

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
    Source src;
    std::string out_prefix;
    service::JobParams params;
    ExploreOptions opts;
    opts.num_threads = 0;  // all cores
    specgen::GenParams gp;
    int instances = 4;
    long long gen_seed = 1;
    int shards = 0;  // 0 = single-process explore
    std::vector<std::string> shard_addrs;
    std::string cas_dir;
    ObsSinks sinks;

    // Rows that only take effect together with another flag.
    const std::vector<Flag> sim_only{
        flag("--rate", opts.sim.inject.injection_scale, a_non_negative("S")),
        flag("--traffic", opts.sim.inject.traffic,
             a_choice(sim::traffic_from_string, sim::traffic_choices())),
        flag("--packet-len", opts.sim.inject.packet_length_flits,
             an_int(1))};
    std::vector<Flag> family_only = gen_flags(gp);
    family_only.push_back(flag("--instances", instances, an_int(1)));
    family_only.push_back(flag("--gen-seed", gen_seed, a_seed()));

    Flags flags(std::string(argv[0]) + " explore");
    flags.add(src.flags())
        .add({family_flag(gp)})
        .add(knob_flags(params, Knobs::Grid))
        .add({flag("--threads", opts.num_threads, an_int(0)),
              flag("--backend", opts.backend,
                   a_choice(backend_from_string, backend_choices()))})
        .add(sim_only)
        .add(family_only)
        .add({flag("--shards", shards, an_int(1)),
              list_flag("--shard-addrs", shard_addrs, a_string("A")),
              flag("--cas", cas_dir, a_string("dir")),
              flag("--out", out_prefix, a_string("prefix"))})
        .add(sinks.flags());
    if (!flags.parse(argc, argv, 2)) return 2;

    const bool have_family = flags.seen("--family");
    if (src.count() + static_cast<int>(have_family) != 1)
        return flags.error(
            "give exactly one of --design, --benchmark and --family");
    const std::string sim_flag = flags.first_seen(sim_only);
    if (!sim_flag.empty() && opts.backend != EvalBackend::Simulated)
        return flags.error(sim_flag +
                           " only affects the simulated backend; add "
                           "--backend sim");
    const std::string gen_flag = flags.first_seen(family_only);
    if (!gen_flag.empty() && !have_family)
        return flags.error(gen_flag +
                           " only affects generated families; add --family");
    if (shards == 0) shards = static_cast<int>(shard_addrs.size());
    if (have_family && (shards > 0 || !cas_dir.empty()))
        return flags.error(
            "--shards/--cas do not apply to generated families");
    const bool shard_socket = !shard_addrs.empty();

    auto [cfg, grid, base_seed] = service::explore_setup(params);
    opts.base_seed = base_seed;

    if (!sinks.open()) return 1;
    FILE* const out = sinks.report();

    if (have_family) {
        const int rc = run_explore_family(gp, instances, gen_seed, cfg,
                                          grid, opts, out_prefix, out);
        if (!sinks.finish() && rc == 0) return 1;
        return rc;
    }

    DesignSpec spec;
    if (!src.load(spec)) return 1;
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
            sopts.cas =
                std::make_shared<cas::Store>(cas::StoreOptions{cas_dir});
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
    Source src;
    std::string out_prefix;
    service::JobParams params;
    params.freq_mhz = {400.0};  // the default operating point
    sim::SimParams sp;
    std::vector<double> rates{0.25, 0.5, 0.75, 1.0};
    ObsSinks sinks;
    Flags flags(std::string(argv[0]) + " simulate");
    flags.add(src.flags())
        .add(knob_flags(params, Knobs::Simulate))
        .add({list_flag("--rate", rates, a_non_negative("S")),
              flag("--traffic", sp.inject.traffic,
                   a_choice(sim::traffic_from_string,
                            sim::traffic_choices())),
              flag("--packet-len", sp.inject.packet_length_flits, an_int(1)),
              flag("--buffers", sp.buffer_depth_flits, an_int(1)),
              flag("--warmup", sp.warmup_cycles, an_int64(0)),
              flag("--measure", sp.measure_cycles, an_int64(1)),
              flag("--out", out_prefix, a_string("prefix"))})
        .add(sinks.flags());
    if (!flags.parse(argc, argv, 2)) return 2;
    if (src.count() != 1) return flags.error(kOneSource);
    if (!sinks.open()) return 1;
    FILE* const out = sinks.report();

    DesignSpec spec;
    if (!src.load(spec)) return 1;
    const auto [cfg, phase] = service::synth_setup(params);
    const double freq_mhz = params.freq_mhz.front();
    sp.seed = cfg.seed;
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
    Source src;
    std::string out_prefix;
    service::JobParams params;
    params.freq_mhz = {400.0};  // the default operating point
    bool list_benchmarks = false;
    ObsSinks sinks;
    Flag list_row = switch_flag("--list-benchmarks", list_benchmarks);
    list_row.stop = true;  // list and exit, whatever follows
    Flags flags(argv[0]);
    flags.add({list_row})
        .add(src.flags())
        .add(knob_flags(params, Knobs::Synth))
        .add({flag("--out", out_prefix, a_string("prefix"))})
        .add(sinks.flags());
    if (!flags.parse(argc, argv, 1)) return 2;
    if (list_benchmarks) {
        for (const auto& n : benchmark_names()) std::puts(n.c_str());
        return 0;
    }
    if (src.count() != 1) return flags.error(kOneSource);
    if (!sinks.open()) return 1;
    FILE* const out = sinks.report();

    const auto [cfg, phase] = service::synth_setup(params);
    std::vector<double> freqs_hz;
    for (const double mhz : params.freq_mhz) freqs_hz.push_back(mhz * 1e6);

    DesignSpec spec;
    if (!src.load(spec)) return 1;
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
    Source src;
    service::SubmitRequest sr;
    bool explore = false;
    Flags flags(std::string(argv[0]) + " submit");
    flags.add({flag("--connect", connect, a_string("addr"))})
        .add(src.flags())
        .add({flag("--client", sr.client, a_string("name")),
              switch_flag("--explore", explore)})
        .add(knob_flags(sr.params, Knobs::Grid))
        .add({switch_flag("--wait", sr.wait)});
    if (!flags.parse(argc, argv, 2)) return 2;
    if (connect.empty()) return flags.error("submit requires --connect");
    if (src.count() != 1) return flags.error(kOneSource);
    sr.kind = explore ? service::JobKind::Explore : service::JobKind::Synth;

    DesignSpec spec;
    if (!src.load(spec)) return 1;
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
    const char* const op = result_op ? "result" : "status";
    std::string connect;
    long long id = -1;
    bool wait = false;
    Flags flags(std::string(argv[0]) + " " + op);
    flags.add({flag("--connect", connect, a_string("addr")),
               flag("--id", id, an_int64(0))});
    if (result_op) flags.add({switch_flag("--wait", wait)});
    if (!flags.parse(argc, argv, 2)) return 2;
    if (connect.empty() || id < 0)
        return flags.error(format("%s requires --connect and --id", op));
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
    const std::string op = argc > 2 ? argv[2] : "";
    std::string dir;
    long long max_bytes = 0;
    Flags flags(std::string(argv[0]) + " cas stats|gc");
    flags.add({flag("--cas", dir, a_string("dir")),
               flag("--max-bytes", max_bytes, an_int64(0))});
    if (op != "stats" && op != "gc")
        return flags.error(format("unknown cas operation '%s'", op.c_str()));
    if (!flags.parse(argc, argv, 3)) return 2;
    if (dir.empty())
        return flags.error(format("cas %s requires --cas <dir>", op.c_str()));
    try {
        cas::Store store(cas::StoreOptions{dir});
        if (op == "gc") {
            const cas::GcResult g =
                store.gc(static_cast<std::uint64_t>(max_bytes));
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
