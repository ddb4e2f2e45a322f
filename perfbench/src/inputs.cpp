#include "inputs.h"

#include <sstream>

#include "bench.h"
#include "sunfloor/core/switch_placement.h"
#include "sunfloor/explore/export.h"
#include "sunfloor/floorplan/annealer.h"
#include "sunfloor/io/report.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/spec/benchmarks.h"

namespace perfbench {

using namespace sunfloor;

DesignSpec prepared_benchmark(const std::string& name,
                              std::uint64_t anneal_seed) {
    DesignSpec spec = make_benchmark(name);
    AnnealOptions fopts;
    fopts.wirelength_weight = 5e-4;
    Rng rng(anneal_seed);
    floorplan_design_layers(spec.cores, spec.comm, fopts, rng);
    return spec;
}

SynthesisConfig paper_cfg() {
    SynthesisConfig cfg;
    cfg.eval.freq_hz = 400e6;
    cfg.max_ill = 25;
    return cfg;
}

std::string points_csv(const SynthesisResult& res) {
    std::ostringstream os;
    design_points_table(res.points).write_csv(os);
    return os.str();
}

std::string explore_csv(const ExploreResult& res) {
    std::ostringstream os;
    explore_table(res).write_csv(os);
    return os.str();
}

double best_power_mw(const SynthesisResult& res) {
    const int i = res.best_power_index();
    return i < 0 ? 0.0
                 : res.points[static_cast<std::size_t>(i)]
                       .report.power.total_mw();
}

double best_power_mw(const ExploreResult& res) {
    const ParetoEntry e = res.best_power();
    return e.point_index < 0 ? 0.0 : res.design(e).report.power.total_mw();
}

ParamGrid explore_grid_points() {
    ParamGrid grid;
    grid.set_axis(ParamAxis::frequencies_hz({350e6, 400e6, 450e6, 500e6}));
    grid.set_axis(ParamAxis::max_tsvs({15, 25}));
    grid.set_axis(ParamAxis::link_widths_bits({32, 64}));
    grid.set_axis(ParamAxis::routing_policies(
        {routing::RoutingPolicyId::UpDown, routing::RoutingPolicyId::OddEven}));
    return grid;
}

ParamGrid explore_reuse_points(double freq_hz) {
    ParamGrid grid;
    grid.set_axis(ParamAxis::frequencies_hz({freq_hz}));
    grid.set_axis(ParamAxis::max_tsvs({25}));
    grid.set_axis(ParamAxis::link_widths_bits({32, 64}));
    grid.set_axis(ParamAxis::routing_policies(
        {routing::RoutingPolicyId::UpDown, routing::RoutingPolicyId::OddEven}));
    return grid;
}

void LpResolve::add(const std::vector<DesignPoint>& designs,
                    const DesignSpec& spec) {
    for (const DesignPoint& dp : designs) {
        if (!dp.report.all_flows_routed) continue;
        const auto t0 = Clock::now();
        bool lp_ok = false;
        {
            obs::ScopedSpan span("trace_only.lp_resolve");
            const PlacementProblem p =
                build_switch_placement_problem(dp.topo, spec);
            solve_switch_placement(p, lp_ok);
        }
        seconds += seconds_since(t0);
        ++solves;
        if (!lp_ok) ++fallbacks;
    }
}

}  // namespace perfbench
