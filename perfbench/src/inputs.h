// Inputs and output renderings shared by the workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/explore/explorer.h"
#include "sunfloor/explore/param_grid.h"

namespace perfbench {

/// A paper benchmark with annealed per-layer core placement, exactly as
/// bench/common.h prepares it (Section VIII-A), from `anneal_seed`.
sunfloor::DesignSpec prepared_benchmark(const std::string& name,
                                        std::uint64_t anneal_seed);

/// Section VIII's configuration: 400 MHz, max_ill 25, floorplan on.
sunfloor::SynthesisConfig paper_cfg();

/// design_points_table CSV — the bytes the CLI writes as *_points.csv.
std::string points_csv(const sunfloor::SynthesisResult& res);

/// explore_table CSV — the bytes the CLI writes as *_explore.csv.
std::string explore_csv(const sunfloor::ExploreResult& res);

/// Total power of the lowest-power valid design; 0 when none is valid.
double best_power_mw(const sunfloor::SynthesisResult& res);
double best_power_mw(const sunfloor::ExploreResult& res);

/// The 32-point grid of explore_grid and explore_sharded: frequency
/// {350, 400, 450, 500} MHz x max_tsvs {15, 25} x width {32, 64} x
/// routing {up-down, odd-even}.
sunfloor::ParamGrid explore_grid_points();

/// Frequencies absent from the main grid, one 4-point reuse grid each.
inline constexpr double kReuseHz[] = {375e6, 425e6, 475e6};

/// A 4-point reuse grid: `freq_hz` x width {32, 64} x routing {up-down,
/// odd-even}, 25 TSVs. On a session or store warmed by the main grid,
/// partitions hit while routing and evaluation miss.
sunfloor::ParamGrid explore_reuse_points(double freq_hz);

/// Traced-only LP re-solve: build_switch_placement_problem and
/// solve_switch_placement on every routed design, timed.
struct LpResolve {
    double seconds = 0.0;
    long solves = 0;
    long fallbacks = 0;  ///< solves where lp_ok came back false

    void add(const std::vector<sunfloor::DesignPoint>& designs,
             const sunfloor::DesignSpec& spec);
};

}  // namespace perfbench
