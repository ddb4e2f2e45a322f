// Exploration result exporters: one CSV row / JSON record per design
// point, tagged with its architectural parameters and global-Pareto
// membership, for downstream plotting and analysis.
#pragma once

#include <iosfwd>
#include <string>

#include "sunfloor/explore/explorer.h"
#include "sunfloor/util/csv.h"

namespace sunfloor {

/// Full sweep as a table: one row per design point of every grid point.
/// Columns: point, freq_mhz, max_tsvs, link_width_bits, phase, theta,
/// routing, switches, valid, power_mw, latency_cycles, sim_latency_cycles
/// (-1 unless the design was simulated), area_mm2, tsvs, pareto,
/// fail_reason. The exact format (column order, escaping, float
/// rendering) is pinned by tests/export_golden_test.cpp — extend that
/// golden data when changing anything here.
Table explore_table(const ExploreResult& result);

/// explore_table written as CSV. Returns false on I/O error.
bool save_explore_csv(const std::string& path, const ExploreResult& result);

/// Whole-run JSON document: design name, stats, per-point records and the
/// global Pareto front.
void write_explore_json(std::ostream& os, const ExploreResult& result,
                        const std::string& design_name);

/// write_explore_json into a file. Returns false on I/O error.
bool save_explore_json(const std::string& path, const ExploreResult& result,
                       const std::string& design_name);

/// Escape a string for embedding in a JSON document (adds the quotes).
std::string json_quote(const std::string& s);

}  // namespace sunfloor
