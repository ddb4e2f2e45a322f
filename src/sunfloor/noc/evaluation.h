// Topology evaluation: power, latency, area, wire lengths.
//
// This computes exactly the quantities the paper's figures report — switch
// power, switch-to-switch link power, core-to-switch link power (Figs. 10,
// 11), average zero-load latency in cycles (Table I), NoC component area,
// wire-length distribution (Fig. 12) and inter-layer link usage (Figs. 21,
// 22).
//
// Latency convention (matches Section VIII-A's discussion of Phase 1 vs
// Phase 2): every switch traversal costs one cycle; a link costs its extra
// pipeline stages beyond the first (short links are combinational within
// the cycle). Thus a core->switch->core path has zero-load latency 1.
#pragma once

#include <vector>

#include "sunfloor/model/noc_library.h"
#include "sunfloor/model/tsv.h"
#include "sunfloor/model/wire.h"
#include "sunfloor/noc/topology.h"
#include "sunfloor/spec/parser.h"

namespace sunfloor {

/// Everything the evaluator needs beside the topology itself: the
/// architectural point Fig. 3's outer loop varies. The component models
/// (model/) are built from the width where a computation needs them;
/// their calibration values are constants there.
struct EvalParams {
    double freq_hz = 400e6;
    int flit_width_bits = 32;
};

struct PowerBreakdown {
    double switch_mw = 0.0;
    double s2s_link_mw = 0.0;  ///< switch-to-switch links (planar + vertical)
    double c2s_link_mw = 0.0;  ///< core-to-switch links
    double ni_mw = 0.0;

    /// Link power as the paper's tables report it.
    double link_mw() const { return s2s_link_mw + c2s_link_mw; }

    /// Switch + link power — the "Total Power" of Table I (the paper's
    /// figures do not break out NI power; we track it separately).
    double noc_mw() const { return switch_mw + link_mw(); }

    double total_mw() const { return noc_mw() + ni_mw; }
};

struct EvalReport {
    PowerBreakdown power;
    double avg_latency_cycles = 0.0;
    double max_latency_cycles = 0.0;
    int latency_violations = 0;  ///< flows exceeding their constraint
    bool all_flows_routed = false;

    double switch_area_mm2 = 0.0;
    double ni_area_mm2 = 0.0;
    double tsv_macro_area_mm2 = 0.0;
    double noc_area_mm2() const {
        return switch_area_mm2 + ni_area_mm2 + tsv_macro_area_mm2;
    }

    int total_tsvs = 0;          ///< TSVs used by all vertical crossings
    int max_ill_used = 0;        ///< worst adjacent-boundary link count
    std::vector<double> wire_lengths_mm;  ///< planar length per used link

    /// Zero-load latency per flow (cycles); -1 for unrouted flows.
    std::vector<double> flow_latency_cycles;
};

/// Zero-load latency of one routed flow (cycles).
double flow_latency(const Topology& topo, int flow_id, const EvalParams& p);

/// Full evaluation of a synthesized topology against its design spec.
EvalReport evaluate_topology(const Topology& topo, const DesignSpec& spec,
                             const EvalParams& p);

}  // namespace sunfloor
