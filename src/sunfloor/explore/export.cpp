#include "sunfloor/explore/export.h"

#include <fstream>
#include <ostream>
#include <set>
#include <utility>

#include "sunfloor/util/strings.h"

namespace sunfloor {

std::string json_quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20)
                    out += format("\\u%04x", c);
                else
                    out += c;
        }
    }
    out += '"';
    return out;
}

Table explore_table(const ExploreResult& result) {
    Table t({"point", "freq_mhz", "max_tsvs", "link_width_bits", "phase",
             "theta", "routing", "switches", "valid", "power_mw",
             "latency_cycles", "sim_latency_cycles", "area_mm2", "tsvs",
             "pareto", "fail_reason"});
    std::set<std::pair<int, int>> on_front;
    for (const auto& e : result.pareto)
        on_front.insert({e.point_index, e.design_index});
    // ParetoEntry.point_index is the position in result.points (which
    // Explorer::run fills in grid order, but callers may reassemble).
    for (int pi = 0; pi < static_cast<int>(result.points.size()); ++pi) {
        const auto& pr = result.points[static_cast<std::size_t>(pi)];
        const GridPoint& gp = pr.point;
        for (int di = 0; di < static_cast<int>(pr.result.points.size());
             ++di) {
            const auto& dp =
                pr.result.points[static_cast<std::size_t>(di)];
            const sim::SimReport* sr = pr.sim_report(di);
            t.add_row({static_cast<long long>(gp.index), gp.freq_hz / 1e6,
                       static_cast<long long>(gp.max_tsvs),
                       static_cast<long long>(gp.link_width_bits),
                       std::string(phase_to_string(gp.phase)), gp.theta,
                       std::string(routing::routing_to_string(gp.routing)),
                       static_cast<long long>(dp.switch_count),
                       static_cast<long long>(dp.valid ? 1 : 0),
                       dp.report.power.total_mw(),
                       dp.report.avg_latency_cycles,
                       sr ? sr->avg_latency_cycles : -1.0,
                       dp.report.noc_area_mm2(),
                       static_cast<long long>(dp.report.total_tsvs),
                       static_cast<long long>(
                           on_front.count({pi, di}) ? 1 : 0),
                       dp.fail_reason});
        }
    }
    return t;
}

bool save_explore_csv(const std::string& path, const ExploreResult& result) {
    return explore_table(result).save_csv(path);
}

void write_explore_json(std::ostream& os, const ExploreResult& result,
                        const std::string& design_name) {
    const auto& st = result.stats;
    os << "{\n";
    os << "  \"design\": " << json_quote(design_name) << ",\n";
    os << "  \"stats\": {\n";
    os << "    \"total_points\": " << st.total_points << ",\n";
    os << "    \"total_designs\": " << st.total_designs << ",\n";
    os << "    \"valid_designs\": " << st.valid_designs << ",\n";
    os << "    \"unique_valid_designs\": " << st.unique_valid_designs
       << ",\n";
    os << "    \"pareto_size\": " << st.pareto_size << ",\n";
    os << "    \"dominated_designs\": " << st.dominated_designs << ",\n";
    os << "    \"num_threads\": " << st.num_threads << ",\n";
    os << "    \"backend\": " << json_quote(backend_to_string(st.backend))
       << ",\n";
    os << "    \"simulated_designs\": " << st.simulated_designs << ",\n";
    os << "    \"stages\": {\n";
    const std::pair<const char*, const pipeline::StageCounters*> stages[] = {
        {"partition", &st.stage.partition},
        {"routing", &st.stage.routing},
        {"placement", &st.stage.placement},
        {"position_lp", &st.stage.position_lp},
        {"evaluation", &st.stage.evaluation},
    };
    for (std::size_t i = 0; i < std::size(stages); ++i) {
        const auto& [name, sc] = stages[i];
        os << "      " << json_quote(name) << ": {\"hits\": " << sc->hits
           << ", \"misses\": " << sc->misses
           << ", \"compute_ms\": " << format("%.3f", sc->compute_ms) << "}"
           << (i + 1 < std::size(stages) ? "," : "") << "\n";
    }
    os << "    },\n";
    os << "    \"elapsed_ms\": " << format("%.3f", st.elapsed_ms) << "\n";
    os << "  },\n";
    os << "  \"points\": [\n";
    for (std::size_t i = 0; i < result.points.size(); ++i) {
        const auto& pr = result.points[i];
        const GridPoint& gp = pr.point;
        int capacity_violations = 0;
        for (const auto& dp : pr.result.points)
            capacity_violations += dp.capacity_violations;
        os << "    {\"point\": " << gp.index
           << ", \"label\": " << json_quote(gp.label())
           << ", \"freq_hz\": " << format("%.0f", gp.freq_hz)
           << ", \"max_tsvs\": " << gp.max_tsvs
           << ", \"link_width_bits\": " << gp.link_width_bits
           << ", \"phase\": " << json_quote(phase_to_string(gp.phase))
           << ", \"theta\": " << format("%g", gp.theta)
           << ", \"routing\": "
           << json_quote(routing::routing_to_string(gp.routing))
           << ", \"phase_used\": " << json_quote(pr.result.phase_used)
           << ", \"designs\": "
           << static_cast<int>(pr.result.points.size())
           << ", \"valid\": " << pr.result.num_valid()
           << ", \"capacity_violations\": " << capacity_violations
           << ", \"pareto_survivors\": " << pr.pareto_survivors << "}"
           << (i + 1 < result.points.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"pareto\": [\n";
    for (std::size_t i = 0; i < result.pareto.size(); ++i) {
        const auto& e = result.pareto[i];
        const DesignPoint& dp = result.design(e);
        const sim::SimReport* sr =
            result.points[static_cast<std::size_t>(e.point_index)]
                .sim_report(e.design_index);
        os << "    {\"point\": " << e.point_index
           << ", \"design\": " << e.design_index
           << ", \"switches\": " << dp.switch_count
           << ", \"power_mw\": "
           << format("%.4f", dp.report.power.total_mw())
           << ", \"latency_cycles\": "
           << format("%.4f", dp.report.avg_latency_cycles);
        if (sr)
            os << ", \"sim_latency_cycles\": "
               << format("%.4f", sr->avg_latency_cycles)
               << ", \"sim_p99_latency_cycles\": "
               << format("%.4f", sr->p99_latency_cycles)
               << ", \"sim_accepted_flits_per_cycle\": "
               << format("%.4f", sr->accepted_flits_per_cycle);
        os << ", \"area_mm2\": "
           << format("%.4f", dp.report.noc_area_mm2()) << "}"
           << (i + 1 < result.pareto.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
}

bool save_explore_json(const std::string& path, const ExploreResult& result,
                       const std::string& design_name) {
    std::ofstream os(path);
    if (!os) return false;
    write_explore_json(os, result, design_name);
    return os.good();
}

}  // namespace sunfloor
