#include "sunfloor/core/design_point.h"

#include <stdexcept>

#include "sunfloor/util/strings.h"

namespace sunfloor {

bool dominates(const EvalReport& a, const EvalReport& b) {
    const bool no_worse = a.power.total_mw() <= b.power.total_mw() &&
                          a.avg_latency_cycles <= b.avg_latency_cycles &&
                          a.noc_area_mm2() <= b.noc_area_mm2();
    const bool strictly_better = a.power.total_mw() < b.power.total_mw() ||
                                 a.avg_latency_cycles < b.avg_latency_cycles ||
                                 a.noc_area_mm2() < b.noc_area_mm2();
    return no_worse && strictly_better;
}

std::vector<int> pareto_front(const std::vector<DesignPoint>& points) {
    std::vector<int> front;
    for (int i = 0; i < static_cast<int>(points.size()); ++i) {
        const auto& a = points[static_cast<std::size_t>(i)];
        if (!a.valid) continue;
        bool dominated = false;
        for (int j = 0; j < static_cast<int>(points.size()); ++j) {
            if (i == j) continue;
            const auto& b = points[static_cast<std::size_t>(j)];
            if (b.valid && dominates(b.report, a.report)) {
                dominated = true;
                break;
            }
        }
        if (!dominated) front.push_back(i);
    }
    return front;
}

namespace {

template <typename Metric>
int best_point(const std::vector<DesignPoint>& points, Metric metric) {
    int best = -1;
    double best_v = 0.0;
    for (int i = 0; i < static_cast<int>(points.size()); ++i) {
        const auto& p = points[static_cast<std::size_t>(i)];
        if (!p.valid) continue;
        const double v = metric(p);
        if (best < 0 || v < best_v) {
            best = i;
            best_v = v;
        }
    }
    return best;
}

}  // namespace

int best_power_point(const std::vector<DesignPoint>& points) {
    return best_point(points, [](const DesignPoint& p) {
        return p.report.power.total_mw();
    });
}

int best_latency_point(const std::vector<DesignPoint>& points) {
    return best_point(points, [](const DesignPoint& p) {
        return p.report.avg_latency_cycles;
    });
}

Topology build_initial_topology(const DesignSpec& spec,
                                const CoreAssignment& assign) {
    const int num_cores = spec.cores.num_cores();
    if (static_cast<int>(assign.core_switch.size()) != num_cores)
        throw std::invalid_argument(
            "build_initial_topology: assignment size mismatch");

    Topology topo(spec.cores, spec.comm.num_flows());

    // Bandwidth-weighted centroid of the cores hanging off each switch —
    // the position estimate used by the path computation's wire costs
    // before the LP refines it.
    const int nsw = assign.num_switches();
    std::vector<double> wx(static_cast<std::size_t>(nsw), 0.0);
    std::vector<double> wy(static_cast<std::size_t>(nsw), 0.0);
    std::vector<double> wsum(static_cast<std::size_t>(nsw), 0.0);
    std::vector<double> core_traffic(static_cast<std::size_t>(num_cores), 0.0);
    for (const auto& f : spec.comm.flows()) {
        core_traffic[static_cast<std::size_t>(f.src)] += f.bw_mbps;
        core_traffic[static_cast<std::size_t>(f.dst)] += f.bw_mbps;
    }
    for (int c = 0; c < num_cores; ++c) {
        const int s = assign.core_switch[static_cast<std::size_t>(c)];
        if (s < 0) continue;  // isolated core, no NoC port needed
        const double w =
            std::max(core_traffic[static_cast<std::size_t>(c)], 1.0);
        const Point pos = spec.cores.core(c).center();
        wx[static_cast<std::size_t>(s)] += pos.x * w;
        wy[static_cast<std::size_t>(s)] += pos.y * w;
        wsum[static_cast<std::size_t>(s)] += w;
    }
    for (int s = 0; s < nsw; ++s) {
        Point pos{};
        if (wsum[static_cast<std::size_t>(s)] > 0.0)
            pos = {wx[static_cast<std::size_t>(s)] /
                       wsum[static_cast<std::size_t>(s)],
                   wy[static_cast<std::size_t>(s)] /
                       wsum[static_cast<std::size_t>(s)]};
        topo.add_switch(format("sw%d", s),
                        assign.switch_layer[static_cast<std::size_t>(s)], pos);
    }

    // Core links only where flows demand them; request and response
    // traffic get separate physical channels (see deadlock.h). A core
    // hangs off one switch, so (core, class) names each link: indexing
    // that replaces add_link's scan over every link.
    std::vector<char> have_up(2 * static_cast<std::size_t>(num_cores), 0);
    std::vector<char> have_down(2 * static_cast<std::size_t>(num_cores), 0);
    for (const auto& f : spec.comm.flows()) {
        const int ss = assign.core_switch[static_cast<std::size_t>(f.src)];
        const int sd = assign.core_switch[static_cast<std::size_t>(f.dst)];
        if (ss < 0 || sd < 0)
            throw std::invalid_argument(
                "build_initial_topology: flow endpoint has no switch");
        const int cls = static_cast<int>(f.type);
        char& up = have_up[2 * static_cast<std::size_t>(f.src) + cls];
        if (!up) {
            topo.add_parallel_link(NodeRef::core(f.src), NodeRef::sw(ss),
                                   f.type);
            up = 1;
        }
        char& down = have_down[2 * static_cast<std::size_t>(f.dst) + cls];
        if (!down) {
            topo.add_parallel_link(NodeRef::sw(sd), NodeRef::core(f.dst),
                                   f.type);
            down = 1;
        }
    }
    return topo;
}

}  // namespace sunfloor
