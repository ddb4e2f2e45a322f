#include "sunfloor/spec/comm_spec.h"

#include <cmath>
#include <stdexcept>

namespace sunfloor {

int CommSpec::add_flow(Flow flow) {
    // NaN compares false against everything, so a bare `bw < 0` check
    // would wave a NaN bandwidth through and poison max_bw/total_bw and
    // every Pareto comparison downstream — require finiteness explicitly.
    if (!std::isfinite(flow.bw_mbps))
        throw std::invalid_argument("CommSpec: bandwidth must be finite");
    if (flow.bw_mbps < 0.0)
        throw std::invalid_argument("CommSpec: negative bandwidth");
    if (!std::isfinite(flow.max_latency_cycles))
        throw std::invalid_argument(
            "CommSpec: latency constraint must be finite");
    if (flow.src == flow.dst)
        throw std::invalid_argument("CommSpec: flow src == dst");
    if (flow.src < 0 || flow.dst < 0)
        throw std::invalid_argument("CommSpec: negative core id");
    flows_.push_back(flow);
    return num_flows() - 1;
}

double CommSpec::max_bw() const {
    double m = 0.0;
    for (const auto& f : flows_) m = std::max(m, f.bw_mbps);
    return m;
}

double CommSpec::min_lat() const {
    double m = 0.0;
    for (const auto& f : flows_)
        if (f.max_latency_cycles > 0.0 &&
            (m == 0.0 || f.max_latency_cycles < m))
            m = f.max_latency_cycles;
    return m;
}

double CommSpec::total_bw() const {
    double t = 0.0;
    for (const auto& f : flows_) t += f.bw_mbps;
    return t;
}

}  // namespace sunfloor
