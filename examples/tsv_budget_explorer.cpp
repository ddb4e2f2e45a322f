// Explore the TSV yield / NoC power tradeoff (the Fig. 1 + Figs. 21/22
// story): sweep the max_ill budget on D_36_4, convert it into TSV counts,
// and report synthesized power, latency and the estimated stack yield at
// each budget.
#include <iostream>

#include "sunfloor/core/synthesizer.h"
#include "sunfloor/floorplan/annealer.h"
#include "sunfloor/spec/benchmarks.h"
#include "sunfloor/util/csv.h"

using namespace sunfloor;

int main() {
    DesignSpec spec = make_d36(4);
    AnnealOptions fopts;
    fopts.wirelength_weight = 5e-4;
    Rng rng(42);
    floorplan_design_layers(spec.cores, spec.comm, fopts, rng);

    Table t({"max_ill", "tsvs_used", "yield_est", "noc_power_mW",
             "avg_latency_cyc"});
    for (int ill = 8; ill <= 28; ill += 4) {
        SynthesisConfig cfg;
        cfg.max_ill = ill;
        const auto res = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
        const int bp = res.best_power_index();
        if (bp < 0) {
            t.add_row({static_cast<long long>(ill), std::string("-"),
                       std::string("-"), std::string("infeasible"),
                       std::string("-")});
            continue;
        }
        const auto& p = res.points[static_cast<std::size_t>(bp)];
        const int tsvs = p.report.total_tsvs;
        t.add_row({static_cast<long long>(ill),
                   static_cast<long long>(tsvs), TsvModel::yield(tsvs),
                   p.report.power.noc_mw(), p.report.avg_latency_cycles});
    }
    t.write_pretty(std::cout);
    std::cout << "\nLoosening the TSV budget buys power and latency until "
                 "~24 links; the yield model shows what that budget costs "
                 "on the manufacturing side.\n";
    return 0;
}
