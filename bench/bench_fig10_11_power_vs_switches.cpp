// Figs. 10 & 11: NoC power consumption (switch / switch-to-switch link /
// core-to-switch link split) versus switch count for D_26_media, in 2-D and
// in 3-D. The paper's observations to reproduce: valid topologies start at
// ~3 switches (max switch size at 400 MHz), power is U-shaped-to-rising in
// the switch count, and 3-D sits well below 2-D (24% at the best point).
#include <benchmark/benchmark.h>

#include "common.h"

using namespace sunfloor;
using namespace sunfloor::bench;

namespace {

void run_series(const char* tag, const DesignSpec& spec) {
    SynthesisConfig cfg = paper_cfg();
    const auto res = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
    Table t({"switches", "switch_mW", "s2s_link_mW", "c2s_link_mW",
             "total_mW", "valid"});
    for (const auto& p : res.points)
        t.add_row({static_cast<long long>(p.switch_count),
                   p.report.power.switch_mw, p.report.power.s2s_link_mw,
                   p.report.power.c2s_link_mw, p.report.power.noc_mw(),
                   std::string(p.valid ? "yes" : "no")});
    std::printf("\n-- %s --\n", tag);
    t.write_pretty(std::cout);
    t.save_csv(std::string("fig10_11_") + tag + ".csv");
    if (const auto* bp = best(res))
        std::printf("best point: %d switches, %.2f mW NoC power\n",
                    bp->switch_count, bp->report.power.noc_mw());
}

void BM_synthesize_d26_3d(benchmark::State& state) {
    const DesignSpec spec = prepared_benchmark("D_26_media");
    SynthesisConfig cfg = paper_cfg();
    cfg.max_switches = static_cast<int>(state.range(0));
    cfg.run_floorplan = false;
    for (auto _ : state) {
        auto res = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
        benchmark::DoNotOptimize(res.num_valid());
    }
}
BENCHMARK(BM_synthesize_d26_3d)->Arg(8)->Arg(16)->Arg(26)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_header("Power vs switch count, D_26_media 2-D and 3-D",
                 "Figs. 10 and 11");
    const DesignSpec spec3d = prepared_benchmark("D_26_media");
    run_series("3d", spec3d);
    run_series("2d", prepared_2d(spec3d));
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
