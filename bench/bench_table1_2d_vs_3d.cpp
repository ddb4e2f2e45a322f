// Table I: 2-D vs 3-D NoC comparison — link power, switch power, total
// power (mW) and average zero-load latency (cycles) for the six synthetic
// benchmarks. Paper headline: 38% average power and 13% average latency
// reduction in 3-D; the distributed designs save the most, the pipelined
// ones the least.
#include <benchmark/benchmark.h>

#include "common.h"

using namespace sunfloor;
using namespace sunfloor::bench;

namespace {

const char* kTable1Benchmarks[] = {"D_36_4",   "D_36_6",    "D_36_8",
                                   "D_35_bot", "D_65_pipe", "D_38_tvopd"};

void BM_full_2d_vs_3d_d36_4(benchmark::State& state) {
    const DesignSpec spec = prepared_benchmark("D_36_4");
    SynthesisConfig cfg = paper_cfg();
    cfg.run_floorplan = false;
    cfg.max_switches = 12;
    for (auto _ : state) {
        auto r3 = run_synthesis(spec, cfg, SynthesisPhase::Auto);
        benchmark::DoNotOptimize(r3.num_valid());
    }
}
BENCHMARK(BM_full_2d_vs_3d_d36_4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_header("2-D vs 3-D NoC comparison", "Table I");
    Table t({"benchmark", "link_mW_2d", "link_mW_3d", "switch_mW_2d",
             "switch_mW_3d", "total_mW_2d", "total_mW_3d", "lat_2d", "lat_3d"});
    double psave_sum = 0.0;
    double lsave_sum = 0.0;
    int n = 0;
    for (const char* name : kTable1Benchmarks) {
        const DesignSpec spec3d = prepared_benchmark(name);
        const DesignSpec spec2d = prepared_2d(spec3d);
        SynthesisConfig cfg = paper_cfg();
        const auto r3 = run_synthesis(spec3d, cfg, SynthesisPhase::Auto);
        const auto r2 = run_synthesis(spec2d, cfg, SynthesisPhase::Auto);
        const auto* b3 = best(r3);
        const auto* b2 = best(r2);
        if (!b3 || !b2) {
            std::printf("%s: missing valid point (3d=%d 2d=%d)\n", name,
                        r3.num_valid(), r2.num_valid());
            continue;
        }
        t.add_row({std::string(name), b2->report.power.link_mw(),
                   b3->report.power.link_mw(), b2->report.power.switch_mw,
                   b3->report.power.switch_mw, b2->report.power.noc_mw(),
                   b3->report.power.noc_mw(), b2->report.avg_latency_cycles,
                   b3->report.avg_latency_cycles});
        psave_sum +=
            1.0 - b3->report.power.noc_mw() / b2->report.power.noc_mw();
        lsave_sum += 1.0 - b3->report.avg_latency_cycles /
                               b2->report.avg_latency_cycles;
        ++n;
    }
    t.write_pretty(std::cout);
    t.save_csv("table1_2d_vs_3d.csv");
    if (n > 0)
        std::printf(
            "\naverage 3-D power saving %.1f%% (paper: 38%%), average "
            "latency saving %.1f%% (paper: 13%%)\n"
            "expected shape: distributed (D_36_x) save most, pipelines "
            "(D_65_pipe) least.\n",
            100.0 * psave_sum / n, 100.0 * lsave_sum / n);

    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
