// Fig. 12: wire-length distribution of the NoC links in the best 2-D and
// 3-D D_26_media designs. The paper's observation: the 2-D design has many
// long wires, the 3-D one concentrates at short lengths.
#include <benchmark/benchmark.h>

#include "common.h"

using namespace sunfloor;
using namespace sunfloor::bench;

namespace {

std::vector<double> best_lengths(const DesignSpec& spec) {
    SynthesisConfig cfg = paper_cfg();
    const auto res = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
    const auto* bp = best(res);
    return bp ? bp->report.wire_lengths_mm : std::vector<double>{};
}

void BM_evaluate_best_point(benchmark::State& state) {
    const DesignSpec spec = prepared_benchmark("D_26_media");
    SynthesisConfig cfg = paper_cfg();
    const auto res = run_synthesis(spec, cfg, SynthesisPhase::Phase1);
    const auto* bp = best(res);
    for (auto _ : state) {
        auto rep = evaluate_topology(bp->topo, spec, cfg.eval);
        benchmark::DoNotOptimize(rep.power.noc_mw());
    }
}
BENCHMARK(BM_evaluate_best_point)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
    print_header("Wire-length distributions, D_26_media", "Fig. 12");
    const DesignSpec spec3d = prepared_benchmark("D_26_media");
    const auto len3d = best_lengths(spec3d);
    const auto len2d = best_lengths(prepared_2d(spec3d));

    const double bin = 1.0;
    const int bins = 10;
    std::printf("\n-- 3-D --\n");
    const Table t3 = wirelength_histogram(len3d, bin, bins);
    t3.write_pretty(std::cout);
    t3.save_csv("fig12_wirelength_3d.csv");
    std::printf("\n-- 2-D --\n");
    const Table t2 = wirelength_histogram(len2d, bin, bins);
    t2.write_pretty(std::cout);
    t2.save_csv("fig12_wirelength_2d.csv");

    auto stats = [](const std::vector<double>& v) {
        double sum = 0.0;
        double mx = 0.0;
        for (double x : v) {
            sum += x;
            mx = std::max(mx, x);
        }
        return std::pair<double, double>(v.empty() ? 0 : sum / v.size(), mx);
    };
    const auto [m3, x3] = stats(len3d);
    const auto [m2, x2] = stats(len2d);
    std::printf("\n3-D: mean %.2f mm, max %.2f mm over %zu links\n", m3, x3,
                len3d.size());
    std::printf("2-D: mean %.2f mm, max %.2f mm over %zu links\n", m2, x2,
                len2d.size());
    std::printf("expected shape: 2-D mean and max exceed 3-D.\n");

    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
