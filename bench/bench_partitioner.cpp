// Ablation: the min-cut partitioner driving Algorithms 1 and 2 — FM
// refinement on/off and multi-start count, measured on the PGs of the real
// benchmarks (cut quality feeds directly into inter-switch traffic and thus
// NoC power).
#include <benchmark/benchmark.h>

#include "common.h"
#include "sunfloor/core/partition_graphs.h"
#include "sunfloor/graph/partition.h"

using namespace sunfloor;
using namespace sunfloor::bench;

namespace {

void BM_partition(benchmark::State& state) {
    static const DesignSpec spec = prepared_benchmark("D_65_pipe");
    static const Digraph pg =
        build_partition_graph(spec.comm, spec.cores.num_cores(), 1.0);
    PartitionOptions opts;
    opts.refine = state.range(1) != 0;
    opts.num_starts = static_cast<int>(state.range(2));
    const int k = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Rng rng(1);
        auto res = partition_kway(pg, k, rng, opts);
        benchmark::DoNotOptimize(res.cut_weight);
    }
}
BENCHMARK(BM_partition)
    ->Args({8, 1, 8})
    ->Args({8, 0, 8})
    ->Args({16, 1, 8})
    ->Args({16, 1, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_header("Ablation: min-cut partitioner quality", "Section V");
    Table t({"benchmark", "k", "refine", "starts", "cut_weight"});
    for (const char* name : {"D_26_media", "D_36_4", "D_65_pipe"}) {
        const DesignSpec spec = prepared_benchmark(name);
        const Digraph pg =
            build_partition_graph(spec.comm, spec.cores.num_cores(), 1.0);
        for (int k : {4, 8, 12}) {
            for (bool refine : {false, true}) {
                for (int starts : {1, 8}) {
                    PartitionOptions opts;
                    opts.refine = refine;
                    opts.num_starts = starts;
                    Rng rng(1);
                    const auto res = partition_kway(pg, k, rng, opts);
                    t.add_row({std::string(name), static_cast<long long>(k),
                               std::string(refine ? "on" : "off"),
                               static_cast<long long>(starts),
                               res.cut_weight});
                }
            }
        }
    }
    t.write_pretty(std::cout);
    t.save_csv("ablation_partitioner.csv");
    std::printf(
        "\nexpected shape: refinement and multi-start each cut the cut "
        "weight; together they dominate the greedy single start.\n");

    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
