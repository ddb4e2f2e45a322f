// partition_kway against the dense reference transcription of
// tests/oracle/partition_reference.h: for every case both partition the
// same graph from the same RNG state, and the blocks, the cut's bits and
// the RNG state afterwards must be equal.
//
// Cases cover what the synthesis flow partitions and the corners of the
// search:
//   * the paper specs' PG at every k and SPG at three thetas at every k,
//     for alpha 0, 0.6 and 1, and each layer's LPG at every block count
//     with five max_block_size overrides (Phase 2's own is the first);
//   * generated specs of all three families;
//   * random graphs with real, integer (tied), unit and half-ulp weights,
//     zero weights, self-loops, parallel edges and isolated vertices, under
//     k = 1 and k = n, one to three starts, refinement off, zero or one
//     pass and varied max_block_size;
//   * dense half-ulp graphs in a few blocks, where any change to the order
//     of a sum changes the result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "oracle/partition_reference.h"
#include "sunfloor/core/partition_graphs.h"
#include "sunfloor/spec/benchmarks.h"
#include "sunfloor/specgen/specgen.h"
#include "sunfloor/util/thread_pool.h"

namespace sunfloor {
namespace {

struct Case {
    Digraph g;
    int k = 1;
    PartitionOptions opts;
    RngState rng;
    std::string label;
};

// Empty when partition_kway and the reference agree on `c`.
std::string check_case(const Case& c) {
    Rng got_rng(c.rng);
    Rng ref_rng(c.rng);
    const PartitionResult got = partition_kway(c.g, c.k, got_rng, c.opts);
    const PartitionResult ref =
        oracle::partition_kway_reference(c.g, c.k, ref_rng, c.opts);
    std::ostringstream d;
    if (got.block != ref.block) d << "blocks differ; ";
    if (std::memcmp(&got.cut_weight, &ref.cut_weight, sizeof(double)) != 0)
        d << "cut " << got.cut_weight << " vs " << ref.cut_weight << "; ";
    if (!(got_rng.state() == ref_rng.state())) d << "rng state differs; ";
    return d.str().empty() ? std::string() : c.label + ": " + d.str();
}

// Checks every case across a thread pool; reports on this thread.
void check_all(const std::vector<Case>& cases) {
    std::vector<std::string> diffs(cases.size());
    ThreadPool pool;
    pool.parallel_for(cases.size(),
                      [&](std::size_t i) { diffs[i] = check_case(cases[i]); });
    int mismatched = 0;
    for (const std::string& diff : diffs)
        if (!diff.empty() && ++mismatched <= 10) ADD_FAILURE() << diff;
    EXPECT_EQ(mismatched, 0) << mismatched << " of " << cases.size()
                             << " partitions differ from the reference";
}

RngState rng_for(std::uint64_t salt) {
    return Rng(splitmix64(salt)).state();
}

std::vector<int> core_layers(const DesignSpec& spec) {
    std::vector<int> layer;
    for (int c = 0; c < spec.cores.num_cores(); ++c)
        layer.push_back(spec.cores.core(c).layer);
    return layer;
}

// PG at every `stride`-th k, SPG at each of `thetas` (theta_max 15) at the
// same k, and each layer's LPG at every block count with `overrides`
// max_block_size values beyond Phase 2's own.
void add_spec_cases(const DesignSpec& spec, double alpha, int stride,
                    const std::vector<double>& thetas, int overrides,
                    std::vector<Case>& out) {
    const int n = spec.cores.num_cores();
    const Digraph pg = build_partition_graph(spec.comm, n, alpha);
    std::vector<std::pair<std::string, Digraph>> graphs{{"PG", pg}};
    for (const double theta : thetas)
        graphs.emplace_back(
            "SPG(" + std::to_string(theta) + ")",
            build_scaled_partition_graph(pg, core_layers(spec), theta, 15.0));
    const std::string tag =
        spec.name + " alpha=" + std::to_string(alpha) + " ";
    for (const auto& [name, g] : graphs) {
        for (int k = 1; k <= n; k += stride) {
            Case c;
            c.g = g;
            c.k = k;
            c.rng = rng_for(out.size());
            c.label = tag + name + " k=" + std::to_string(k);
            out.push_back(std::move(c));
        }
    }
    for (int ly = 0; ly < spec.cores.num_layers(); ++ly) {
        const LayerGraph lg =
            build_layer_partition_graph(spec.comm, spec.cores, ly, alpha);
        const int cores = static_cast<int>(lg.core_ids.size());
        for (int np = 1; np <= cores; ++np) {
            const int even = (cores + np - 1) / np;
            const int sizes[] = {even, even + 1, even + 2, 2 * even, cores};
            for (int o = 0; o <= overrides && o < 5; ++o) {
                Case c;
                c.g = lg.g;
                c.k = np;
                c.opts.max_block_size = sizes[o];
                c.rng = rng_for(out.size());
                c.label = tag + "LPG(" + std::to_string(ly) + ") np=" +
                          std::to_string(np) +
                          " max_block=" + std::to_string(sizes[o]);
                out.push_back(std::move(c));
            }
        }
    }
}

TEST(PartitionEquivalence, PaperSpecs) {
    std::vector<Case> cases;
    for (const auto& name : benchmark_names()) {
        const DesignSpec spec = make_benchmark(name);
        add_spec_cases(spec, 1.0, 1, {1.0, 7.0, 13.0}, 4, cases);
        add_spec_cases(spec, 0.6, 1, {3.0}, 1, cases);
        add_spec_cases(spec, 0.0, 2, {5.0}, 0, cases);
    }
    check_all(cases);
}

TEST(PartitionEquivalence, GeneratedSpecs) {
    std::vector<Case> cases;
    for (const auto family : {specgen::GenFamily::Pipeline,
                              specgen::GenFamily::HubAndSpoke,
                              specgen::GenFamily::LayeredDag}) {
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
            specgen::GenParams gp;
            gp.family = family;
            gp.num_cores = 18 + 6 * static_cast<int>(seed);
            gp.bw_skew = 1.0;
            add_spec_cases(specgen::generate(gp, seed), 0.7, 2, {4.0}, 1,
                           cases);
        }
    }
    check_all(cases);
}

// HalfUlp weights are 1 and 2^-53, half an ulp of 1: 1 + 2^-53 rounds
// back to 1 but 2^-53 + 2^-53 + 1 does not, so a sum formed in another
// order than the reference's comes out different and moves the pick.
enum class Weights { Real, Integer, Unit, HalfUlp };

// A random graph on n vertices, sparse or dense: edges between random
// pairs (parallel edges and self-loops included), some of them
// zero-weight, and the top quarter of the ids left isolated.
Digraph random_graph(int n, Weights kind, Rng& rng) {
    Digraph g(n);
    const int live = std::max(1, n - n / 4);
    const int per_vertex = rng.next_bool(0.5) ? 3 : live;
    const int edges = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(per_vertex * live + 1)));
    for (int e = 0; e < edges; ++e) {
        const int u = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(live)));
        const int v = rng.next_bool(0.1)
                          ? u
                          : static_cast<int>(rng.next_below(
                                static_cast<std::uint64_t>(live)));
        double w = 1.0;
        if (kind == Weights::Real) w = rng.next_double() * 10.0;
        if (kind == Weights::Integer)
            w = static_cast<double>(rng.next_int(0, 4));
        if (kind == Weights::HalfUlp) w = rng.next_bool(0.5) ? 1.0 : 0x1p-53;
        if (rng.next_bool(0.05)) w = 0.0;
        g.add_edge(u, v, w);
        if (rng.next_bool(0.15)) g.add_edge(u, v, w);  // parallel
    }
    return g;
}

TEST(PartitionEquivalence, RandomGraphs) {
    std::vector<Case> cases;
    Rng gen(2026);
    for (int i = 0; i < 3000; ++i) {
        const int n = gen.next_int(1, 32);
        const auto kind = static_cast<Weights>(i % 4);
        Case c;
        c.g = random_graph(n, kind, gen);
        switch (i % 5) {
            case 0: c.k = 1; break;
            case 1: c.k = n; break;
            case 2: c.k = std::min(n, gen.next_int(2, 4)); break;
            default: c.k = gen.next_int(1, n); break;
        }
        c.opts.num_starts = gen.next_int(1, 3);
        c.opts.refine = !gen.next_bool(0.25);
        const int even = (n + c.k - 1) / c.k;
        if (gen.next_bool(0.3))
            c.opts.max_block_size = even + gen.next_int(0, 3);
        c.rng = rng_for(static_cast<std::uint64_t>(i) + 1000003);
        c.label = "random #" + std::to_string(i) + " n=" + std::to_string(n) +
                  " k=" + std::to_string(c.k);
        cases.push_back(std::move(c));
    }
    check_all(cases);
}

// Dense half-ulp graphs cut into a few large blocks, where a vertex sums
// many weights into one block: growth's and FM's sums must add them in
// the reference's order, with and without refinement.
TEST(PartitionEquivalence, SumOrderSensitiveGraphs) {
    std::vector<Case> cases;
    Rng gen(53);
    for (int i = 0; i < 2000; ++i) {
        const int n = gen.next_int(6, 28);
        Case c;
        c.g = Digraph(n);
        const int edges = gen.next_int(n, n * n);
        for (int e = 0; e < edges; ++e)
            c.g.add_edge(gen.next_int(0, n - 1), gen.next_int(0, n - 1),
                         gen.next_bool(0.5) ? 1.0 : 0x1p-53);
        c.k = gen.next_int(2, 4);
        c.opts.num_starts = gen.next_int(1, 2);
        c.opts.refine = i % 2 == 0;
        c.rng = rng_for(static_cast<std::uint64_t>(i) + 2000003);
        c.label = "half-ulp #" + std::to_string(i) + " n=" + std::to_string(n) +
                  " k=" + std::to_string(c.k);
        cases.push_back(std::move(c));
    }
    check_all(cases);
}

}  // namespace
}  // namespace sunfloor
