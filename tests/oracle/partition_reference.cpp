#include "oracle/partition_reference.h"

#include <algorithm>
#include <stdexcept>

namespace sunfloor::oracle {

namespace {

constexpr double kBigNeg = 1e300;
constexpr double kInfPartitionCut = 1e301;

// Symmetric adjacency weights: w[u][v] = sum of weights of u->v and v->u.
std::vector<std::vector<double>> symmetric_weights(const Digraph& g) {
    const std::size_t n = static_cast<std::size_t>(g.num_vertices());
    std::vector<std::vector<double>> w(n, std::vector<double>(n, 0.0));
    for (const auto& e : g.edges()) {
        if (e.src == e.dst) continue;  // self-loops never contribute to cut
        w[static_cast<std::size_t>(e.src)][static_cast<std::size_t>(e.dst)] +=
            e.weight;
        w[static_cast<std::size_t>(e.dst)][static_cast<std::size_t>(e.src)] +=
            e.weight;
    }
    return w;
}

// Greedy growth: seed block b with the b-th vertex of an RNG-shuffled
// order, then attach the remaining vertices in that order, each to the
// non-full block it is most connected to; ties go to the emptier block,
// then the lower index.
std::vector<int> grow_initial(const std::vector<std::vector<double>>& w, int k,
                              int max_block, Rng& rng) {
    const int n = static_cast<int>(w.size());
    std::vector<int> block(static_cast<std::size_t>(n), -1);
    std::vector<int> size(static_cast<std::size_t>(k), 0);

    std::vector<int> order(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
    rng.shuffle(order);

    // Seeds.
    for (int b = 0; b < k; ++b) {
        block[static_cast<std::size_t>(order[static_cast<std::size_t>(b)])] = b;
        ++size[static_cast<std::size_t>(b)];
    }
    // Attach the rest greedily.
    for (int idx = k; idx < n; ++idx) {
        const int v = order[static_cast<std::size_t>(idx)];
        int best_b = -1;
        double best_conn = -1.0;
        for (int b = 0; b < k; ++b) {
            if (size[static_cast<std::size_t>(b)] >= max_block) continue;
            double conn = 0.0;
            for (int u = 0; u < n; ++u)
                if (block[static_cast<std::size_t>(u)] == b)
                    conn += w[static_cast<std::size_t>(v)]
                             [static_cast<std::size_t>(u)];
            // Prefer emptier blocks on ties so growth stays balanced.
            if (conn > best_conn ||
                (conn == best_conn && best_b >= 0 &&
                 size[static_cast<std::size_t>(b)] <
                     size[static_cast<std::size_t>(best_b)])) {
                best_conn = conn;
                best_b = b;
            }
        }
        block[static_cast<std::size_t>(v)] = best_b;
        ++size[static_cast<std::size_t>(best_b)];
    }
    return block;
}

// One FM pass of single-vertex moves with a lock set; returns the best
// prefix assignment found (may equal the input when no improvement exists).
// `cut` is updated to the cut of the returned assignment.
bool fm_pass(const std::vector<std::vector<double>>& w, int k, int max_block,
             std::vector<int>& block, double& cut) {
    const int n = static_cast<int>(w.size());
    std::vector<int> size(static_cast<std::size_t>(k), 0);
    for (int v = 0; v < n; ++v) ++size[static_cast<std::size_t>(block[static_cast<std::size_t>(v)])];

    std::vector<char> locked(static_cast<std::size_t>(n), 0);
    std::vector<int> work = block;
    std::vector<int> best = block;
    double work_cut = cut;
    double best_cut = cut;

    // conn[v][b]: total weight from v into block b under `work`.
    std::vector<std::vector<double>> conn(
        static_cast<std::size_t>(n), std::vector<double>(static_cast<std::size_t>(k), 0.0));
    for (int v = 0; v < n; ++v)
        for (int u = 0; u < n; ++u)
            conn[static_cast<std::size_t>(v)][static_cast<std::size_t>(
                work[static_cast<std::size_t>(u)])] +=
                w[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)];

    for (int step = 0; step < n; ++step) {
        int best_v = -1;
        int best_b = -1;
        double best_gain = -kBigNeg;
        for (int v = 0; v < n; ++v) {
            if (locked[static_cast<std::size_t>(v)]) continue;
            const int from = work[static_cast<std::size_t>(v)];
            if (size[static_cast<std::size_t>(from)] <= 1)
                continue;  // never empty a block
            for (int b = 0; b < k; ++b) {
                if (b == from) continue;
                if (size[static_cast<std::size_t>(b)] >= max_block) continue;
                const double gain =
                    conn[static_cast<std::size_t>(v)][static_cast<std::size_t>(b)] -
                    conn[static_cast<std::size_t>(v)][static_cast<std::size_t>(from)];
                if (gain > best_gain) {
                    best_gain = gain;
                    best_v = v;
                    best_b = b;
                }
            }
        }
        if (best_v < 0) break;  // no movable vertex

        const int from = work[static_cast<std::size_t>(best_v)];
        work[static_cast<std::size_t>(best_v)] = best_b;
        --size[static_cast<std::size_t>(from)];
        ++size[static_cast<std::size_t>(best_b)];
        locked[static_cast<std::size_t>(best_v)] = 1;
        work_cut -= best_gain;
        for (int u = 0; u < n; ++u) {
            const double wuv =
                w[static_cast<std::size_t>(u)][static_cast<std::size_t>(best_v)];
            if (wuv == 0.0) continue;
            conn[static_cast<std::size_t>(u)][static_cast<std::size_t>(from)] -= wuv;
            conn[static_cast<std::size_t>(u)][static_cast<std::size_t>(best_b)] += wuv;
        }
        if (work_cut < best_cut - 1e-12) {
            best_cut = work_cut;
            best = work;
        }
    }

    if (best_cut < cut - 1e-12) {
        block = best;
        cut = best_cut;
        return true;
    }
    return false;
}

}  // namespace

PartitionResult partition_kway_reference(const Digraph& g, int k, Rng& rng,
                                         const PartitionOptions& opts) {
    const int n = g.num_vertices();
    if (k < 1) throw std::invalid_argument("partition_kway: k < 1");
    if (k > n) throw std::invalid_argument("partition_kway: k > |V|");

    const int max_block =
        opts.max_block_size > 0 ? opts.max_block_size : (n + k - 1) / k;
    if (static_cast<long long>(max_block) * k < n)
        throw std::invalid_argument(
            "partition_kway: max_block_size too small to fit all vertices");

    const auto w = symmetric_weights(g);

    PartitionResult best;
    best.cut_weight = kInfPartitionCut;
    const int starts = std::max(1, opts.num_starts);
    for (int s = 0; s < starts; ++s) {
        std::vector<int> block = grow_initial(w, k, max_block, rng);
        double cut = cut_weight(g, block);
        if (opts.refine) {
            for (int pass = 0; pass < kMaxPasses; ++pass)
                if (!fm_pass(w, k, max_block, block, cut)) break;
            // fm_pass tracks cut incrementally on the symmetric weights;
            // recompute exactly on the directed graph to avoid drift.
            cut = cut_weight(g, block);
        }
        if (cut < best.cut_weight) {
            best.cut_weight = cut;
            best.block = std::move(block);
        }
    }
    return best;
}

}  // namespace sunfloor::oracle
