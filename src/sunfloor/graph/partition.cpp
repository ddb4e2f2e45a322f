#include "sunfloor/graph/partition.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "sunfloor/obs/metrics.h"

namespace sunfloor {

double cut_weight(const Digraph& g, const std::vector<int>& block) {
    double cut = 0.0;
    for (const auto& e : g.edges())
        if (block.at(static_cast<std::size_t>(e.src)) !=
            block.at(static_cast<std::size_t>(e.dst)))
            cut += e.weight;
    return cut;
}

namespace {

constexpr double kBigNeg = 1e300;
constexpr double kNone = -std::numeric_limits<double>::infinity();

// The symmetric weights w[u][v] (the summed weight of every u->v and v->u
// edge; self-loops never cross a cut) as CSR rows that hold only the
// nonzero entries, in ascending neighbour id. An entry adds its edges in
// edge order starting from +0.0, exactly as a dense n x n accumulation
// would, so w[u][v] and w[v][u] are the same bits.
struct SymmetricRows {
    std::vector<int> begin;  ///< row v is [begin[v], begin[v + 1])
    std::vector<int> nbr;
    std::vector<double> wt;

    int num_vertices() const { return static_cast<int>(begin.size()) - 1; }
};

SymmetricRows symmetric_rows(const Digraph& g) {
    const std::size_t n = static_cast<std::size_t>(g.num_vertices());
    // Half-edges bucketed by row, each bucket in edge order.
    std::vector<int> head(n + 1, 0);
    for (const auto& e : g.edges()) {
        // A NaN or negative weight leaves growth with no block to pick,
        // and an infinite one makes every cut infinite.
        if (!std::isfinite(e.weight) || e.weight < 0.0)
            throw std::invalid_argument(
                "partition_kway: edge weights must be finite and "
                "non-negative");
        if (e.src == e.dst) continue;
        ++head[static_cast<std::size_t>(e.src) + 1];
        ++head[static_cast<std::size_t>(e.dst) + 1];
    }
    std::partial_sum(head.begin(), head.end(), head.begin());
    std::vector<int> fill(head.begin(), head.end() - 1);
    std::vector<int> half_nbr(static_cast<std::size_t>(head[n]));
    std::vector<double> half_wt(half_nbr.size());
    for (const auto& e : g.edges()) {
        if (e.src == e.dst) continue;
        const auto at = static_cast<std::size_t>(
            fill[static_cast<std::size_t>(e.src)]++);
        half_nbr[at] = e.dst;
        half_wt[at] = e.weight;
        const auto back = static_cast<std::size_t>(
            fill[static_cast<std::size_t>(e.dst)]++);
        half_nbr[back] = e.src;
        half_wt[back] = e.weight;
    }

    // Merge each row's half-edges per neighbour. A zero entry is dropped:
    // adding +0.0 leaves every sum the kernel forms unchanged, since none
    // of them is ever -0.0.
    SymmetricRows rows;
    rows.begin.assign(n + 1, 0);
    rows.nbr.reserve(half_nbr.size());
    rows.wt.reserve(half_nbr.size());
    std::vector<double> acc(n, 0.0);
    std::vector<std::size_t> seen(n, n);
    std::vector<int> touched;
    for (std::size_t u = 0; u < n; ++u) {
        touched.clear();
        for (auto i = static_cast<std::size_t>(head[u]);
             i < static_cast<std::size_t>(head[u + 1]); ++i) {
            const auto v = static_cast<std::size_t>(half_nbr[i]);
            if (seen[v] != u) {
                seen[v] = u;
                touched.push_back(half_nbr[i]);
            }
            acc[v] += half_wt[i];
        }
        std::sort(touched.begin(), touched.end());
        for (const int v : touched) {
            double& w = acc[static_cast<std::size_t>(v)];
            if (w != 0.0) {
                rows.nbr.push_back(v);
                rows.wt.push_back(w);
            }
            w = 0.0;
        }
        rows.begin[u + 1] = static_cast<int>(rows.nbr.size());
    }
    return rows;
}

struct Move {
    int v = 0;
    int from = 0;
};

// Buffers one partition_kway call reuses across its starts and passes.
struct Workspace {
    Workspace(int n, int k)
        : order(static_cast<std::size_t>(n)),
          size(static_cast<std::size_t>(k)),
          block_conn(static_cast<std::size_t>(k)),
          conn(static_cast<std::size_t>(n) * static_cast<std::size_t>(k)),
          own(static_cast<std::size_t>(n)),
          room(static_cast<std::size_t>(k)) {
        unlocked.reserve(static_cast<std::size_t>(n));
        moves.reserve(static_cast<std::size_t>(n));
    }

    std::vector<int> order;          ///< growth: shuffled vertex order
    std::vector<int> size;           ///< vertices per block
    std::vector<double> block_conn;  ///< growth: one vertex's weight per block
    /// FM: conn[v * k + b], v's weight into block b; -inf at b = block[v],
    /// whose weight is own[v].
    std::vector<double> conn;
    std::vector<double> own;
    std::vector<int> room;       ///< FM: ascending blocks below max_block
    std::vector<int> unlocked;   ///< FM: ascending unlocked vertices
    std::vector<Move> moves;     ///< FM: this pass's moves, in order
};

// Greedy growth: seed block b with the b-th vertex of an RNG-shuffled
// order, then attach the remaining vertices in that order, each to the
// non-full block it is most connected to; ties go to the emptier block,
// then the lower index. A vertex's per-block sums add its row in
// ascending neighbour id, the order of a scan over every vertex.
void grow_initial(const SymmetricRows& rows, int k, int max_block, Rng& rng,
                  Workspace& ws, std::vector<int>& block) {
    const int n = rows.num_vertices();
    block.assign(static_cast<std::size_t>(n), -1);
    std::fill(ws.size.begin(), ws.size.end(), 0);
    std::iota(ws.order.begin(), ws.order.end(), 0);
    rng.shuffle(ws.order);

    for (int b = 0; b < k; ++b) {
        block[static_cast<std::size_t>(ws.order[static_cast<std::size_t>(b)])] =
            b;
        ws.size[static_cast<std::size_t>(b)] = 1;
    }
    for (int idx = k; idx < n; ++idx) {
        const int v = ws.order[static_cast<std::size_t>(idx)];
        std::fill(ws.block_conn.begin(), ws.block_conn.end(), 0.0);
        for (int i = rows.begin[static_cast<std::size_t>(v)];
             i < rows.begin[static_cast<std::size_t>(v) + 1]; ++i) {
            const int b = block[static_cast<std::size_t>(
                rows.nbr[static_cast<std::size_t>(i)])];
            if (b >= 0)
                ws.block_conn[static_cast<std::size_t>(b)] +=
                    rows.wt[static_cast<std::size_t>(i)];
        }
        int best_b = -1;
        double best_conn = -1.0;
        for (int b = 0; b < k; ++b) {
            const int size = ws.size[static_cast<std::size_t>(b)];
            if (size >= max_block) continue;
            const double conn = ws.block_conn[static_cast<std::size_t>(b)];
            if (conn > best_conn ||
                (conn == best_conn && best_b >= 0 &&
                 size < ws.size[static_cast<std::size_t>(best_b)])) {
                best_conn = conn;
                best_b = b;
            }
        }
        block[static_cast<std::size_t>(v)] = best_b;
        ++ws.size[static_cast<std::size_t>(best_b)];
    }
}

// Largest of row[room[0..count)], or -inf when count is 0. The max is
// exact in any order, so two running maxima keep the loop off a single
// dependency chain.
double max_over(const double* row, const int* room, std::size_t count) {
    double m0 = kNone;
    double m1 = kNone;
    std::size_t j = 0;
    for (; j + 1 < count; j += 2) {
        m0 = std::max(m0, row[room[j]]);
        m1 = std::max(m1, row[room[j + 1]]);
    }
    if (j < count) m0 = std::max(m0, row[room[j]]);
    return std::max(m0, m1);
}

// One FM pass of single-vertex moves with a lock set. Each step moves an
// unlocked vertex out of a non-singleton block into a block below
// max_block, picking the largest gain conn[v][b] - conn[v][from], then the
// lowest v, then the lowest b. The pass keeps the best prefix of its
// moves: when that prefix improves `cut`, `block` and `cut` take it and
// the pass returns true.
//
// A step lists the blocks with room once, in ascending order, and scans
// the unlocked vertices in ascending order with a strict `>`. A rounded
// difference never decreases as its first operand grows, so a vertex's
// largest gain is max_b conn[v][b] - conn[v][from] over the listed blocks;
// the own-block slot holds -inf so the max skips it. Only the winner's
// lowest block with that gain is looked up.
bool fm_pass(const SymmetricRows& rows, int k, int max_block, Workspace& ws,
             std::vector<int>& block, double& cut, long long& steps) {
    const int n = rows.num_vertices();
    const auto kk = static_cast<std::size_t>(k);
    std::vector<int>& size = ws.size;
    std::fill(size.begin(), size.end(), 0);
    for (const int b : block) ++size[static_cast<std::size_t>(b)];

    // conn adds each row in ascending neighbour id, like a dense scan.
    std::fill(ws.conn.begin(), ws.conn.end(), 0.0);
    for (int v = 0; v < n; ++v) {
        const auto vi = static_cast<std::size_t>(v);
        double* cv = &ws.conn[vi * kk];
        for (int i = rows.begin[vi]; i < rows.begin[vi + 1]; ++i)
            cv[block[static_cast<std::size_t>(
                rows.nbr[static_cast<std::size_t>(i)])]] +=
                rows.wt[static_cast<std::size_t>(i)];
        ws.own[vi] = cv[block[vi]];
        cv[block[vi]] = kNone;
    }
    ws.unlocked.resize(static_cast<std::size_t>(n));
    std::iota(ws.unlocked.begin(), ws.unlocked.end(), 0);
    ws.moves.clear();

    double work_cut = cut;
    double best_cut = cut;
    std::size_t best_len = 0;
    for (int step = 0; step < n; ++step) {
        std::size_t rooms = 0;
        for (int b = 0; b < k; ++b) {
            ws.room[rooms] = b;
            rooms += size[static_cast<std::size_t>(b)] < max_block ? 1 : 0;
        }

        int best_v = -1;
        std::size_t best_at = 0;
        double best_gain = -kBigNeg;
        for (std::size_t at = 0; at < ws.unlocked.size(); ++at) {
            const auto v = static_cast<std::size_t>(ws.unlocked[at]);
            if (size[static_cast<std::size_t>(block[v])] <= 1)
                continue;  // never empty a block
            const double gain =
                max_over(&ws.conn[v * kk], ws.room.data(), rooms) - ws.own[v];
            if (gain > best_gain) {
                best_gain = gain;
                best_v = static_cast<int>(v);
                best_at = at;
            }
        }
        if (best_v < 0) break;  // no movable vertex

        const auto mv = static_cast<std::size_t>(best_v);
        const double* cm = &ws.conn[mv * kk];
        int to = -1;
        for (std::size_t j = 0; j < rooms && to < 0; ++j)
            if (cm[ws.room[j]] - ws.own[mv] == best_gain) to = ws.room[j];
        const int from = block[mv];
        block[mv] = to;
        --size[static_cast<std::size_t>(from)];
        ++size[static_cast<std::size_t>(to)];
        ws.unlocked.erase(ws.unlocked.begin() +
                          static_cast<std::ptrdiff_t>(best_at));
        ws.moves.push_back({best_v, from});
        work_cut -= best_gain;
        for (int i = rows.begin[mv]; i < rows.begin[mv + 1]; ++i) {
            const auto u = static_cast<std::size_t>(
                rows.nbr[static_cast<std::size_t>(i)]);
            const double w = rows.wt[static_cast<std::size_t>(i)];
            double* cu = &ws.conn[u * kk];
            *(block[u] == from ? &ws.own[u] : cu + from) -= w;
            *(block[u] == to ? &ws.own[u] : cu + to) += w;
        }
        if (work_cut < best_cut - 1e-12) {
            best_cut = work_cut;
            best_len = ws.moves.size();
        }
    }
    steps += static_cast<long long>(ws.moves.size());

    const bool improved = best_cut < cut - 1e-12;
    const std::size_t keep = improved ? best_len : 0;
    while (ws.moves.size() > keep) {
        block[static_cast<std::size_t>(ws.moves.back().v)] =
            ws.moves.back().from;
        ws.moves.pop_back();
    }
    if (improved) cut = best_cut;
    return improved;
}

}  // namespace

PartitionResult partition_kway(const Digraph& g, int k, Rng& rng,
                               const PartitionOptions& opts) {
    const int n = g.num_vertices();
    if (k < 1) throw std::invalid_argument("partition_kway: k < 1");
    if (k > n) throw std::invalid_argument("partition_kway: k > |V|");

    const int max_block =
        opts.max_block_size > 0 ? opts.max_block_size : (n + k - 1) / k;
    if (static_cast<long long>(max_block) * k < n)
        throw std::invalid_argument(
            "partition_kway: max_block_size too small to fit all vertices");

    const SymmetricRows rows = symmetric_rows(g);
    Workspace ws(n, k);
    std::vector<int> block;

    PartitionResult best;
    const int starts = std::max(1, opts.num_starts);
    long long passes = 0;
    long long steps = 0;
    for (int s = 0; s < starts; ++s) {
        grow_initial(rows, k, max_block, rng, ws, block);
        double cut = cut_weight(g, block);
        if (opts.refine) {
            for (int pass = 0; pass < kMaxPasses; ++pass) {
                ++passes;
                if (!fm_pass(rows, k, max_block, ws, block, cut, steps))
                    break;
            }
            // fm_pass tracks cut incrementally on the symmetric weights;
            // recompute exactly on the directed graph to avoid drift.
            cut = cut_weight(g, block);
        }
        // The first start is always kept, so even a cut too large to
        // compare still returns a block for every vertex.
        if (s == 0 || cut < best.cut_weight) {
            best.cut_weight = cut;
            best.block = block;
        }
    }

    auto& reg = obs::Registry::global();
    reg.counter("partition.starts").add(starts);
    reg.counter("partition.passes").add(passes);
    reg.counter("partition.moves").add(steps);
    return best;
}

}  // namespace sunfloor
