// Balanced k-way min-cut partitioning.
//
// Steps 5 of Algorithm 1 and 13 of Algorithm 2 in the paper require "i
// min-cut partitions of PG ... such that each block has about equal number
// of cores". We implement a direct k-way Fiduccia-Mattheyses-style pass
// refinement over a greedily grown initial assignment, with deterministic
// multi-start; the best cut over all starts is returned.
//
// The kernel works on the symmetric weights stored as sparse rows (nonzero
// entries only, ascending neighbour id):
//  * growth attaches vertices in RNG-shuffled order, each to the non-full
//    block it is most connected to (ties: the emptier block, then the
//    lower index), in O(degree + k) per attach;
//  * each FM step scans the unlocked vertices against the blocks below
//    max_block and moves the pair with the largest gain conn[v][b] -
//    conn[v][from], then the lowest v, then the lowest b; a vertex never
//    leaves a singleton block. Each pass keeps its best prefix of moves.
//
// Bit-equality rule: every floating-point sum adds the same terms in the
// same order as a dense scan over all vertices would (ascending vertex id,
// edge order within a vertex pair), so cuts, gains and hence every pick
// are bit-for-bit those of the reference transcription in
// tests/oracle/partition_reference.h. Skipped zero entries only add +0.0.
// A change here must keep partition_equivalence_test green: partition
// artifacts are cached and stored by their inputs, not by the code.
#pragma once

#include <vector>

#include "sunfloor/graph/digraph.h"
#include "sunfloor/util/rng.h"

namespace sunfloor {

struct PartitionOptions {
    /// Number of independent random starts; the best result is kept.
    int num_starts = 8;
    /// Run FM pass refinement after initial growth. Exposed so the
    /// bench_partitioner ablation can measure its contribution.
    bool refine = true;
    /// Maximum vertices per block; <=0 means ceil(n/k) (the paper's "about
    /// equal number of cores" balance rule).
    int max_block_size = 0;
};

/// Maximum FM passes per start.
inline constexpr int kMaxPasses = 16;

struct PartitionResult {
    /// block[v] in [0, k) for every vertex v.
    std::vector<int> block;
    /// Total weight of edges whose endpoints lie in different blocks,
    /// evaluated on the *directed* input graph.
    double cut_weight = 0.0;
};

/// Cut weight of an assignment on g (directed edges crossing blocks).
double cut_weight(const Digraph& g, const std::vector<int>& block);

/// Partition the vertices of `g` into `k` balanced blocks minimizing the
/// cut. Edge direction is ignored for the cut objective (communication cost
/// is symmetric for partitioning purposes). Throws std::invalid_argument
/// when k < 1 or k > num_vertices, when max_block_size cannot fit every
/// vertex, or when an edge weight is NaN, infinite or negative. Adds its
/// work to the global counters partition.{starts,passes,moves}.
PartitionResult partition_kway(const Digraph& g, int k, Rng& rng,
                               const PartitionOptions& opts = {});

}  // namespace sunfloor
