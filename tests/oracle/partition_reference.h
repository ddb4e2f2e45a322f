// Balanced k-way min-cut partitioning as a direct transcription: dense
// symmetric weights, greedy growth that rescans every vertex for every
// block on each attach, and FM passes that scan every (vertex, block)
// pair on every step. The library's partition_kway runs the same search
// on sparse rows and a compact move scan; tests require the two to return
// the same blocks, the same cut bits and the same RNG state afterwards.
#pragma once

#include "sunfloor/graph/partition.h"

namespace sunfloor::oracle {

/// Same contract as sunfloor::partition_kway on finite, non-negative
/// edge weights.
PartitionResult partition_kway_reference(const Digraph& g, int k, Rng& rng,
                                         const PartitionOptions& opts = {});

}  // namespace sunfloor::oracle
