// The floorplanning kernels as direct transcriptions: the sequence-pair
// pack as an O(n^2) scan over every earlier block in G-, an annealer that
// copies the sequence pair for every move, packs it into fresh vectors
// and copies the packing on accept, and the NoC inserter whose free-space
// spiral tests each candidate against the placed blocks in order. The
// library keeps the same contracts with an O(n log n) pack, in-place
// moves and a blocker-first candidate test; tests require the two to
// agree bit for bit, RNG state included.
#pragma once

#include <vector>

#include "sunfloor/floorplan/annealer.h"
#include "sunfloor/floorplan/inserter.h"

namespace sunfloor::oracle {

/// Same contract as SequencePair::pack.
Packing pack_reference(const SequencePair& sp,
                       const std::vector<BlockDim>& dims);

/// Same contract as sunfloor::anneal_floorplan (no metrics are counted).
AnnealResult anneal_floorplan_reference(
    const std::vector<BlockDim>& dims, const std::vector<FloorplanNet>& nets,
    const AnnealOptions& opts, Rng& rng, const SequencePair* initial = nullptr,
    const std::vector<char>* movable = nullptr,
    const std::vector<Point>* targets = nullptr,
    const std::vector<double>* target_weights = nullptr);

/// One anneal_floorplan call made by floorplan_design_layers_reference:
/// its inputs, the generator state it started from, and what the
/// reference annealer returned.
struct AnnealCall {
    std::vector<BlockDim> dims;
    std::vector<FloorplanNet> nets;
    AnnealOptions opts;
    std::vector<Point> targets;         ///< empty: no targets passed
    std::vector<double> target_weights;  ///< empty: no targets passed
    RngState rng_before;
    RngState rng_after;
    AnnealResult result;
};

/// sunfloor::floorplan_design_layers on the reference annealer. Appends
/// every anneal it runs to `calls` when given.
void floorplan_design_layers_reference(
    CoreSpec& cores, const CommSpec& comm, const AnnealOptions& opts, Rng& rng,
    std::vector<AnnealCall>* calls = nullptr);

/// Same contract as sunfloor::insert_blocks_custom.
InsertionResult insert_blocks_custom_reference(
    const std::vector<Rect>& fixed, const std::vector<InsertBlock>& blocks);

}  // namespace sunfloor::oracle
