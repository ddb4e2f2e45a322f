// Sequence-pair floorplan representation.
//
// The paper obtains its input core placements with the Parquet floorplanner
// [38], which anneals over sequence pairs; this is our in-repo equivalent.
// A sequence pair (G+, G-) encodes the relative position of every block
// pair: a before b in both sequences means a is left of b; a before b in
// G+ only means a is above b. Packing evaluates the induced horizontal and
// vertical constraint graphs by longest path, in O(n log n) (FAST-SP, Tang
// and Wong, ASP-DAC 2001).
#pragma once

#include <utility>
#include <vector>

#include "sunfloor/util/geometry.h"

namespace sunfloor {

/// Width/height of a block to pack.
struct BlockDim {
    double w = 0.0;
    double h = 0.0;
};

/// A packed floorplan: block positions plus the die bounding box.
struct Packing {
    std::vector<Point> positions;  ///< lower-left corner per block
    double width = 0.0;            ///< bounding box width
    double height = 0.0;           ///< bounding box height

    double area() const { return width * height; }
    Rect block_rect(int i, const std::vector<BlockDim>& dims) const {
        return {positions[static_cast<std::size_t>(i)].x,
                positions[static_cast<std::size_t>(i)].y,
                dims[static_cast<std::size_t>(i)].w,
                dims[static_cast<std::size_t>(i)].h};
    }
};

class SequencePair {
  public:
    /// Identity sequence pair over n blocks (packs them in a row).
    explicit SequencePair(int n);

    /// Construct from explicit permutations; both must be permutations of
    /// 0..n-1 (validated).
    SequencePair(std::vector<int> gamma_pos, std::vector<int> gamma_neg);

    /// Derive the sequence pair consistent with an existing placement, so
    /// annealing can start from (and a constrained run can preserve) the
    /// input floorplan. Uses the classic x-y / x+y sorting construction on
    /// block centers.
    static SequencePair from_placement(const std::vector<Rect>& rects);

    int size() const { return static_cast<int>(gp_.size()); }
    const std::vector<int>& gamma_pos() const { return gp_; }
    const std::vector<int>& gamma_neg() const { return gn_; }

    /// Reusable working storage for pack().
    struct PackBuffers {
        std::vector<double> left;   ///< Fenwick maxima of x + w by G+ index
        std::vector<double> below;  ///< the same of y + h, indices reversed
    };

    /// Evaluate: longest-path packing of the constraint graphs. Blocks are
    /// placed in G- order, each at the largest x + w of its left-of
    /// predecessors (lower G+ rank) and the largest y + h of its below
    /// predecessors (higher G+ rank), both read from Fenwick trees of
    /// running maxima over G+ rank: O(n log n). A maximum does not depend
    /// on the order its operands are taken in, so every coordinate equals
    /// the pairwise scan's bit for bit.
    Packing pack(const std::vector<BlockDim>& dims) const;
    /// The same into `out`, reusing the storage of `out` and `buffers`.
    void pack(const std::vector<BlockDim>& dims, Packing& out,
              PackBuffers& buffers) const;

    // --- annealing moves -------------------------------------------------
    // Each move is undone in place: a swap by applying it again, a
    // reinsert by reinserting the block at the indices it returned. Swaps
    // take O(1), a reinsert O(distance moved).
    /// Swap the blocks at G+ indices i and j.
    void swap_pos(int i, int j);
    /// Swap the blocks at G- indices i and j.
    void swap_neg(int i, int j);
    /// Swap two blocks in both sequences.
    void swap_both(int block_a, int block_b);
    /// Remove `block` from both sequences and reinsert at the given
    /// positions (0..n-1). Used by the constrained standard inserter, which
    /// may only reposition NoC blocks. Returns the block's previous
    /// (G+, G-) indices.
    std::pair<int, int> reinsert(int block, int pos_in_gp, int pos_in_gn);

  private:
    std::vector<int> gp_;    ///< gamma plus
    std::vector<int> gn_;    ///< gamma minus
    std::vector<int> at_p_;  ///< index in G+ of each block
    std::vector<int> at_n_;  ///< index in G- of each block
};

}  // namespace sunfloor
