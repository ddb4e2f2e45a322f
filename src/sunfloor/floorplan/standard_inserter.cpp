#include "sunfloor/floorplan/standard_inserter.h"

#include <cmath>

namespace sunfloor {

InsertionResult insert_blocks_standard(const std::vector<Rect>& fixed,
                                       const std::vector<InsertBlock>& blocks,
                                       Rng& rng) {
    const int nf = static_cast<int>(fixed.size());
    const int nb = static_cast<int>(blocks.size());
    const int n = nf + nb;

    std::vector<BlockDim> dims;
    dims.reserve(static_cast<std::size_t>(n));
    std::vector<Rect> initial;
    initial.reserve(static_cast<std::size_t>(n));
    for (const auto& r : fixed) {
        dims.push_back({r.w, r.h});
        initial.push_back(r);
    }
    for (const auto& b : blocks) {
        dims.push_back({b.w, b.h});
        initial.push_back(
            {b.ideal.x - b.w / 2.0, b.ideal.y - b.h / 2.0, b.w, b.h});
    }

    const SequencePair sp0 = SequencePair::from_placement(initial);
    std::vector<char> movable(static_cast<std::size_t>(n), 0);
    for (int i = nf; i < n; ++i) movable[static_cast<std::size_t>(i)] = 1;

    // The paper's constrained run must (a) keep the cores close to their
    // initial placement and (b) minimize the movement of the components
    // away from the LP ideals; both are target-position pulls.
    std::vector<Point> targets;
    targets.reserve(static_cast<std::size_t>(n));
    for (const auto& r : fixed) targets.push_back(r.center());
    for (const auto& b : blocks) targets.push_back(b.ideal);

    const AnnealResult ar =
        anneal_floorplan(dims, /*nets=*/{}, kStandardInsertAnneal, rng, &sp0,
                         &movable, &targets);

    InsertionResult res;
    res.fixed_rects.reserve(fixed.size());
    for (int i = 0; i < nf; ++i)
        res.fixed_rects.push_back(ar.packing.block_rect(i, dims));
    res.inserted_rects.reserve(blocks.size());
    for (int i = nf; i < n; ++i)
        res.inserted_rects.push_back(ar.packing.block_rect(i, dims));
    for (int i = 0; i < nf; ++i)
        res.total_displacement +=
            manhattan(res.fixed_rects[static_cast<std::size_t>(i)].center(),
                      fixed[static_cast<std::size_t>(i)].center());
    for (int i = 0; i < nb; ++i)
        res.total_deviation += manhattan(
            res.inserted_rects[static_cast<std::size_t>(i)].center(),
            blocks[static_cast<std::size_t>(i)].ideal);
    res.die_width = ar.packing.width;
    res.die_height = ar.packing.height;
    return res;
}

}  // namespace sunfloor
