#include "sunfloor/floorplan/sequence_pair.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace sunfloor {

namespace {

// The index of every value of `p`; throws unless `p` is a permutation of
// 0..n-1.
std::vector<int> index_of(const std::vector<int>& p) {
    std::vector<int> at(p.size(), -1);
    for (std::size_t i = 0; i < p.size(); ++i) {
        const int v = p[i];
        if (v < 0 || v >= static_cast<int>(p.size()) ||
            at[static_cast<std::size_t>(v)] >= 0)
            throw std::invalid_argument("SequencePair: not a permutation");
        at[static_cast<std::size_t>(v)] = static_cast<int>(i);
    }
    return at;
}

}  // namespace

SequencePair::SequencePair(int n)
    : gp_(static_cast<std::size_t>(n)), gn_(static_cast<std::size_t>(n)) {
    std::iota(gp_.begin(), gp_.end(), 0);
    std::iota(gn_.begin(), gn_.end(), 0);
    at_p_ = gp_;
    at_n_ = gn_;
}

SequencePair::SequencePair(std::vector<int> gamma_pos,
                           std::vector<int> gamma_neg)
    : gp_(std::move(gamma_pos)), gn_(std::move(gamma_neg)) {
    if (gp_.size() != gn_.size())
        throw std::invalid_argument("SequencePair: size mismatch");
    at_p_ = index_of(gp_);
    at_n_ = index_of(gn_);
}

SequencePair SequencePair::from_placement(const std::vector<Rect>& rects) {
    const int n = static_cast<int>(rects.size());
    std::vector<int> gp(static_cast<std::size_t>(n));
    std::vector<int> gn(static_cast<std::size_t>(n));
    std::iota(gp.begin(), gp.end(), 0);
    std::iota(gn.begin(), gn.end(), 0);
    // G+ : ascending (x - y) puts left-of and above-of predecessors first;
    // G- : ascending (x + y) puts left-of and below-of predecessors first.
    std::sort(gp.begin(), gp.end(), [&](int a, int b) {
        const auto ca = rects[static_cast<std::size_t>(a)].center();
        const auto cb = rects[static_cast<std::size_t>(b)].center();
        const double ka = ca.x - ca.y;
        const double kb = cb.x - cb.y;
        return ka != kb ? ka < kb : a < b;
    });
    std::sort(gn.begin(), gn.end(), [&](int a, int b) {
        const auto ca = rects[static_cast<std::size_t>(a)].center();
        const auto cb = rects[static_cast<std::size_t>(b)].center();
        const double ka = ca.x + ca.y;
        const double kb = cb.x + cb.y;
        return ka != kb ? ka < kb : a < b;
    });
    return SequencePair(std::move(gp), std::move(gn));
}

Packing SequencePair::pack(const std::vector<BlockDim>& dims) const {
    Packing out;
    PackBuffers buffers;
    pack(dims, out, buffers);
    return out;
}

void SequencePair::pack(const std::vector<BlockDim>& dims, Packing& out,
                        PackBuffers& buffers) const {
    const int n = size();
    if (static_cast<int>(dims.size()) != n)
        throw std::invalid_argument("SequencePair::pack: dims size mismatch");

    // 1-based Fenwick trees over G+ index (rank): left[i] holds the largest
    // x + w inserted at a rank in [i - lowbit(i), i), below[] the same of
    // y + h over reversed ranks (n - 1 - rank). Every block's horizontal
    // predecessors (before it in both sequences) and vertical ones (after
    // it in G+, before it in G-) come earlier in G-, so one sweep in G-
    // order sees them all inserted. Maxima start at +0.0 and take the
    // accumulator first, as the pairwise scan did, so signed zeros and NaN
    // operands come out the same too.
    const unsigned un = static_cast<unsigned>(n);
    buffers.left.assign(gp_.size() + 1, 0.0);
    buffers.below.assign(gp_.size() + 1, 0.0);
    out.positions.resize(gp_.size());
    double* left = buffers.left.data();
    double* below = buffers.below.data();
    Point* pos = out.positions.data();
    double width = 0.0;
    double height = 0.0;
    for (const int b : gn_) {
        const auto r =
            static_cast<unsigned>(at_p_[static_cast<std::size_t>(b)]);
        double bx = 0.0;
        for (unsigned i = r; i > 0; i &= i - 1) bx = std::max(bx, left[i]);
        double by = 0.0;
        for (unsigned i = un - 1 - r; i > 0; i &= i - 1)
            by = std::max(by, below[i]);
        const double right = bx + dims[static_cast<std::size_t>(b)].w;
        const double top = by + dims[static_cast<std::size_t>(b)].h;
        for (unsigned i = r + 1; i <= un; i += i & (0u - i))
            left[i] = std::max(left[i], right);
        for (unsigned i = un - r; i <= un; i += i & (0u - i))
            below[i] = std::max(below[i], top);
        pos[b] = {bx, by};
        width = std::max(width, right);
        height = std::max(height, top);
    }
    out.width = width;
    out.height = height;
}

void SequencePair::swap_pos(int i, int j) {
    int& a = gp_.at(static_cast<std::size_t>(i));
    int& b = gp_.at(static_cast<std::size_t>(j));
    std::swap(a, b);
    at_p_[static_cast<std::size_t>(a)] = i;
    at_p_[static_cast<std::size_t>(b)] = j;
}

void SequencePair::swap_neg(int i, int j) {
    int& a = gn_.at(static_cast<std::size_t>(i));
    int& b = gn_.at(static_cast<std::size_t>(j));
    std::swap(a, b);
    at_n_[static_cast<std::size_t>(a)] = i;
    at_n_[static_cast<std::size_t>(b)] = j;
}

void SequencePair::swap_both(int block_a, int block_b) {
    swap_pos(at_p_.at(static_cast<std::size_t>(block_a)),
             at_p_.at(static_cast<std::size_t>(block_b)));
    swap_neg(at_n_.at(static_cast<std::size_t>(block_a)),
             at_n_.at(static_cast<std::size_t>(block_b)));
}

std::pair<int, int> SequencePair::reinsert(int block, int pos_in_gp,
                                           int pos_in_gn) {
    // Erase and insert as one rotation of the stretch between the two
    // indices, whose blocks are the only ones to change index.
    auto move_in = [block](std::vector<int>& seq, std::vector<int>& at,
                           int to) {
        const int from = at.at(static_cast<std::size_t>(block));
        const auto first = seq.begin() + std::min(from, to);
        const auto last = seq.begin() + std::max(from, to) + 1;
        if (from < to)
            std::rotate(first, first + 1, last);
        else
            std::rotate(first, last - 1, last);
        for (auto it = first; it != last; ++it)
            at[static_cast<std::size_t>(*it)] =
                static_cast<int>(it - seq.begin());
        return from;
    };
    const int was_gp = move_in(gp_, at_p_, pos_in_gp);
    const int was_gn = move_in(gn_, at_n_, pos_in_gn);
    return {was_gp, was_gn};
}

}  // namespace sunfloor
