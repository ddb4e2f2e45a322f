#include "oracle/floorplan_reference.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

namespace sunfloor::oracle {

namespace {

// A sequence pair as two plain permutations, with the annealing moves.
struct Sequences {
    std::vector<int> gp;
    std::vector<int> gn;

    int size() const { return static_cast<int>(gp.size()); }

    void swap_pos(int i, int j) {
        std::swap(gp.at(static_cast<std::size_t>(i)),
                  gp.at(static_cast<std::size_t>(j)));
    }

    void swap_neg(int i, int j) {
        std::swap(gn.at(static_cast<std::size_t>(i)),
                  gn.at(static_cast<std::size_t>(j)));
    }

    void swap_both(int block_a, int block_b) {
        auto swap_in = [&](std::vector<int>& seq) {
            int ia = -1;
            int ib = -1;
            for (int i = 0; i < size(); ++i) {
                if (seq[static_cast<std::size_t>(i)] == block_a) ia = i;
                if (seq[static_cast<std::size_t>(i)] == block_b) ib = i;
            }
            std::swap(seq[static_cast<std::size_t>(ia)],
                      seq[static_cast<std::size_t>(ib)]);
        };
        swap_in(gp);
        swap_in(gn);
    }

    void reinsert(int block, int pos_in_gp, int pos_in_gn) {
        auto move_in = [&](std::vector<int>& seq, int to) {
            seq.erase(std::find(seq.begin(), seq.end(), block));
            seq.insert(seq.begin() + to, block);
        };
        move_in(gp, pos_in_gp);
        move_in(gn, pos_in_gn);
    }
};

Packing pack_sequences(const std::vector<int>& gp, const std::vector<int>& gn,
                       const std::vector<BlockDim>& dims) {
    const int n = static_cast<int>(gp.size());
    if (static_cast<int>(dims.size()) != n)
        throw std::invalid_argument("SequencePair::pack: dims size mismatch");

    std::vector<int> posp(static_cast<std::size_t>(n));
    std::vector<int> posn(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        posp[static_cast<std::size_t>(gp[static_cast<std::size_t>(i)])] = i;
        posn[static_cast<std::size_t>(gn[static_cast<std::size_t>(i)])] = i;
    }

    Packing out;
    out.positions.assign(static_cast<std::size_t>(n), Point{});
    // Process blocks in G- order: every horizontal predecessor (before in
    // both) and vertical predecessor (after in G+, before in G-) of a block
    // appears earlier in G-, so a single sweep computes both longest paths.
    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    std::vector<double> y(static_cast<std::size_t>(n), 0.0);
    for (int idx = 0; idx < n; ++idx) {
        const int b = gn[static_cast<std::size_t>(idx)];
        double bx = 0.0;
        double by = 0.0;
        for (int jdx = 0; jdx < idx; ++jdx) {
            const int a = gn[static_cast<std::size_t>(jdx)];
            if (posp[static_cast<std::size_t>(a)] <
                posp[static_cast<std::size_t>(b)]) {
                // a left of b
                bx = std::max(bx, x[static_cast<std::size_t>(a)] +
                                      dims[static_cast<std::size_t>(a)].w);
            } else {
                // a below b
                by = std::max(by, y[static_cast<std::size_t>(a)] +
                                      dims[static_cast<std::size_t>(a)].h);
            }
        }
        x[static_cast<std::size_t>(b)] = bx;
        y[static_cast<std::size_t>(b)] = by;
        out.positions[static_cast<std::size_t>(b)] = {bx, by};
        out.width = std::max(out.width, bx + dims[static_cast<std::size_t>(b)].w);
        out.height =
            std::max(out.height, by + dims[static_cast<std::size_t>(b)].h);
    }
    return out;
}

Packing pack_sequences(const Sequences& s, const std::vector<BlockDim>& dims) {
    return pack_sequences(s.gp, s.gn, dims);
}

}  // namespace

Packing pack_reference(const SequencePair& sp,
                       const std::vector<BlockDim>& dims) {
    return pack_sequences(sp.gamma_pos(), sp.gamma_neg(), dims);
}

AnnealResult anneal_floorplan_reference(
    const std::vector<BlockDim>& dims, const std::vector<FloorplanNet>& nets,
    const AnnealOptions& opts, Rng& rng, const SequencePair* initial,
    const std::vector<char>* movable, const std::vector<Point>* targets,
    const std::vector<double>* target_weights) {
    const int n = static_cast<int>(dims.size());
    AnnealResult result;
    if (n == 0) return result;

    const SequencePair start = initial ? *initial : SequencePair(n);
    Sequences sp{start.gamma_pos(), start.gamma_neg()};
    std::vector<int> movable_ids;
    for (int i = 0; i < n; ++i)
        if (!movable || (*movable)[static_cast<std::size_t>(i)])
            movable_ids.push_back(i);
    // Annealing needs at least two blocks to have any move to make.
    if (movable_ids.empty() || n < 2) {
        result.packing = pack_sequences(sp, dims);
        result.cost = floorplan_cost(result.packing, dims, nets, opts, targets, target_weights);
        return result;
    }

    Packing packing = pack_sequences(sp, dims);
    double cost = floorplan_cost(packing, dims, nets, opts, targets, target_weights);
    Sequences best_sp = sp;
    double best_cost = cost;

    double temp = cost * kAnnealInitialTempRatio + 1e-9;
    const double t_final = temp * opts.t_final_ratio;
    const int moves_per_temp = kAnnealMovesPerBlock * n;

    const bool constrained = movable != nullptr;
    while (temp > t_final) {
        for (int m = 0; m < moves_per_temp; ++m) {
            Sequences cand = sp;
            if (constrained) {
                // Only reposition movable blocks; the relative order of
                // everything else is untouched (Section VIII-D baseline).
                const int b = movable_ids[static_cast<std::size_t>(
                    rng.next_below(movable_ids.size()))];
                // The original passed both draws as arguments of one
                // reinsert call; GCC evaluates a call's arguments right to
                // left, so the G- index was drawn first.
                const int to_gn = rng.next_int(0, n - 1);
                const int to_gp = rng.next_int(0, n - 1);
                cand.reinsert(b, to_gp, to_gn);
            } else {
                const int kind = rng.next_int(0, 2);
                const int i = rng.next_int(0, n - 1);
                int j = rng.next_int(0, n - 2);
                if (j >= i) ++j;
                if (kind == 0)
                    cand.swap_pos(i, j);
                else if (kind == 1)
                    cand.swap_neg(i, j);
                else
                    cand.swap_both(cand.gp[static_cast<std::size_t>(i)],
                                   cand.gp[static_cast<std::size_t>(j)]);
            }
            const Packing cand_packing = pack_sequences(cand, dims);
            const double cand_cost =
                floorplan_cost(cand_packing, dims, nets, opts, targets, target_weights);
            ++result.total_moves;
            const double delta = cand_cost - cost;
            if (delta <= 0.0 || rng.next_double() < std::exp(-delta / temp)) {
                sp = std::move(cand);
                packing = cand_packing;
                cost = cand_cost;
                ++result.accepted_moves;
                if (cost < best_cost) {
                    best_cost = cost;
                    best_sp = sp;
                }
            }
        }
        temp *= opts.cooling;
    }

    result.packing = pack_sequences(best_sp, dims);
    result.cost = floorplan_cost(result.packing, dims, nets, opts, targets, target_weights);
    return result;
}

void floorplan_design_layers_reference(CoreSpec& cores, const CommSpec& comm,
                                       const AnnealOptions& opts, Rng& rng,
                                       std::vector<AnnealCall>* calls) {
    const int layers = cores.num_layers();
    std::vector<char> placed(static_cast<std::size_t>(cores.num_cores()), 0);
    for (int pass = 0; pass < 3; ++pass)
    for (int ly = 0; ly < layers; ++ly) {
        const auto ids = cores.cores_in_layer(ly);
        if (ids.empty()) continue;
        std::vector<BlockDim> dims;
        dims.reserve(ids.size());
        std::vector<int> local(static_cast<std::size_t>(cores.num_cores()), -1);
        for (std::size_t i = 0; i < ids.size(); ++i) {
            const auto& c = cores.core(ids[i]);
            dims.push_back({c.width, c.height});
            local[static_cast<std::size_t>(ids[i])] = static_cast<int>(i);
        }
        std::vector<FloorplanNet> nets;
        for (const auto& f : comm.flows()) {
            const int a = local[static_cast<std::size_t>(f.src)];
            const int b = local[static_cast<std::size_t>(f.dst)];
            if (a >= 0 && b >= 0 && a != b)
                nets.push_back({a, b, f.bw_mbps});
        }
        std::vector<Point> targets(ids.size(), Point{});
        std::vector<double> tw(ids.size(), 0.0);
        std::vector<double> wsum(ids.size(), 0.0);
        for (const auto& f : comm.flows()) {
            for (int pass = 0; pass < 2; ++pass) {
                const int here = pass == 0 ? f.src : f.dst;
                const int there = pass == 0 ? f.dst : f.src;
                const int li = local[static_cast<std::size_t>(here)];
                if (li < 0 || !placed[static_cast<std::size_t>(there)])
                    continue;
                if (cores.core(there).layer == ly) continue;  // net, not pull
                const Point pc = cores.core(there).center();
                targets[static_cast<std::size_t>(li)].x += pc.x * f.bw_mbps;
                targets[static_cast<std::size_t>(li)].y += pc.y * f.bw_mbps;
                wsum[static_cast<std::size_t>(li)] += f.bw_mbps;
            }
        }
        bool any_target = false;
        for (std::size_t i = 0; i < ids.size(); ++i) {
            if (wsum[i] <= 0.0) continue;
            targets[i] = {targets[i].x / wsum[i], targets[i].y / wsum[i]};
            tw[i] = wsum[i];
            any_target = true;
        }
        AnnealOptions lopts = opts;
        if (any_target && lopts.target_weight <= 0.0)
            lopts.target_weight = lopts.wirelength_weight * 4.0;
        const RngState before = rng.state();
        const auto res = anneal_floorplan_reference(
            dims, nets, lopts, rng, nullptr, nullptr,
            any_target ? &targets : nullptr, any_target ? &tw : nullptr);
        if (calls)
            calls->push_back({dims, nets, lopts,
                              any_target ? targets : std::vector<Point>{},
                              any_target ? tw : std::vector<double>{}, before,
                              rng.state(), res});
        for (std::size_t i = 0; i < ids.size(); ++i) {
            cores.core(ids[i]).position = res.packing.positions[i];
            placed[static_cast<std::size_t>(ids[i])] = 1;
        }
    }
}

namespace {

bool overlaps_any(const Rect& r, const std::vector<Rect>& placed) {
    for (const auto& p : placed)
        if (r.overlaps(p)) return true;
    return false;
}

// Candidate rect with the block centered at (cx, cy), clamped to the first
// quadrant (floorplan coordinates are non-negative).
Rect centered_rect(double cx, double cy, double w, double h) {
    return {std::max(0.0, cx - w / 2.0), std::max(0.0, cy - h / 2.0), w, h};
}

constexpr double kNoCandidate = 1e300;

bool find_free_space(const InsertBlock& b, const std::vector<Rect>& placed,
                     double die_half_perimeter, Rect* out) {
    const double step =
        std::max(1e-3, kInsertGridStepRatio * std::min(b.w, b.h));
    const double rmax =
        std::max(kInsertMinSearchRadiusRatio * std::max(b.w, b.h),
                 kInsertMaxSearchRadiusDieRatio * die_half_perimeter) +
        step;
    for (double r = 0.0; r <= rmax; r += step) {
        if (r == 0.0) {
            const Rect cand = centered_rect(b.ideal.x, b.ideal.y, b.w, b.h);
            if (!overlaps_any(cand, placed)) {
                *out = cand;
                return true;
            }
            continue;
        }
        // Walk the square ring of radius r.
        for (double t = -r; t <= r; t += step) {
            const Point candidates[] = {{b.ideal.x + t, b.ideal.y - r},
                                        {b.ideal.x + t, b.ideal.y + r},
                                        {b.ideal.x - r, b.ideal.y + t},
                                        {b.ideal.x + r, b.ideal.y + t}};
            for (const auto& c : candidates) {
                if (c.x < 0.0 && c.y < 0.0) continue;
                const Rect cand = centered_rect(c.x, c.y, b.w, b.h);
                if (!overlaps_any(cand, placed)) {
                    *out = cand;
                    return true;
                }
            }
        }
    }
    return false;
}

double displace(std::vector<Rect>& placed, const Rect& fresh, bool along_x) {
    double moved = 0.0;
    std::deque<std::size_t> queue;
    for (std::size_t i = 0; i < placed.size(); ++i) {
        if (placed[i].overlaps(fresh)) {
            const double shift = along_x ? fresh.right() - placed[i].x
                                         : fresh.top() - placed[i].y;
            if (along_x)
                placed[i].x += shift;
            else
                placed[i].y += shift;
            moved += shift;
            queue.push_back(i);
        }
    }
    int guard = static_cast<int>(placed.size()) * 64 + 64;
    while (!queue.empty() && guard-- > 0) {
        const std::size_t i = queue.front();
        queue.pop_front();
        for (std::size_t j = 0; j < placed.size(); ++j) {
            if (j == i) continue;
            if (!placed[j].overlaps(placed[i])) continue;
            const std::size_t mover =
                (along_x ? placed[j].x >= placed[i].x
                         : placed[j].y >= placed[i].y)
                    ? j
                    : i;
            const std::size_t anchor = mover == j ? i : j;
            const double shift = along_x
                                     ? placed[anchor].right() - placed[mover].x
                                     : placed[anchor].top() - placed[mover].y;
            if (shift <= 0.0) continue;
            if (along_x)
                placed[mover].x += shift;
            else
                placed[mover].y += shift;
            moved += shift;
            queue.push_back(mover);
        }
    }
    return moved;
}

double bbox_area(const std::vector<Rect>& rects) {
    return bounding_box(rects).area();
}

}  // namespace

InsertionResult insert_blocks_custom_reference(
    const std::vector<Rect>& fixed, const std::vector<InsertBlock>& blocks) {
    InsertionResult res;
    res.fixed_rects = fixed;

    std::vector<Rect> placed = fixed;
    const Rect die0 = bounding_box(fixed);
    const double die_half_perimeter = die0.w + die0.h;
    for (const auto& b : blocks) {
        Rect free_spot;
        const bool have_free =
            find_free_space(b, placed, die_half_perimeter, &free_spot);
        const double area_before = bbox_area(placed);
        double free_cost = kNoCandidate;
        if (have_free) {
            std::vector<Rect> with_free = placed;
            with_free.push_back(free_spot);
            free_cost = (bbox_area(with_free) - area_before) +
                        kInsertDeviationCostMm2PerMm *
                            manhattan(free_spot.center(),
                                      {b.ideal.x, b.ideal.y});
        }

        const Rect at_ideal = centered_rect(b.ideal.x, b.ideal.y, b.w, b.h);
        Rect seam_x = at_ideal;
        Rect seam_y = at_ideal;
        for (const auto& p : placed) {
            if (p.contains(Point{b.ideal.x, b.ideal.y})) {
                seam_x.x = p.right();
                seam_y.y = p.top();
                break;
            }
        }
        std::vector<Rect> try_x = placed;
        const double moved_x = displace(try_x, seam_x, true);
        std::vector<Rect> try_y = placed;
        const double moved_y = displace(try_y, seam_y, false);
        try_x.push_back(seam_x);
        try_y.push_back(seam_y);
        const bool x_wins = bbox_area(try_x) <= bbox_area(try_y);
        auto& displaced = x_wins ? try_x : try_y;
        const Rect at_seam = x_wins ? seam_x : seam_y;
        const double displace_cost =
            (bbox_area(displaced) - area_before) +
            kInsertDeviationCostMm2PerMm *
                manhattan(at_seam.center(), {b.ideal.x, b.ideal.y});

        Rect where;
        if (have_free && free_cost <= displace_cost) {
            placed.push_back(free_spot);
            where = free_spot;
        } else {
            placed = std::move(displaced);
            res.total_displacement += x_wins ? moved_x : moved_y;
            where = at_seam;
        }
        res.total_deviation +=
            manhattan(where.center(), {b.ideal.x, b.ideal.y});
    }

    for (std::size_t i = 0; i < fixed.size(); ++i)
        res.fixed_rects[i] = placed[i];
    res.inserted_rects.assign(placed.begin() + static_cast<long>(fixed.size()),
                              placed.end());

    const Rect bb = bounding_box(placed);
    res.die_width = bb.right();
    res.die_height = bb.top();
    return res;
}

}  // namespace sunfloor::oracle
