#include "sunfloor/floorplan/annealer.h"

#include <cmath>
#include <utility>

#include "sunfloor/obs/metrics.h"
#include "sunfloor/obs/trace.h"

namespace sunfloor {

namespace {

// An unconstrained annealing move; applying it twice restores `sp`. Kind
// 0 and 1 swap G+ or G- indices i and j, kind 2 swaps blocks i and j in
// both sequences.
void apply_swap(SequencePair& sp, int kind, int i, int j) {
    if (kind == 0)
        sp.swap_pos(i, j);
    else if (kind == 1)
        sp.swap_neg(i, j);
    else
        sp.swap_both(i, j);
}

}  // namespace

double floorplan_cost(const Packing& packing, const std::vector<BlockDim>& dims,
                      const std::vector<FloorplanNet>& nets,
                      const AnnealOptions& opts,
                      const std::vector<Point>* targets,
                      const std::vector<double>* target_weights) {
    double wl = 0.0;
    for (const auto& net : nets) {
        const Rect ra = packing.block_rect(net.a, dims);
        const Rect rb = packing.block_rect(net.b, dims);
        wl += net.weight * manhattan(ra.center(), rb.center());
    }
    double dev = 0.0;
    if (targets && opts.target_weight > 0.0)
        for (std::size_t i = 0; i < dims.size(); ++i) {
            const double w = target_weights ? (*target_weights)[i] : 1.0;
            if (w == 0.0) continue;
            dev += w * manhattan(
                           packing.block_rect(static_cast<int>(i), dims)
                               .center(),
                           (*targets)[i]);
        }
    return packing.area() + opts.wirelength_weight * wl +
           opts.target_weight * dev;
}

AnnealResult anneal_floorplan(const std::vector<BlockDim>& dims,
                              const std::vector<FloorplanNet>& nets,
                              const AnnealOptions& opts, Rng& rng,
                              const SequencePair* initial,
                              const std::vector<char>* movable,
                              const std::vector<Point>* targets,
                              const std::vector<double>* target_weights) {
    const int n = static_cast<int>(dims.size());
    obs::ScopedSpan span("floorplan.anneal", "blocks", n);
    AnnealResult result;
    // Move accounting lands in the registry whichever return runs.
    struct MetricsPush {
        const AnnealResult& r;
        ~MetricsPush() {
            auto& reg = obs::Registry::global();
            reg.counter("floorplan.anneal_runs").add(1);
            reg.counter("floorplan.moves_total").add(r.total_moves);
            reg.counter("floorplan.moves_accepted").add(r.accepted_moves);
        }
    } push{result};
    if (n == 0) return result;

    SequencePair sp = initial ? *initial : SequencePair(n);
    std::vector<int> movable_ids;
    for (int i = 0; i < n; ++i)
        if (!movable || (*movable)[static_cast<std::size_t>(i)])
            movable_ids.push_back(i);
    // Annealing needs at least two blocks to have any move to make.
    if (movable_ids.empty() || n < 2) {
        result.packing = sp.pack(dims);
        result.cost = floorplan_cost(result.packing, dims, nets, opts, targets, target_weights);
        return result;
    }

    // Moves apply to `sp` in place and are undone on rejection; candidates
    // pack into `cand`, which trades places with `packing` on acceptance.
    SequencePair::PackBuffers buffers;
    Packing packing;
    Packing cand;
    sp.pack(dims, packing, buffers);
    double cost = floorplan_cost(packing, dims, nets, opts, targets, target_weights);
    SequencePair best_sp = sp;
    double best_cost = cost;

    double temp = cost * kAnnealInitialTempRatio + 1e-9;
    const double t_final = temp * opts.t_final_ratio;
    const int moves_per_temp = kAnnealMovesPerBlock * n;

    const bool constrained = movable != nullptr;
    while (temp > t_final) {
        for (int m = 0; m < moves_per_temp; ++m) {
            // The move, kept to undo it: block b reinserted from indices
            // `was` (constrained), or swap `kind` of i and j.
            int b = -1;
            std::pair<int, int> was{};
            int kind = 0;
            int i = 0;
            int j = 0;
            if (constrained) {
                // Only reposition movable blocks; the relative order of
                // everything else is untouched (Section VIII-D baseline).
                // The G- index is drawn before the G+ one; results
                // depend on the order.
                b = movable_ids[static_cast<std::size_t>(
                    rng.next_below(movable_ids.size()))];
                const int to_gn = rng.next_int(0, n - 1);
                const int to_gp = rng.next_int(0, n - 1);
                was = sp.reinsert(b, to_gp, to_gn);
            } else {
                kind = rng.next_int(0, 2);
                i = rng.next_int(0, n - 1);
                j = rng.next_int(0, n - 2);
                if (j >= i) ++j;
                if (kind == 2) {
                    // The blocks at G+ indices i and j, named before the
                    // swap so that applying it again undoes it.
                    i = sp.gamma_pos()[static_cast<std::size_t>(i)];
                    j = sp.gamma_pos()[static_cast<std::size_t>(j)];
                }
                apply_swap(sp, kind, i, j);
            }
            sp.pack(dims, cand, buffers);
            const double cand_cost =
                floorplan_cost(cand, dims, nets, opts, targets, target_weights);
            ++result.total_moves;
            const double delta = cand_cost - cost;
            if (delta <= 0.0 || rng.next_double() < std::exp(-delta / temp)) {
                std::swap(packing, cand);
                cost = cand_cost;
                ++result.accepted_moves;
                if (cost < best_cost) {
                    best_cost = cost;
                    best_sp = sp;
                }
            } else if (constrained) {
                sp.reinsert(b, was.first, was.second);
            } else {
                apply_swap(sp, kind, i, j);
            }
        }
        temp *= opts.cooling;
    }

    result.packing = best_sp.pack(dims);
    result.cost = floorplan_cost(result.packing, dims, nets, opts, targets, target_weights);
    return result;
}

void floorplan_design_layers(CoreSpec& cores, const CommSpec& comm,
                             const AnnealOptions& opts, Rng& rng) {
    const int layers = cores.num_layers();
    std::vector<char> placed(static_cast<std::size_t>(cores.num_cores()), 0);
    // Multiple sweeps: the first places layers bottom-up (layer 0 sees no
    // vertical pulls yet), later ones re-anneal every layer against the
    // now-complete stack so mutual alignment converges — a lightweight
    // form of the force-directed 3-D floorplanning of [23].
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
        // Vertical-alignment pulls: a core with flows into already-placed
        // lower layers is drawn toward the bandwidth-weighted centroid of
        // its partners' footprints.
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
        if (any_target && lopts.target_weight <= 0.0) {
            // Vertical misalignment is weighted above the intra-layer
            // wirelength term: stacking communicating cores is the whole
            // point of the 3-D mapping (Example 1 of the paper).
            lopts.target_weight = lopts.wirelength_weight * 4.0;
        }
        const auto res = anneal_floorplan(dims, nets, lopts, rng, nullptr,
                                          nullptr,
                                          any_target ? &targets : nullptr,
                                          any_target ? &tw : nullptr);
        for (std::size_t i = 0; i < ids.size(); ++i) {
            cores.core(ids[i]).position = res.packing.positions[i];
            placed[static_cast<std::size_t>(ids[i])] = 1;
        }
    }
}

}  // namespace sunfloor
