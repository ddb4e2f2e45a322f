#include "oracle/placement_simplex.h"

#include "oracle/simplex.h"

namespace sunfloor::oracle {
namespace {

// Solve one axis; lo/hi bound the movable coordinates (hi < lo disables).
std::vector<double> solve_axis(const PlacementProblem& p, bool x_axis,
                               double lo, double hi, bool& ok) {
    LpProblem lp;
    std::vector<int> pos(static_cast<std::size_t>(p.num_movable));
    for (int i = 0; i < p.num_movable; ++i)
        pos[static_cast<std::size_t>(i)] = lp.add_variable(0.0);

    auto fixed_coord = [&](int k) {
        const auto& pt = p.fixed_points[static_cast<std::size_t>(k)];
        return x_axis ? pt.x : pt.y;
    };

    for (const auto& c : p.fixed_conns) {
        const int d = lp.add_variable(c.weight);
        const int v = pos[static_cast<std::size_t>(c.movable)];
        const double fc = fixed_coord(c.fixed);
        // d >= v - fc  and  d >= fc - v
        lp.add_constraint({{v, 1.0}, {d, -1.0}}, Relation::LessEq, fc);
        lp.add_constraint({{v, 1.0}, {d, 1.0}}, Relation::GreaterEq, fc);
    }
    for (const auto& c : p.movable_conns) {
        const int d = lp.add_variable(c.weight);
        const int va = pos[static_cast<std::size_t>(c.a)];
        const int vb = pos[static_cast<std::size_t>(c.b)];
        // d >= va - vb  and  d >= vb - va
        lp.add_constraint({{va, 1.0}, {vb, -1.0}, {d, -1.0}},
                          Relation::LessEq, 0.0);
        lp.add_constraint({{vb, 1.0}, {va, -1.0}, {d, -1.0}},
                          Relation::LessEq, 0.0);
    }
    if (hi >= lo) {
        for (int i = 0; i < p.num_movable; ++i) {
            lp.add_constraint({{pos[static_cast<std::size_t>(i)], 1.0}},
                              Relation::GreaterEq, lo);
            lp.add_constraint({{pos[static_cast<std::size_t>(i)], 1.0}},
                              Relation::LessEq, hi);
        }
    }

    const LpResult res = solve_lp(lp);
    ok = ok && res.status == LpStatus::Optimal;
    std::vector<double> out(static_cast<std::size_t>(p.num_movable), 0.0);
    if (res.status == LpStatus::Optimal)
        for (int i = 0; i < p.num_movable; ++i)
            out[static_cast<std::size_t>(i)] =
                res.x[static_cast<std::size_t>(pos[static_cast<std::size_t>(i)])];
    return out;
}

}  // namespace

PlacementResult solve_placement_simplex(const PlacementProblem& p) {
    PlacementResult r;
    r.ok = true;
    const bool bounded = p.bounds.w > 0.0 && p.bounds.h > 0.0;
    const auto xs =
        solve_axis(p, true, bounded ? p.bounds.x : 0.0,
                   bounded ? p.bounds.right() : -1.0, r.ok);
    const auto ys =
        solve_axis(p, false, bounded ? p.bounds.y : 0.0,
                   bounded ? p.bounds.top() : -1.0, r.ok);
    r.positions.resize(static_cast<std::size_t>(p.num_movable));
    for (int i = 0; i < p.num_movable; ++i)
        r.positions[static_cast<std::size_t>(i)] = {
            xs[static_cast<std::size_t>(i)], ys[static_cast<std::size_t>(i)]};
    r.cost = placement_cost(p, r.positions);
    return r;
}

}  // namespace sunfloor::oracle
