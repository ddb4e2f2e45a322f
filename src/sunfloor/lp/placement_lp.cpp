#include "sunfloor/lp/placement_lp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sunfloor/obs/metrics.h"
#include "sunfloor/obs/trace.h"

namespace sunfloor {

double placement_cost(const PlacementProblem& p,
                      const std::vector<Point>& positions) {
    double cost = 0.0;
    for (const auto& c : p.fixed_conns)
        cost += c.weight *
                manhattan(positions.at(static_cast<std::size_t>(c.movable)),
                          p.fixed_points.at(static_cast<std::size_t>(c.fixed)));
    for (const auto& c : p.movable_conns)
        cost += c.weight *
                manhattan(positions.at(static_cast<std::size_t>(c.a)),
                          positions.at(static_cast<std::size_t>(c.b)));
    return cost;
}

namespace {

bool is_bounded(const PlacementProblem& p) {
    return p.bounds.w > 0.0 && p.bounds.h > 0.0;
}

/// Feasible coordinates on one axis: the box, or [0, inf) without one,
/// cut to the x,y >= 0 quadrant.
struct AxisRange {
    double lo = 0.0;
    double hi = 0.0;
};

AxisRange axis_range(const PlacementProblem& p, bool x_axis) {
    if (!is_bounded(p)) return {0.0, std::numeric_limits<double>::infinity()};
    return x_axis ? AxisRange{std::max(0.0, p.bounds.x), p.bounds.right()}
                  : AxisRange{std::max(0.0, p.bounds.y), p.bounds.top()};
}

void check_weight(double w) {
    if (!std::isfinite(w))
        throw std::invalid_argument("PlacementProblem: non-finite weight");
    if (w < 0.0)
        throw std::invalid_argument("PlacementProblem: negative weight");
}

void validate(const PlacementProblem& p) {
    for (const Point& pt : p.fixed_points)
        if (!std::isfinite(pt.x) || !std::isfinite(pt.y))
            throw std::invalid_argument(
                "PlacementProblem: non-finite fixed point");
    for (const auto& c : p.fixed_conns) {
        if (c.movable < 0 || c.movable >= p.num_movable ||
            c.fixed < 0 || c.fixed >= static_cast<int>(p.fixed_points.size()))
            throw std::out_of_range("PlacementProblem: bad fixed connection");
        check_weight(c.weight);
    }
    for (const auto& c : p.movable_conns) {
        if (c.a < 0 || c.a >= p.num_movable || c.b < 0 ||
            c.b >= p.num_movable)
            throw std::out_of_range("PlacementProblem: bad movable connection");
        check_weight(c.weight);
    }
    const Rect& b = p.bounds;
    if (!std::isfinite(b.x) || !std::isfinite(b.y) || !std::isfinite(b.w) ||
        !std::isfinite(b.h))
        throw std::invalid_argument("PlacementProblem: non-finite bounds");
    for (const bool x_axis : {true, false}) {
        const AxisRange r = axis_range(p, x_axis);
        if (r.hi < r.lo)
            throw std::invalid_argument(
                "PlacementProblem: bounds outside x,y >= 0");
    }
}

// The s-t network of one axis: nodes 0..n-1 are the switches, then the
// source and the sink. Arcs come in pairs (a ^ 1 is a's reverse). A
// switch-to-switch connection is one pair with capacity w each way; every
// switch has a source pair and a sink pair whose capacities are set per
// threshold.
class CutNetwork {
  public:
    CutNetwork(std::size_t num_switches,
               const std::vector<PlacementProblem::MovableConn>& conns)
        : n_(num_switches), source_(n_), sink_(n_ + 1) {
        for (const auto& c : conns)
            if (c.a != c.b && c.weight > 0.0)
                add_pair(static_cast<std::size_t>(c.a),
                         static_cast<std::size_t>(c.b), c.weight);
        terminals_ = arcs_.size();
        for (std::size_t i = 0; i < n_; ++i) {
            add_pair(source_, i, 0.0);
            add_pair(i, sink_, 0.0);
        }
        // Adjacency in CSR form: arc ids grouped by tail.
        first_.assign(n_ + 3, 0);
        for (const Arc& a : arcs_) ++first_[a.from + 1];
        for (std::size_t u = 0; u < n_ + 2; ++u) first_[u + 1] += first_[u];
        adj_.resize(arcs_.size());
        std::vector<std::size_t> fill(first_.begin(), first_.end() - 1);
        for (std::size_t a = 0; a < arcs_.size(); ++a)
            adj_[fill[arcs_[a].from]++] = a;
        level_.resize(n_ + 2);
        queue_.resize(n_ + 2);
    }

    /// Source capacity src[i] and sink capacity snk[i] per switch.
    void set_terminals(const std::vector<double>& src,
                       const std::vector<double>& snk) {
        for (std::size_t i = 0; i < n_; ++i) {
            set_pair(terminals_ + 4 * i, src[i], 0.0);
            set_pair(terminals_ + 4 * i + 2, snk[i], 0.0);
        }
    }

    /// Maximum flow from scratch, then marks in `upper` the switches on
    /// the minimal source side of a minimum cut: those the source still
    /// reaches in the residual network.
    void minimal_source_side(std::vector<char>& upper) {
        for (Arc& a : arcs_) a.res = a.cap;
        while (levels()) {
            next_.assign(first_.begin(), first_.end() - 1);
            while (augment(source_, std::numeric_limits<double>::infinity()) >
                   0.0) {
            }
        }
        for (std::size_t i = 0; i < n_; ++i) upper[i] = level_[i] >= 0;
    }

  private:
    struct Arc {
        std::size_t from = 0;
        std::size_t to = 0;
        double cap = 0.0;
        double res = 0.0;
        // Residuals at or below tol count as saturated. Capacities are sums
        // of weights and flows are differences of them, so a residual that
        // is zero in exact arithmetic can come out a few ulps off; treating
        // it as open would lift a tied switch above the minimal cut.
        double tol = 0.0;
    };
    static constexpr double kRelTol = 1e-12;

    void add_pair(std::size_t u, std::size_t v, double cap) {
        arcs_.push_back({u, v, 0.0, 0.0, 0.0});
        arcs_.push_back({v, u, 0.0, 0.0, 0.0});
        set_pair(arcs_.size() - 2, cap, cap);
    }

    void set_pair(std::size_t a, double cap, double rev_cap) {
        const double tol = kRelTol * (cap + rev_cap);
        arcs_[a].cap = cap;
        arcs_[a].tol = tol;
        arcs_[a ^ 1].cap = rev_cap;
        arcs_[a ^ 1].tol = tol;
    }

    static bool open(const Arc& a) { return a.res > a.tol; }

    // BFS levels over open arcs; true while the sink is reachable. The
    // last, failing pass leaves level_ >= 0 exactly on the source side.
    bool levels() {
        std::fill(level_.begin(), level_.end(), -1);
        std::size_t head = 0;
        std::size_t tail = 0;
        level_[source_] = 0;
        queue_[tail++] = source_;
        while (head < tail) {
            const std::size_t u = queue_[head++];
            for (std::size_t k = first_[u]; k < first_[u + 1]; ++k) {
                const Arc& a = arcs_[adj_[k]];
                if (level_[a.to] >= 0 || !open(a)) continue;
                level_[a.to] = level_[u] + 1;
                queue_[tail++] = a.to;
            }
        }
        return level_[sink_] >= 0;
    }

    // One augmenting path along the level graph (Dinic); returns the flow
    // pushed, 0 when `u` is a dead end.
    double augment(std::size_t u, double limit) {
        if (u == sink_) return limit;
        for (std::size_t& k = next_[u]; k < first_[u + 1]; ++k) {
            Arc& a = arcs_[adj_[k]];
            if (!open(a) || level_[a.to] != level_[u] + 1) continue;
            const double pushed = augment(a.to, std::min(limit, a.res));
            if (pushed > 0.0) {
                a.res -= pushed;
                arcs_[adj_[k] ^ 1].res += pushed;
                return pushed;
            }
        }
        return 0.0;
    }

    std::size_t n_;
    std::size_t source_;
    std::size_t sink_;
    std::size_t terminals_ = 0;  ///< first source/sink arc (4 per switch)
    std::vector<Arc> arcs_;
    std::vector<std::size_t> first_;  ///< CSR offsets into adj_, per node
    std::vector<std::size_t> adj_;
    std::vector<int> level_;
    std::vector<std::size_t> next_;  ///< per-node arc cursor of a phase
    std::vector<std::size_t> queue_;
};

// Exact solve of one axis by threshold decomposition. Candidate values are
// the range's lower edge and the positively weighted anchors clamped into
// the range; the cut at the gap below values[j] puts a switch on the
// source side when it belongs at values[j] or higher. Minimal source sides
// shrink as the threshold rises, so counting them gives each switch's
// value index.
std::vector<double> solve_axis(const PlacementProblem& p, bool x_axis) {
    obs::ScopedSpan span("lp.solve");
    const AxisRange range = axis_range(p, x_axis);
    const auto n = static_cast<std::size_t>(p.num_movable);

    std::vector<double> anchor;  // clamped coordinate per fixed conn
    anchor.reserve(p.fixed_conns.size());
    std::vector<double> values;
    values.reserve(p.fixed_conns.size() + 1);
    values.push_back(range.lo);
    for (const auto& c : p.fixed_conns) {
        const Point& f = p.fixed_points[static_cast<std::size_t>(c.fixed)];
        anchor.push_back(clamp(x_axis ? f.x : f.y, range.lo, range.hi));
        if (c.weight > 0.0) values.push_back(anchor.back());
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());

    CutNetwork net(n, p.movable_conns);
    std::vector<double> src(n);
    std::vector<double> snk(n);
    std::vector<char> upper(n);
    std::vector<std::size_t> rank(n, 0);
    for (std::size_t j = 1; j < values.size(); ++j) {
        std::fill(src.begin(), src.end(), 0.0);
        std::fill(snk.begin(), snk.end(), 0.0);
        for (std::size_t k = 0; k < p.fixed_conns.size(); ++k) {
            const auto& c = p.fixed_conns[k];
            const auto i = static_cast<std::size_t>(c.movable);
            (anchor[k] >= values[j] ? src[i] : snk[i]) += c.weight;
        }
        net.set_terminals(src, snk);
        net.minimal_source_side(upper);
        for (std::size_t i = 0; i < n; ++i) rank[i] += upper[i] ? 1 : 0;
    }

    auto& reg = obs::Registry::global();
    reg.counter("lp.solves").add(1);
    reg.counter("lp.iterations")
        .add(static_cast<long long>(values.size()) - 1);

    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = values[rank[i]];
    return out;
}

}  // namespace

PlacementResult solve_placement_lp(const PlacementProblem& p) {
    validate(p);
    PlacementResult r;
    const auto xs = solve_axis(p, true);
    const auto ys = solve_axis(p, false);
    r.positions.resize(static_cast<std::size_t>(p.num_movable));
    for (std::size_t i = 0; i < r.positions.size(); ++i)
        r.positions[i] = {xs[i], ys[i]};
    r.cost = placement_cost(p, r.positions);
    r.ok = true;
    return r;
}

namespace {

// Weighted median of (coordinate, weight) samples: the smallest coordinate
// at which the cumulative weight reaches half the total.
double weighted_median(std::vector<std::pair<double, double>>& samples) {
    std::sort(samples.begin(), samples.end());
    double total = 0.0;
    for (const auto& s : samples) total += s.second;
    if (total <= 0.0) return samples.empty() ? 0.0 : samples.front().first;
    double acc = 0.0;
    for (const auto& s : samples) {
        acc += s.second;
        if (acc >= total / 2.0) return s.first;
    }
    return samples.back().first;
}

}  // namespace

PlacementResult solve_placement_median(const PlacementProblem& p, int sweeps) {
    validate(p);
    PlacementResult r;
    r.positions.assign(static_cast<std::size_t>(p.num_movable), Point{});

    // Initialize each movable at the centroid of its fixed neighbours so
    // unanchored descent still starts somewhere sensible.
    std::vector<double> wsum(static_cast<std::size_t>(p.num_movable), 0.0);
    for (const auto& c : p.fixed_conns) {
        auto& pt = r.positions[static_cast<std::size_t>(c.movable)];
        const auto& f = p.fixed_points[static_cast<std::size_t>(c.fixed)];
        const double w = std::max(c.weight, 1e-12);
        pt.x += f.x * w;
        pt.y += f.y * w;
        wsum[static_cast<std::size_t>(c.movable)] += w;
    }
    for (int i = 0; i < p.num_movable; ++i) {
        if (wsum[static_cast<std::size_t>(i)] > 0.0) {
            r.positions[static_cast<std::size_t>(i)].x /=
                wsum[static_cast<std::size_t>(i)];
            r.positions[static_cast<std::size_t>(i)].y /=
                wsum[static_cast<std::size_t>(i)];
        }
    }

    const bool bounded = is_bounded(p);
    double prev = placement_cost(p, r.positions);
    for (int sweep = 0; sweep < sweeps; ++sweep) {
        for (int i = 0; i < p.num_movable; ++i) {
            std::vector<std::pair<double, double>> sx;
            std::vector<std::pair<double, double>> sy;
            for (const auto& c : p.fixed_conns) {
                if (c.movable != i) continue;
                const auto& f = p.fixed_points[static_cast<std::size_t>(c.fixed)];
                sx.push_back({f.x, c.weight});
                sy.push_back({f.y, c.weight});
            }
            for (const auto& c : p.movable_conns) {
                int other = -1;
                if (c.a == i)
                    other = c.b;
                else if (c.b == i)
                    other = c.a;
                if (other < 0 || other == i) continue;
                const auto& o = r.positions[static_cast<std::size_t>(other)];
                sx.push_back({o.x, c.weight});
                sy.push_back({o.y, c.weight});
            }
            if (sx.empty()) continue;
            auto& pt = r.positions[static_cast<std::size_t>(i)];
            pt.x = weighted_median(sx);
            pt.y = weighted_median(sy);
            if (bounded) {
                pt.x = clamp(pt.x, p.bounds.x, p.bounds.right());
                pt.y = clamp(pt.y, p.bounds.y, p.bounds.top());
            } else {
                pt.x = std::max(0.0, pt.x);
                pt.y = std::max(0.0, pt.y);
            }
        }
        const double cost = placement_cost(p, r.positions);
        if (cost >= prev - 1e-12) {
            prev = cost;
            break;
        }
        prev = cost;
    }
    r.cost = prev;
    r.ok = true;
    return r;
}

}  // namespace sunfloor
