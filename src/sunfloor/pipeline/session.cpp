#include "sunfloor/pipeline/session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "sunfloor/cas/codec.h"
#include "sunfloor/cas/store.h"
#include "sunfloor/core/partition_graphs.h"
#include "sunfloor/core/path_compute.h"
#include "sunfloor/core/switch_placement.h"
#include "sunfloor/noc/deadlock.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/util/rng.h"
#include "sunfloor/util/strings.h"

namespace sunfloor::pipeline {

namespace {

void append_int_list(std::string& out, std::span<const int> v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(v[i]);
    }
}

/// The full cfg.eval model — frequency plus every NoC-library, wire and
/// TSV parameter. One shared tail for the routing and evaluation keys so
/// the two cannot drift apart when a model parameter is added.
std::string eval_params_key(const EvalParams& p) {
    const NocTechParams& lp = p.lib.params();
    const WireParams& wp = p.wire.params();
    const TsvParams& tp = p.tsv.params();
    std::string key = "f=";
    append_double_bits(key, p.freq_hz);
    key += ";w=";
    key += std::to_string(lp.flit_width_bits);
    for (double v :
         {lp.switch_t0_ns, lp.switch_t1_ns_per_port, lp.switch_e0_pj,
          lp.switch_e1_pj_per_port, lp.switch_idle_c0_mw,
          lp.switch_idle_c1_mw_per_port, lp.switch_area_a0_mm2,
          lp.switch_area_a1_mm2, lp.switch_area_a2_mm2, lp.ni_area_mm2,
          lp.ni_energy_pj, lp.ni_idle_mw_per_ghz, wp.delay_ns_per_mm,
          wp.energy_pj_per_flit_mm, wp.idle_mw_per_mm_ghz,
          wp.max_unrepeated_mm, tp.delay_ps, tp.energy_pj_per_flit_layer,
          tp.tsv_pitch_um, tp.tsv_diameter_um}) {
        key += ';';
        append_double_bits(key, v);
    }
    key += format(";ow=%d;rd=%d", tp.overhead_wires_per_link,
                  tp.redundant_tsvs_per_link);
    return key;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/// Accumulate into a per-run StageTiming field around a stage call.
class ScopedStageTime {
  public:
    explicit ScopedStageTime(StageTiming* timing, double StageTiming::*field)
        : timing_(timing), field_(field),
          t0_(std::chrono::steady_clock::now()) {}
    ~ScopedStageTime() {
        if (timing_) timing_->*field_ += ms_since(t0_);
    }
    ScopedStageTime(const ScopedStageTime&) = delete;
    ScopedStageTime& operator=(const ScopedStageTime&) = delete;

  private:
    StageTiming* timing_;
    double StageTiming::*field_;
    std::chrono::steady_clock::time_point t0_;
};

}  // namespace

std::string PartitionGraphId::key() const {
    switch (kind) {
        case Kind::PG: return "pg";
        case Kind::SPG: {
            std::string key = "spg;th=";
            append_double_bits(key, theta);
            key += ";tm=";
            append_double_bits(key, theta_max);
            return key;
        }
        case Kind::LPG: return "lpg;ly=" + std::to_string(layer);
    }
    return "pg";
}

std::string partition_cfg_key(const SynthesisConfig& cfg,
                              const PartitionOptions& opts) {
    std::string key = "a=";
    append_double_bits(key, cfg.alpha);
    key += ";ns=" + std::to_string(opts.num_starts);
    key += opts.refine ? ";rf=1" : ";rf=0";
    key += ";mb=" + std::to_string(opts.max_block_size);
    key += ";mp=" + std::to_string(opts.max_passes);
    return key;
}

std::string routing_cfg_key(const SynthesisConfig& cfg) {
    // The full model (link capacity, marginal-power costs, pruning rules)
    // plus the path-computation knobs — including the routing policy, so
    // a session caches one routing artifact per discipline.
    return eval_params_key(cfg.eval) +
           format(";ill=%d;ml=%d;sm=%d,%d;sf=%s;st=%d;lw=%s;lu=%s;rp=%s",
                  cfg.max_ill, cfg.allow_multilayer_links ? 1 : 0,
                  cfg.soft_ill_margin, cfg.soft_switch_margin,
                  double_bits(cfg.soft_inf_factor).c_str(),
                  cfg.use_soft_thresholds ? 1 : 0,
                  double_bits(cfg.latency_weight).c_str(),
                  double_bits(cfg.link_capacity_utilization).c_str(),
                  routing::routing_to_string(cfg.routing));
}

std::string placement_cfg_key(const SynthesisConfig& cfg) {
    if (!cfg.run_floorplan) return "fp=0";
    const NocTechParams& lp = cfg.eval.lib.params();
    const TsvParams& tp = cfg.eval.tsv.params();
    // The legalizer sizes switches from the area model and TSV macros from
    // the TSV model at the library's flit width.
    return format("fp=1;w=%d;sa=%s,%s,%s;tv=%s,%s,%d,%d",
                  lp.flit_width_bits, double_bits(lp.switch_area_a0_mm2).c_str(),
                  double_bits(lp.switch_area_a1_mm2).c_str(),
                  double_bits(lp.switch_area_a2_mm2).c_str(),
                  double_bits(tp.tsv_pitch_um).c_str(),
                  double_bits(tp.tsv_diameter_um).c_str(),
                  tp.overhead_wires_per_link, tp.redundant_tsvs_per_link);
}

std::string eval_cfg_key(const SynthesisConfig& cfg) {
    return eval_params_key(cfg.eval) + ";ill=" + std::to_string(cfg.max_ill);
}

std::string assignment_key(const CoreAssignment& assign) {
    std::string key = "cs=";
    append_int_list(key, assign.core_switch);
    key += ";sl=";
    append_int_list(key, assign.switch_layer);
    return key;
}

std::string topology_fingerprint(const Topology& topo) {
    std::string s;
    s.reserve(static_cast<std::size_t>(40 * topo.num_cores() +
                                       48 * topo.num_switches() +
                                       40 * topo.num_links() +
                                       8 * topo.num_flows()));
    auto add_point = [&](const Point& p) {
        append_double_bits(s, p.x);
        s += ',';
        append_double_bits(s, p.y);
    };
    auto add_node = [&](NodeRef n) {
        s += n.is_core() ? 'c' : 's';
        s += std::to_string(n.index);
    };
    s += "co:";
    for (int c = 0; c < topo.num_cores(); ++c) {
        const NodeRef n = NodeRef::core(c);
        s += std::to_string(topo.node_layer(n));
        s += '@';
        add_point(topo.node_position(n));
        s += ';';
    }
    s += "sw:";
    for (int i = 0; i < topo.num_switches(); ++i) {
        const NocSwitch& sw = topo.switch_at(i);
        s += sw.name;
        s += '/';
        s += std::to_string(sw.layer);
        s += '@';
        add_point(sw.position);
        s += ';';
    }
    s += "lk:";
    for (int l = 0; l < topo.num_links(); ++l) {
        const NocLink& lk = topo.link(l);
        add_node(lk.src);
        s += '>';
        add_node(lk.dst);
        s += '/';
        s += std::to_string(static_cast<int>(lk.cls));
        s += '=';
        append_double_bits(s, lk.bw_mbps);
        s += ';';
    }
    s += "fl:";
    for (int f = 0; f < topo.num_flows(); ++f) {
        append_int_list(s, topo.flow_path(f));
        s += ';';
    }
    return s;
}

std::string placement_problem_key(const PlacementProblem& p) {
    std::string s = "n=" + std::to_string(p.num_movable) + ";b=";
    append_double_bits(s, p.bounds.x);
    s += ',';
    append_double_bits(s, p.bounds.y);
    s += ',';
    append_double_bits(s, p.bounds.w);
    s += ',';
    append_double_bits(s, p.bounds.h);
    s += ";fp:";
    for (const Point& pt : p.fixed_points) {
        append_double_bits(s, pt.x);
        s += ',';
        append_double_bits(s, pt.y);
        s += ';';
    }
    s += "fc:";
    for (const auto& c : p.fixed_conns) {
        s += std::to_string(c.movable) + '>' + std::to_string(c.fixed) + '=';
        append_double_bits(s, c.weight);
        s += ';';
    }
    s += "mc:";
    for (const auto& c : p.movable_conns) {
        s += std::to_string(c.a) + '-' + std::to_string(c.b) + '=';
        append_double_bits(s, c.weight);
        s += ';';
    }
    return s;
}

RoutingArtifact route_assignment(const DesignSpec& spec,
                                 const SynthesisConfig& cfg,
                                 const CoreAssignment& assign,
                                 RoutingOutcome* outcome) {
    // Routed in this local; every return publishes it once, as the
    // artifact's topology.
    Topology topo = build_initial_topology(spec, assign);
    const int layers = spec.cores.num_layers();
    auto ended = [&](RoutingOutcome o, std::string fail_reason) {
        const std::uint64_t topo_hash = topo.content_hash();
        RoutingArtifact ra(std::move(topo));
        ra.ok = o == RoutingOutcome::Routed;
        ra.fail_reason = std::move(fail_reason);
        ra.topo_hash = topo_hash;
        if (outcome) *outcome = o;
        return ra;
    };

    // Pruning rule 3 (Section V-C): reject before path computation when the
    // core-to-switch links alone blow the inter-layer budget.
    if (topo.max_ill_used(layers) > cfg.max_ill)
        return ended(
            RoutingOutcome::PrunedIll,
            format("core links need %d inter-layer links > max_ill %d",
                   topo.max_ill_used(layers), cfg.max_ill));
    // Pruning rule 1: cores attached to one switch may not already exceed
    // the size usable at this frequency (ports are one per incident link).
    const int max_sw = cfg.eval.lib.max_switch_size(cfg.eval.freq_hz);
    const std::size_t nsw = static_cast<std::size_t>(topo.num_switches());
    std::vector<int> in_deg(nsw, 0);
    std::vector<int> out_deg(nsw, 0);
    for (int l = 0; l < topo.num_links(); ++l) {
        const NocLink& lk = topo.link(l);
        if (lk.dst.is_switch())
            ++in_deg[static_cast<std::size_t>(lk.dst.index)];
        if (lk.src.is_switch())
            ++out_deg[static_cast<std::size_t>(lk.src.index)];
    }
    for (std::size_t s = 0; s < nsw; ++s) {
        if (in_deg[s] > max_sw || out_deg[s] > max_sw)
            return ended(RoutingOutcome::PrunedSwitchSize,
                         format("switch %zu exceeds max size %d at %.0f MHz",
                                s, max_sw, cfg.eval.freq_hz / 1e6));
    }

    const PathComputeResult paths = compute_paths(topo, spec, cfg);
    RoutingArtifact ra = ended(
        paths.ok ? RoutingOutcome::Routed : RoutingOutcome::PathsFailed,
        paths.ok ? std::string()
                 : format("path computation failed (%zu flows, %zu capacity)",
                          paths.failed_flows.size(),
                          paths.capacity_violations.size()));
    ra.failed_flows = static_cast<int>(paths.failed_flows.size());
    ra.capacity_violations =
        static_cast<int>(paths.capacity_violations.size());
    return ra;
}

DesignPoint evaluate_design(const PlacementArtifact& placed,
                            const DesignSpec& spec,
                            const SynthesisConfig& cfg,
                            EvaluationOutcome* outcome) {
    DesignPoint dp(placed.topo);
    dp.layer_die_area_mm2 = placed.layer_die_area_mm2;
    const Topology& topo = *dp.topo;
    dp.report = evaluate_topology(topo, spec, cfg.eval);

    const int layers = spec.cores.num_layers();
    const EvaluationOutcome ended = [&] {
        if (topo.max_ill_used(layers) > cfg.max_ill) {
            dp.fail_reason = "max_ill violated";
            return EvaluationOutcome::MaxIll;
        }
        if (dp.report.latency_violations > 0) {
            dp.fail_reason =
                format("%d latency violations", dp.report.latency_violations);
            return EvaluationOutcome::Latency;
        }
        if (!is_routing_deadlock_free(topo)) {
            dp.fail_reason = "routing deadlock";
            return EvaluationOutcome::RoutingDeadlock;
        }
        if (!is_message_dependent_deadlock_free(topo, spec.comm)) {
            dp.fail_reason = "message-dependent deadlock";
            return EvaluationOutcome::MessageDeadlock;
        }
        if (!classes_are_separated(topo, spec.comm)) {
            dp.fail_reason = "message classes share a channel";
            return EvaluationOutcome::SharedChannel;
        }
        return EvaluationOutcome::Valid;
    }();
    dp.valid = ended == EvaluationOutcome::Valid;
    if (outcome) *outcome = ended;
    return dp;
}

DesignPoint failed_design(const RoutingArtifact& routed) {
    DesignPoint dp(routed.topo);
    dp.fail_reason = routed.fail_reason;
    dp.capacity_violations = routed.capacity_violations;
    return dp;
}

AssignmentArtifact phase1_assignment(const PartitionArtifact& part,
                                     const CoreSpec& cores) {
    // Step 7 of Algorithm 1: a switch is assigned to the rounded average
    // of the layers of the cores in its block.
    AssignmentArtifact aa;
    aa.assign.core_switch = part.block;
    aa.assign.switch_layer.assign(static_cast<std::size_t>(part.k), 0);
    std::vector<double> layer_sum(static_cast<std::size_t>(part.k), 0.0);
    std::vector<int> count(static_cast<std::size_t>(part.k), 0);
    for (int c = 0; c < cores.num_cores(); ++c) {
        const int b = part.block.at(static_cast<std::size_t>(c));
        layer_sum[static_cast<std::size_t>(b)] += cores.core(c).layer;
        ++count[static_cast<std::size_t>(b)];
    }
    for (int s = 0; s < part.k; ++s)
        aa.assign.switch_layer[static_cast<std::size_t>(s)] =
            count[static_cast<std::size_t>(s)] > 0
                ? static_cast<int>(std::lround(
                      layer_sum[static_cast<std::size_t>(s)] /
                      count[static_cast<std::size_t>(s)]))
                : 0;
    aa.key = assignment_key(aa.assign);
    return aa;
}

SessionStats operator-(const SessionStats& a, const SessionStats& b) {
    auto sub = [](const StageCounters& x, const StageCounters& y) {
        StageCounters d;
        d.hits = x.hits - y.hits;
        d.misses = x.misses - y.misses;
        d.compute_ms = x.compute_ms - y.compute_ms;
        return d;
    };
    SessionStats d;
    d.partition = sub(a.partition, b.partition);
    d.routing = sub(a.routing, b.routing);
    d.placement = sub(a.placement, b.placement);
    d.position_lp = sub(a.position_lp, b.position_lp);
    d.evaluation = sub(a.evaluation, b.evaluation);
    return d;
}

SessionStats operator+(const SessionStats& a, const SessionStats& b) {
    auto add = [](const StageCounters& x, const StageCounters& y) {
        StageCounters s;
        s.hits = x.hits + y.hits;
        s.misses = x.misses + y.misses;
        s.compute_ms = x.compute_ms + y.compute_ms;
        return s;
    };
    SessionStats s;
    s.partition = add(a.partition, b.partition);
    s.routing = add(a.routing, b.routing);
    s.placement = add(a.placement, b.placement);
    s.position_lp = add(a.position_lp, b.position_lp);
    s.evaluation = add(a.evaluation, b.evaluation);
    return s;
}

struct SynthesisSession::GraphEntry {
    Digraph g;         ///< PG or SPG
    LayerGraph layer;  ///< LPG
};

SynthesisSession::SynthesisSession(DesignSpec spec, SessionOptions opts)
    : spec_(std::move(spec)), opts_(std::move(opts)) {
    if (opts_.cas) {
        // Stage keys serialize everything a stage consumed *except* the
        // spec (the in-memory caches are per-spec already); an on-disk
        // store shared across runs needs the spec in the key too.
        std::ostringstream ss;
        write_design(ss, spec_);
        cas_prefix_ = format(
            "s%016llx|",
            static_cast<unsigned long long>(cas::fnv1a64(ss.str())));
    }
}

std::shared_ptr<const SynthesisSession::GraphEntry>
SynthesisSession::graph_for(const PartitionGraphId& graph, double alpha) {
    const std::string key = "g|" + graph.key() + "|a=" + double_bits(alpha);
    {
        util::MutexLock lock(mu_);
        auto it = graphs_.find(key);
        if (it != graphs_.end()) return it->second;
    }
    auto entry = std::make_shared<GraphEntry>();
    switch (graph.kind) {
        case PartitionGraphId::Kind::PG:
            entry->g = build_partition_graph(spec_.comm,
                                             spec_.cores.num_cores(), alpha);
            break;
        case PartitionGraphId::Kind::SPG: {
            const auto base = graph_for(PartitionGraphId::pg(), alpha);
            const int n = spec_.cores.num_cores();
            std::vector<int> core_layer(static_cast<std::size_t>(n));
            for (int c = 0; c < n; ++c)
                core_layer[static_cast<std::size_t>(c)] =
                    spec_.cores.core(c).layer;
            entry->g = build_scaled_partition_graph(base->g, core_layer,
                                                    graph.theta,
                                                    graph.theta_max);
            break;
        }
        case PartitionGraphId::Kind::LPG:
            entry->layer = build_layer_partition_graph(
                spec_.comm, spec_.cores, graph.layer, alpha);
            break;
    }
    util::MutexLock lock(mu_);
    return graphs_.emplace(key, std::move(entry)).first->second;
}

template <typename Artifact>
struct SynthesisSession::StageCodec {
    std::string (*encode)(const Artifact&);
    std::optional<Artifact> (*decode)(std::string_view, const DesignSpec&);
};

SynthesisSession::StageConfig::StageConfig(std::string head_text,
                                           std::string tail_text)
    : head(std::move(head_text)), tail(std::move(tail_text)),
      hash(splitmix64(std::hash<std::string>{}(head) ^
                      std::hash<std::string>{}(tail))) {}

SynthesisSession::RunKeys::RunKeys(const SynthesisConfig& cfg)
    : routing("|" + routing_cfg_key(cfg)) {
    const std::string fp = "|" + placement_cfg_key(cfg);
    placement = std::make_shared<const StageConfig>(
        "pl|" + std::string(kPlacementSolverTag) + "|", fp);
    evaluation = std::make_shared<const StageConfig>(
        "ev|", fp + "|" + eval_cfg_key(cfg));
}

namespace {

/// The text a stage key is stored under in a CAS (after the spec prefix).
const std::string& cas_text(const std::string& key) { return key; }

template <typename Key>
std::string cas_text(const Key& key) {
    return key.text();
}

}  // namespace

template <typename Key, typename Artifact, typename Hash, typename Compute>
std::shared_ptr<const Artifact> SynthesisSession::cached(
    StageCache<Key, Artifact, Hash>& cache, const Key& key,
    const std::type_identity_t<StageCodec<Artifact>>* codec,
    Compute&& compute, const char* span_arg, long long span_value) {
    std::shared_ptr<typename StageCache<Key, Artifact, Hash>::Flight> claim;
    if (auto hit = cache.find_or_claim(key, claim)) {
        cache.hits.add();
        return hit;
    }
    try {
        const bool spill = codec != nullptr && opts_.cas != nullptr;
        std::string cas_key;
        if (spill) {
            cas_key = cas_prefix_ + cas_text(key);
            std::string blob;
            if (opts_.cas->get(cas_key, blob)) {
                if (auto art = codec->decode(blob, spec_)) {
                    cache.hits.add();
                    return cache.publish(
                        key, claim,
                        std::make_shared<const Artifact>(std::move(*art)));
                }
                // The checksum held but the codec rejected the payload:
                // recompute, and the put below replaces the object.
                cas_undecodable_.add();
            }
        }

        obs::ScopedSpan span(cache.name, span_arg, span_value);
        const auto t0 = std::chrono::steady_clock::now();
        auto artifact = std::make_shared<const Artifact>(compute());
        cache.misses.add();
        cache.compute_ms.add(ms_since(t0));
        if (spill) opts_.cas->put(cas_key, codec->encode(*artifact));
        return cache.publish(key, claim, std::move(artifact));
    } catch (...) {
        cache.abandon(key, claim, std::current_exception());
        throw;
    }
}

std::shared_ptr<const PartitionArtifact> SynthesisSession::partition(
    const PartitionGraphId& graph, int k, const SynthesisConfig& cfg,
    const PartitionOptions& opts, const RngState& rng_in) {
    static constexpr StageCodec<PartitionArtifact> kCodec{
        cas::encode_partition, [](std::string_view blob, const DesignSpec&) {
            return cas::decode_partition(blob);
        }};
    const std::string key = "pt|" + graph.key() + "|" +
                            partition_cfg_key(cfg, opts) + "|k=" +
                            std::to_string(k) + "|r=" + rng_in.key();
    return cached(
        partitions_, key, &kCodec,
        [&] {
            const auto entry = graph_for(graph, cfg.alpha);
            const Digraph& g = graph.kind == PartitionGraphId::Kind::LPG
                                   ? entry->layer.g
                                   : entry->g;
            Rng rng(rng_in);
            const PartitionResult res = partition_kway(g, k, rng, opts);
            return PartitionArtifact{res.block, res.cut_weight, k,
                                     rng.state()};
        },
        "k", k);
}

std::shared_ptr<const RoutingArtifact> SynthesisSession::route(
    const AssignmentArtifact& assign, const SynthesisConfig& cfg) {
    return route(assign, cfg, RunKeys(cfg));
}

std::shared_ptr<const PlacementArtifact> SynthesisSession::place(
    std::shared_ptr<const RoutingArtifact> routed,
    const SynthesisConfig& cfg) {
    return place(std::move(routed), cfg, RunKeys(cfg));
}

std::shared_ptr<const EvaluatedDesign> SynthesisSession::evaluate(
    std::shared_ptr<const PlacementArtifact> placed,
    const SynthesisConfig& cfg) {
    return evaluate(std::move(placed), cfg, RunKeys(cfg));
}

DesignPoint SynthesisSession::synthesize(const AssignmentArtifact& assign,
                                         const SynthesisConfig& cfg,
                                         const std::string& phase,
                                         double theta, StageTiming* timing) {
    return synthesize(assign, cfg, RunKeys(cfg), phase, theta, timing);
}

std::shared_ptr<const RoutingArtifact> SynthesisSession::route(
    const AssignmentArtifact& assign, const SynthesisConfig& cfg,
    const RunKeys& keys) {
    static constexpr StageCodec<RoutingArtifact> kCodec{cas::encode_routing,
                                                        cas::decode_routing};
    return cached(routings_, "rt|" + assign.key + keys.routing, &kCodec,
                  [&] {
                      RoutingOutcome outcome{};
                      RoutingArtifact ra = route_assignment(
                          spec_, cfg, assign.assign, &outcome);
                      routing_outcomes_[static_cast<int>(outcome)]->add();
                      return ra;
                  });
}

std::shared_ptr<const PlacementArtifact> SynthesisSession::place(
    std::shared_ptr<const RoutingArtifact> routed,
    const SynthesisConfig& cfg, const RunKeys& keys) {
    // Keyed on the routed topology's *content*, not the routing config:
    // routing configs that produced the same routed topology share the
    // position LP. No RNG in the key — the whole stage (LP + the custom
    // inserter) is deterministic, enforced below — so points with
    // diverged generators still share artifacts. The solver tag keeps a
    // store written by a build whose solver picked other optima from
    // serving those placements.
    static constexpr StageCodec<PlacementArtifact> kCodec{
        cas::encode_placement, cas::decode_placement};
    const Topology& routed_topo = *routed->topo;
    return cached(placements_, PlacementKey{std::move(routed), keys.placement},
                  &kCodec, [&] {
        Rng rng(Rng::kDefaultSeed);
        const RngState rng_before = rng.state();
        // A placement miss's one topology copy: the stage moves switches,
        // and the routed topology stays shared and unchanged.
        Topology topo = routed_topo;
        if (topo.num_switches() > 0) {
            // The position solve consumes only the merged connection
            // graph (build_switch_placement_problem), which routed
            // topologies with different flow paths can share — so its
            // solutions get their own content-keyed cache, in memory
            // only (no codec: the store keeps whole placements).
            const PlacementProblem problem =
                build_switch_placement_problem(topo, spec_);
            const auto solution = cached(
                lp_solutions_, placement_problem_key(problem), nullptr, [&] {
                    bool lp_ok = false;
                    return solve_switch_placement(problem, lp_ok);
                });
            for (int s = 0; s < topo.num_switches(); ++s)
                topo.switch_at(s).position =
                    solution->positions[static_cast<std::size_t>(s)];
        }
        std::vector<double> layer_die_area_mm2;
        if (cfg.run_floorplan) {
            obs::ScopedSpan fp_span("pipeline.floorplan");
            FloorplanOutcome fp = legalize_floorplan(
                topo, spec_, cfg, /*use_standard=*/false, rng);
            layer_die_area_mm2 = std::move(fp.layer_area_mm2);
        }
        // The cache key assumes the stage is pure. The custom inserter
        // is; if a stochastic legalizer is ever wired in here, the key
        // must gain the generator state back (and the drivers must
        // thread it).
        if (!(rng.state() == rng_before))
            throw std::logic_error(
                "pipeline placement stage consumed the RNG; its cache key "
                "must include the generator state");
        const std::uint64_t topo_hash = topo.content_hash();
        PlacementArtifact artifact(std::move(topo));
        artifact.layer_die_area_mm2 = std::move(layer_die_area_mm2);
        artifact.topo_hash = topo_hash;
        return artifact;
    });
}

std::shared_ptr<const EvaluatedDesign> SynthesisSession::evaluate(
    std::shared_ptr<const PlacementArtifact> placed,
    const SynthesisConfig& cfg, const RunKeys& keys) {
    // Content-keyed like placement: identical placed topologies share the
    // evaluation whatever path produced them. The placement config rides
    // along because the artifact's die-area vector (copied into the
    // design point) comes from the floorplan side, not the topology
    // content.
    static constexpr StageCodec<EvaluatedDesign> kCodec{
        cas::encode_evaluation, cas::decode_evaluation};
    const PlacementArtifact& input = *placed;
    return cached(evaluations_,
                  EvaluationKey{std::move(placed), keys.evaluation}, &kCodec,
                  [&] {
                      EvaluationOutcome outcome{};
                      EvaluatedDesign design(
                          evaluate_design(input, spec_, cfg, &outcome));
                      evaluation_outcomes_[static_cast<int>(outcome)]->add();
                      return design;
                  });
}

DesignPoint SynthesisSession::synthesize(const AssignmentArtifact& assign,
                                         const SynthesisConfig& cfg,
                                         const RunKeys& keys,
                                         const std::string& phase,
                                         double theta, StageTiming* timing) {
    std::shared_ptr<const RoutingArtifact> routed;
    {
        ScopedStageTime st(timing, &StageTiming::routing_ms);
        routed = route(assign, cfg, keys);
    }
    DesignPoint dp = [&] {
        if (!routed->ok) return failed_design(*routed);
        std::shared_ptr<const PlacementArtifact> placed;
        {
            ScopedStageTime st(timing, &StageTiming::placement_ms);
            placed = place(routed, cfg, keys);
        }
        ScopedStageTime st(timing, &StageTiming::evaluation_ms);
        return evaluate(std::move(placed), cfg, keys)->point;
    }();
    dp.phase = phase;
    dp.theta = theta;
    dp.switch_count = assign.assign.num_switches();
    return dp;
}

std::vector<DesignPoint> SynthesisSession::phase1(const SynthesisConfig& cfg,
                                                  RngState& rng,
                                                  StageTiming* timing) {
    const int n = spec_.cores.num_cores();
    const int lo = cfg.min_switches > 0 ? cfg.min_switches : 1;
    const int hi = cfg.max_switches > 0 ? std::min(cfg.max_switches, n) : n;
    const RunKeys keys(cfg);

    auto cut = [&](const PartitionGraphId& graph, int k) {
        ScopedStageTime st(timing, &StageTiming::partition_ms);
        auto part = partition(graph, k, cfg, cfg.partition, rng);
        rng = part->rng_after;
        return part;
    };

    std::vector<DesignPoint> points;
    std::set<int> unmet;

    // Steps 4-10: sweep the switch count over min-cut partitions of PG.
    for (int i = lo; i <= hi; ++i) {
        const auto part = cut(PartitionGraphId::pg(), i);
        const AssignmentArtifact assign = [&] {
            obs::ScopedSpan span("pipeline.assignment");
            return phase1_assignment(*part, spec_.cores);
        }();
        DesignPoint dp =
            synthesize(assign, cfg, keys, "phase1", 0.0, timing);
        if (!dp.valid) unmet.insert(i);
        points.push_back(std::move(dp));
    }

    // Steps 11-20: theta sweep over the SPG for the unmet switch counts.
    for (double theta = cfg.theta_min;
         !unmet.empty() && theta <= cfg.theta_max + 1e-9;) {
        const PartitionGraphId spg =
            PartitionGraphId::spg(theta, cfg.theta_max);
        for (auto it = unmet.begin(); it != unmet.end();) {
            const int i = *it;
            const auto part = cut(spg, i);
            const AssignmentArtifact assign = [&] {
                obs::ScopedSpan span("pipeline.assignment");
                return phase1_assignment(*part, spec_.cores);
            }();
            DesignPoint dp =
                synthesize(assign, cfg, keys, "phase1", theta, timing);
            if (dp.valid) {
                // Replace the failed entry for this switch count.
                for (auto& existing : points)
                    if (existing.switch_count == i && !existing.valid)
                        existing = std::move(dp);
                it = unmet.erase(it);
            } else {
                ++it;
            }
        }
        // The sweep also ends once theta stops increasing: a theta pinned
        // at or above 2^53 absorbs its step of 1, and runs one pass.
        const double next = theta + cfg.theta_step;
        if (!(next > theta)) break;
        theta = next;
    }
    return points;
}

std::vector<DesignPoint> SynthesisSession::phase2(const SynthesisConfig& cfg,
                                                  RngState& rng,
                                                  StageTiming* timing) {
    SynthesisConfig cfg2 = cfg;
    cfg2.allow_multilayer_links = false;  // adjacent layers only
    const RunKeys keys(cfg2);

    const int layers = std::max(1, spec_.cores.num_layers());
    const int max_sw_size = cfg.eval.lib.max_switch_size(cfg.eval.freq_hz);

    // Steps 2-5: minimum switches per layer and the per-layer LPGs. A block
    // of b cores occupies b input and b output ports, so the largest block
    // usable at this frequency leaves room for at least two inter-switch
    // ports.
    const int max_block = std::max(1, max_sw_size - 2);
    std::vector<std::shared_ptr<const GraphEntry>> lpg;
    std::vector<int> ni(static_cast<std::size_t>(layers), 0);
    int sweep_len = 0;
    for (int ly = 0; ly < layers; ++ly) {
        lpg.push_back(graph_for(PartitionGraphId::lpg(ly), cfg.alpha));
        const int cores_in_layer =
            static_cast<int>(lpg.back()->layer.core_ids.size());
        ni[static_cast<std::size_t>(ly)] =
            cores_in_layer > 0 ? (cores_in_layer + max_block - 1) / max_block
                               : 0;
        sweep_len = std::max(
            sweep_len, cores_in_layer - ni[static_cast<std::size_t>(ly)]);
    }

    std::vector<DesignPoint> points;
    // Step 6: increment every layer's switch count together until each
    // layer has one switch per core.
    for (int i = 0; i <= sweep_len; ++i) {
        AssignmentArtifact aa;
        aa.assign.core_switch.assign(
            static_cast<std::size_t>(spec_.cores.num_cores()), -1);
        {
            obs::ScopedSpan assign_span("pipeline.assignment", "sweep", i);
            for (int ly = 0; ly < layers; ++ly) {
                const auto& lg = lpg[static_cast<std::size_t>(ly)]->layer;
                const int cores_in_layer =
                    static_cast<int>(lg.core_ids.size());
                if (cores_in_layer == 0) continue;
                const int np = std::min(ni[static_cast<std::size_t>(ly)] + i,
                                        cores_in_layer);
                PartitionOptions popts = cfg.partition;
                // "About equal number of cores" per block (Algorithm 2),
                // and never more than a max-size switch can serve.
                popts.max_block_size =
                    std::min(max_block, (cores_in_layer + np - 1) / np);
                std::shared_ptr<const PartitionArtifact> part;
                {
                    ScopedStageTime st(timing, &StageTiming::partition_ms);
                    part = partition(PartitionGraphId::lpg(ly), np, cfg,
                                     popts, rng);
                    rng = part->rng_after;
                }
                const int base = aa.assign.num_switches();
                for (int s = 0; s < np; ++s)
                    aa.assign.switch_layer.push_back(ly);
                for (int v = 0; v < cores_in_layer; ++v)
                    aa.assign.core_switch[static_cast<std::size_t>(
                        lg.core_ids[static_cast<std::size_t>(v)])] =
                        base + part->block[static_cast<std::size_t>(v)];
            }
            aa.key = assignment_key(aa.assign);
        }
        DesignPoint dp = synthesize(aa, cfg2, keys, "phase2", 0.0, timing);
        points.push_back(std::move(dp));
    }
    return points;
}

SynthesisResult SynthesisSession::run(const SynthesisConfig& cfg,
                                      SynthesisPhase phase) {
    if (!std::isfinite(cfg.theta_step) || cfg.theta_step <= 0.0)
        throw std::invalid_argument(
            "SynthesisConfig.theta_step must be finite and positive");
    // theta divides the SPG's inter-layer weights, and an alpha outside
    // [0, 1] gives one PG term a negative factor: either way some
    // partition graph gets weights the partitioner cannot order.
    if (!std::isfinite(cfg.theta_min) || cfg.theta_min <= 0.0)
        throw std::invalid_argument(
            "SynthesisConfig.theta_min must be finite and positive");
    if (!std::isfinite(cfg.theta_max))
        throw std::invalid_argument("SynthesisConfig.theta_max must be finite");
    if (!(cfg.alpha >= 0.0 && cfg.alpha <= 1.0))
        throw std::invalid_argument("SynthesisConfig.alpha must be in [0, 1]");
    // The switch-size bound divides by the frequency and converts the
    // quotient to int, and the hop cost subtracts the soft margins from
    // the hard limits: values outside these ranges are undefined there.
    if (!std::isfinite(cfg.eval.freq_hz) || cfg.eval.freq_hz <= 0.0)
        throw std::invalid_argument(
            "SynthesisConfig.eval.freq_hz must be finite and positive");
    if (cfg.max_ill < 0)
        throw std::invalid_argument("SynthesisConfig.max_ill must be >= 0");
    if (cfg.soft_ill_margin < 0)
        throw std::invalid_argument(
            "SynthesisConfig.soft_ill_margin must be >= 0");
    if (cfg.soft_switch_margin < 0)
        throw std::invalid_argument(
            "SynthesisConfig.soft_switch_margin must be >= 0");
    RngState rng = Rng(cfg.seed).state();
    SynthesisResult result;
    switch (phase) {
        case SynthesisPhase::Phase1:
            result.points = phase1(cfg, rng, &result.timing);
            result.phase_used = "phase1";
            break;
        case SynthesisPhase::Phase2:
            result.points = phase2(cfg, rng, &result.timing);
            result.phase_used = "phase2";
            break;
        case SynthesisPhase::Auto: {
            result.points = phase1(cfg, rng, &result.timing);
            result.phase_used = "phase1";
            if (result.num_valid() == 0) {
                // The generator continues where Phase 1 left it, exactly
                // as the pre-pipeline flow did.
                result.points = phase2(cfg, rng, &result.timing);
                result.phase_used = "phase2";
            }
            break;
        }
    }
    return result;
}

SessionStats SynthesisSession::stats() const {
    SessionStats s;
    s.partition = partitions_.counters();
    s.routing = routings_.counters();
    s.placement = placements_.counters();
    s.position_lp = lp_solutions_.counters();
    s.evaluation = evaluations_.counters();
    return s;
}

std::size_t SynthesisSession::artifact_count() const {
    return partitions_.size() + routings_.size() + placements_.size() +
           lp_solutions_.size() + evaluations_.size();
}

}  // namespace sunfloor::pipeline
