// compute_paths against the unprepared reference search of
// tests/oracle/path_compute_reference.h: both route copies of one initial
// topology, and every result field, switch, link (endpoints, class and
// bandwidth bits) and flow path must be equal. Separately, every prepared
// hop cost must equal the reference's edge_cost bit for bit, on every
// switch pair, as the accounting evolves.
//
// Cases cover what the synthesis flow routes and the cost knobs that move
// routes:
//   * Phase 1 assignments (PG and SPG partitions through the session's
//     partition stage and phase1_assignment) of the seven paper specs
//     under every routing policy — D_36_8 at every switch count, since
//     each of them fails in path computation and retries through indirect
//     switches; the other specs at sampled switch counts. Assignments the
//     pruning rules would reject are routed too;
//   * layer-local assignments (per-layer LPG partitions) with
//     multi-layer links forbidden, Phase 2's setting;
//   * generated specs of all three families;
//   * latency weighting, soft thresholds off, and a tight max_ill at a
//     higher frequency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "oracle/path_compute_reference.h"
#include "sunfloor/core/partition_graphs.h"
#include "sunfloor/pipeline/session.h"
#include "sunfloor/routing/cost_model.h"
#include "sunfloor/spec/benchmarks.h"
#include "sunfloor/specgen/specgen.h"
#include "sunfloor/util/thread_pool.h"

namespace sunfloor {
namespace {

using routing::RoutingPolicyId;

bool bit_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
}

struct Case {
    const DesignSpec* spec = nullptr;
    CoreAssignment assign;
    SynthesisConfig cfg;
    std::string label;
};

struct Outcome {
    std::string diff;  ///< empty when the two routings agree
    bool ok = false;
    bool retried = false;  ///< indirect switches were added
};

Outcome check_case(const Case& c) {
    Topology got = build_initial_topology(*c.spec, c.assign);
    Topology ref = got;
    const PathComputeResult rg = compute_paths(got, *c.spec, c.cfg);
    const PathComputeResult rr =
        oracle::compute_paths_reference(ref, *c.spec, c.cfg);

    Outcome out;
    out.ok = rr.ok;
    out.retried = rr.indirect_switches_added > 0;
    std::ostringstream d;
    if (rg.ok != rr.ok) d << "ok " << rg.ok << " vs " << rr.ok << "; ";
    if (rg.failed_flows != rr.failed_flows) d << "failed flows differ; ";
    if (rg.indirect_switches_added != rr.indirect_switches_added)
        d << "indirect switches " << rg.indirect_switches_added << " vs "
          << rr.indirect_switches_added << "; ";
    if (rg.capacity_violations != rr.capacity_violations)
        d << "capacity violations differ; ";

    if (got.num_switches() != ref.num_switches()) {
        d << "switches " << got.num_switches() << " vs "
          << ref.num_switches() << "; ";
    } else {
        for (int s = 0; s < got.num_switches(); ++s) {
            const NocSwitch& a = got.switch_at(s);
            const NocSwitch& b = ref.switch_at(s);
            if (a.name != b.name || a.layer != b.layer ||
                !bit_equal(a.position.x, b.position.x) ||
                !bit_equal(a.position.y, b.position.y))
                d << "switch " << s << " differs; ";
        }
    }
    if (got.num_links() != ref.num_links()) {
        d << "links " << got.num_links() << " vs " << ref.num_links()
          << "; ";
    } else {
        for (int l = 0; l < got.num_links(); ++l) {
            const NocLink& a = got.link(l);
            const NocLink& b = ref.link(l);
            if (!(a.src == b.src) || !(a.dst == b.dst) || a.cls != b.cls ||
                !bit_equal(a.bw_mbps, b.bw_mbps)) {
                d << "link " << l << " differs; ";
                break;
            }
        }
    }
    for (int f = 0; f < got.num_flows(); ++f) {
        if (!std::ranges::equal(got.flow_path(f), ref.flow_path(f))) {
            d << "flow " << f << " path differs; ";
            break;
        }
    }
    if (!d.str().empty()) out.diff = c.label + ": " + d.str();
    return out;
}

// Prices every ordered switch pair for each flow with both cost models,
// opening (or loading) the flow's direct switch hop after each round so
// the port degrees, channel lists, loads and boundary crossings evolve —
// past every hard limit, since links open unconditionally — and then
// adds an indirect switch and rebuilds both. Empty when every cost is
// bit-equal.
std::string check_hop_costs(const Case& c) {
    const DesignSpec& spec = *c.spec;
    Topology topo = build_initial_topology(spec, c.assign);
    routing::LinkCostModel model(topo, spec, c.cfg);
    oracle::ReferenceCostModel ref(topo, spec, c.cfg);
    std::ostringstream d;
    int mismatches = 0;
    const auto price_all = [&](const Flow& f, const char* when) {
        model.prepare_flow(f);
        for (int i = 0; i < topo.num_switches(); ++i) {
            for (int j = 0; j < topo.num_switches(); ++j) {
                if (i == j) continue;
                const double got = model.hop_cost(i, j);
                const double want = ref.edge_cost(i, j, f);
                if (!bit_equal(got, want) && ++mismatches <= 3)
                    d << when << " hop " << i << "->" << j << ": " << got
                      << " vs " << want << "; ";
            }
        }
    };
    const std::vector<int> order =
        routing::routing_policy(c.cfg.routing).schedule_flows(spec.comm);
    for (const int fid : order) {
        const Flow& f = spec.comm.flow(fid);
        price_all(f, "routing");
        const int a = c.assign.core_switch[static_cast<std::size_t>(f.src)];
        const int b = c.assign.core_switch[static_cast<std::size_t>(f.dst)];
        if (a == b) continue;
        const int cls = static_cast<int>(f.type);
        int id = ref.usable_link(a, b, cls, f.bw_mbps);
        if (id != model.usable_link(a, b, cls, f.bw_mbps))
            d << "usable_link differs for flow " << fid << "; ";
        if (id < 0) {
            id = topo.add_parallel_link(NodeRef::sw(a), NodeRef::sw(b),
                                        f.type);
            ref.note_link_opened(id, a, b, cls);
            model.note_link_opened(id, a, b, cls);
        }
        topo.link(id).bw_mbps += f.bw_mbps;
    }
    topo.add_switch("isw", spec.cores.num_layers() - 1,
                    spec.cores.layer_bounding_box(0).center());
    model.rebuild();
    ref.rebuild();
    for (std::size_t k = 0; k < order.size() && k < 4; ++k)
        price_all(spec.comm.flow(order[k]), "after rebuild");
    if (mismatches > 0) d << mismatches << " costs differ";
    return d.str().empty() ? std::string() : c.label + ": " + d.str();
}

struct Tally {
    int cases = 0;
    int ok = 0;
    int failed = 0;
    int retried = 0;
};

// Checks every case across a thread pool; reports on this thread.
Tally check_all(const std::vector<Case>& cases) {
    std::vector<Outcome> outcomes(cases.size());
    ThreadPool pool;
    pool.parallel_for(cases.size(), [&](std::size_t i) {
        outcomes[i] = check_case(cases[i]);
    });
    Tally t;
    int mismatched = 0;
    for (const Outcome& o : outcomes) {
        ++t.cases;
        o.ok ? ++t.ok : ++t.failed;
        if (o.retried) ++t.retried;
        if (o.diff.empty()) continue;
        if (++mismatched <= 10) ADD_FAILURE() << o.diff;
    }
    EXPECT_EQ(mismatched, 0) << mismatched << " of " << t.cases
                             << " routings differ from the reference";
    return t;
}

const std::vector<DesignSpec>& paper_specs() {
    static const std::vector<DesignSpec> specs = [] {
        std::vector<DesignSpec> v;
        for (const auto& name : benchmark_names())
            v.push_back(make_benchmark(name));
        return v;
    }();
    return specs;
}

const char* policy_name(RoutingPolicyId id) {
    return routing::routing_to_string(id);
}

// Phase 1 assignments of `spec` for k = first, first + stride, ... <= n:
// one PG partition per k, and one SPG partition per k when `theta` > 0,
// chaining the generator through every cut as the sweep does.
void add_phase1_cases(const DesignSpec& spec, const SynthesisConfig& cfg,
                      int first, int stride, double theta,
                      std::vector<Case>& out) {
    pipeline::SynthesisSession session(spec);
    RngState rng = Rng(cfg.seed).state();
    std::vector<pipeline::PartitionGraphId> graphs{
        pipeline::PartitionGraphId::pg()};
    if (theta > 0.0)
        graphs.push_back(
            pipeline::PartitionGraphId::spg(theta, cfg.theta_max));
    for (int k = first; k <= spec.cores.num_cores(); k += stride) {
        for (const auto& graph : graphs) {
            const auto part =
                session.partition(graph, k, cfg, PartitionOptions{}, rng);
            rng = part->rng_after;
            Case c;
            c.spec = &spec;
            c.assign = pipeline::phase1_assignment(*part, spec.cores);
            c.cfg = cfg;
            c.label = spec.name +
                      (graph.kind == pipeline::PartitionGraphId::Kind::SPG
                           ? " spg theta=" + std::to_string(graph.theta)
                           : " pg") +
                      " k=" + std::to_string(k) + " " +
                      policy_name(cfg.routing);
            out.push_back(std::move(c));
        }
    }
}

// Layer-local assignments: each layer's cores cut into `per_layer` LPG
// blocks (capped at its core count), each block a switch on that layer.
Case layer_local_case(const DesignSpec& spec, const SynthesisConfig& cfg,
                      int per_layer, RngState& rng) {
    Case c;
    c.spec = &spec;
    c.cfg = cfg;
    c.cfg.allow_multilayer_links = false;
    c.label = spec.name + " layer-local np=" + std::to_string(per_layer) +
              " " + policy_name(cfg.routing);
    c.assign.core_switch.assign(
        static_cast<std::size_t>(spec.cores.num_cores()), -1);
    for (int ly = 0; ly < spec.cores.num_layers(); ++ly) {
        const LayerGraph lg =
            build_layer_partition_graph(spec.comm, spec.cores, ly, cfg.alpha);
        const int n = static_cast<int>(lg.core_ids.size());
        if (n == 0) continue;
        const int np = std::min(per_layer, n);
        Rng r(rng);
        const PartitionResult part = partition_kway(lg.g, np, r);
        rng = r.state();
        const int base = c.assign.num_switches();
        for (int s = 0; s < np; ++s) c.assign.switch_layer.push_back(ly);
        for (int v = 0; v < n; ++v)
            c.assign.core_switch[static_cast<std::size_t>(
                lg.core_ids[static_cast<std::size_t>(v)])] =
                base + part.block[static_cast<std::size_t>(v)];
    }
    return c;
}

SynthesisConfig paper_cfg(RoutingPolicyId policy) {
    SynthesisConfig cfg;
    cfg.eval.freq_hz = 400e6;
    cfg.max_ill = 25;
    cfg.routing = policy;
    return cfg;
}

constexpr RoutingPolicyId kPolicies[] = {RoutingPolicyId::UpDown,
                                         RoutingPolicyId::WestFirst,
                                         RoutingPolicyId::OddEven};

TEST(PathComputeEquivalence, PaperPhase1Assignments) {
    std::vector<Case> cases;
    for (const DesignSpec& spec : paper_specs()) {
        const bool full = spec.name == "D_36_8";
        for (const RoutingPolicyId policy : kPolicies) {
            // Offset the sampled switch counts per policy so the three
            // policies together visit more of each sweep.
            const int first = full ? 1 : 1 + static_cast<int>(policy);
            add_phase1_cases(spec, paper_cfg(policy), first, full ? 1 : 6,
                             full ? 0.0 : 7.0, cases);
        }
    }
    const Tally t = check_all(cases);
    // The cases reach every branch of the search: routed designs, failed
    // ones, and retries through indirect switches.
    EXPECT_GT(t.ok, 0);
    EXPECT_GT(t.failed, 0);
    EXPECT_GT(t.retried, 0);
}

TEST(PathComputeEquivalence, LayerLocalAssignments) {
    std::vector<Case> cases;
    for (const DesignSpec& spec : paper_specs()) {
        for (const RoutingPolicyId policy : kPolicies) {
            RngState rng = Rng(7).state();
            for (const int np : {1, 2, 3, 5, 8})
                cases.push_back(
                    layer_local_case(spec, paper_cfg(policy), np, rng));
        }
    }
    const Tally t = check_all(cases);
    EXPECT_GT(t.ok, 0);
    EXPECT_GT(t.failed, 0);
}

TEST(PathComputeEquivalence, GeneratedSpecs) {
    std::vector<DesignSpec> specs;
    for (const auto family : {specgen::GenFamily::Pipeline,
                              specgen::GenFamily::HubAndSpoke,
                              specgen::GenFamily::LayeredDag}) {
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
            specgen::GenParams gp;
            gp.family = family;
            gp.num_cores = 16 + 4 * static_cast<int>(seed);
            gp.bw_skew = 1.0;
            specs.push_back(specgen::generate(gp, seed));
        }
    }
    std::vector<Case> cases;
    for (const DesignSpec& spec : specs) {
        for (const RoutingPolicyId policy : kPolicies) {
            SynthesisConfig cfg;
            cfg.routing = policy;
            add_phase1_cases(spec, cfg, 1 + static_cast<int>(policy), 3, 4.0,
                             cases);
            RngState rng = Rng(11).state();
            for (const int np : {2, 4})
                cases.push_back(layer_local_case(spec, cfg, np, rng));
        }
    }
    const Tally t = check_all(cases);
    EXPECT_GT(t.ok, 0);
}

struct Variant {
    const char* name;
    void (*apply)(SynthesisConfig&);
};

const Variant kVariants[] = {
    {"paper", [](SynthesisConfig&) {}},
    {"hard thresholds only",
     [](SynthesisConfig& c) { c.use_soft_thresholds = false; }},
    {"tight max_ill at 600 MHz",
     [](SynthesisConfig& c) {
         c.max_ill = 8;
         c.eval.freq_hz = 600e6;
     }},
};

TEST(PathComputeEquivalence, HopCostsAreBitEqual) {
    std::vector<Case> cases;
    for (const DesignSpec& spec : paper_specs()) {
        for (const Variant& v : kVariants) {
            SynthesisConfig cfg = paper_cfg(RoutingPolicyId::UpDown);
            v.apply(cfg);
            std::vector<Case> more;
            add_phase1_cases(spec, cfg, 3, 11, 0.0, more);
            RngState rng = Rng(5).state();
            more.push_back(layer_local_case(spec, cfg, 2, rng));
            for (Case& c : more) {
                c.label += std::string(" ") + v.name;
                cases.push_back(std::move(c));
            }
        }
    }
    std::vector<std::string> diffs(cases.size());
    ThreadPool pool;
    pool.parallel_for(cases.size(), [&](std::size_t i) {
        diffs[i] = check_hop_costs(cases[i]);
    });
    int failed = 0;
    for (const std::string& diff : diffs)
        if (!diff.empty() && ++failed <= 10) ADD_FAILURE() << diff;
    EXPECT_EQ(failed, 0) << failed << " of " << cases.size() << " cases";
}

TEST(PathComputeEquivalence, CostVariants) {
    std::vector<Case> cases;
    for (const DesignSpec& spec : paper_specs()) {
        for (const Variant& v : kVariants) {
            if (std::string(v.name) == "paper") continue;
            for (const RoutingPolicyId policy : kPolicies) {
                SynthesisConfig cfg = paper_cfg(policy);
                v.apply(cfg);
                std::vector<Case> more;
                add_phase1_cases(spec, cfg, 2 + static_cast<int>(policy), 9,
                                 0.0, more);
                RngState rng = Rng(3).state();
                more.push_back(layer_local_case(spec, cfg, 3, rng));
                for (Case& c : more) {
                    c.label += std::string(" ") + v.name;
                    cases.push_back(std::move(c));
                }
            }
        }
    }
    const Tally t = check_all(cases);
    EXPECT_GT(t.ok, 0);
    EXPECT_GT(t.failed, 0);
}

}  // namespace
}  // namespace sunfloor
