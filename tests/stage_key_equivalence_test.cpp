// A stage key's bytes are its store address (after the spec prefix): the
// stage's tag, then exactly the fields the key's == compares, written
// with the cas codec. The caches key on content (PartitionKey,
// RoutingKey, the placement and evaluation ContentKeys) and write those
// bytes only for a store, so the two must agree: on every key a cold run
// of the seven paper specs makes, and on keys holding the values a
// bitwise comparison treats specially (signed zeros, NaN payloads,
// infinities, subnormals), two keys are equal exactly when their bytes
// are, equal keys hash equal, and keys of different stages never share
// bytes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "oracle/fingerprint_reference.h"
#include "sunfloor/cas/codec.h"
#include "sunfloor/core/partition_graphs.h"
#include "sunfloor/pipeline/session.h"
#include "sunfloor/spec/benchmarks.h"
#include "sunfloor/util/strings.h"

namespace sunfloor {
namespace {

const char* const kPaperSpecs[] = {"D_26_media", "D_36_4",   "D_36_6",
                                   "D_36_8",     "D_35_bot", "D_65_pipe",
                                   "D_38_tvopd"};

double from_bits(std::uint64_t bits) { return std::bit_cast<double>(bits); }

/// Doubles an encoder or a bitwise comparison could get wrong (signed
/// zeros, NaN payloads, infinities, subnormals), plus values that
/// exercise every hex digit.
std::vector<double> special_doubles() {
    using lim = std::numeric_limits<double>;
    return {0.0,
            -0.0,
            1.0,
            -1.5,
            lim::infinity(),
            -lim::infinity(),
            lim::quiet_NaN(),
            from_bits(0x7ff8000000000123ULL),  // quiet NaN, payload
            from_bits(0xfff8000000000000ULL),  // negative quiet NaN
            from_bits(0x7ff0000000000001ULL),  // signalling NaN
            from_bits(0x7ff4000000000000ULL),  // signalling NaN
            lim::denorm_min(),
            -lim::denorm_min(),
            from_bits(0x000fffffffffffffULL),  // largest subnormal
            lim::min(),
            lim::max(),
            lim::lowest(),
            from_bits(0x0123456789abcdefULL),
            from_bits(0xfedcba9876543210ULL)};
}

TEST(StageKeyEquivalence, DoubleBitsMatchPrintf) {
    std::vector<double> values = special_doubles();
    Rng rng(2009);
    for (int i = 0; i < 1000; ++i) values.push_back(from_bits(rng.next_u64()));
    for (const double v : values)
        EXPECT_EQ(double_bits(v), oracle::double_bits_reference(v));
}

/// A key's bytes: its store address after the spec prefix.
template <typename Key>
std::string bytes_of(const Key& key) {
    cas::Enc e;
    key.encode(e);
    return e.take();
}

/// A routing key's bytes are those of the probe that names it.
std::string bytes_of(const pipeline::RoutingKey& key) {
    return bytes_of(pipeline::RoutingProbe{key.assign, key.cfg});
}

/// Checks, over every pair of `keys`: equal keys <=> equal bytes, equal
/// keys => equal hashes, and == is symmetric. Returns the number of equal
/// pairs.
template <typename Key>
long long expect_keys_match_bytes(const std::vector<Key>& keys,
                                  const std::string& what) {
    std::vector<std::string> bytes;
    std::vector<std::size_t> hash;
    for (const Key& key : keys) {
        bytes.push_back(bytes_of(key));
        hash.push_back(typename Key::Hash{}(key));
    }
    long long equal = 0;
    int mismatched = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        for (std::size_t j = i + 1; j < keys.size(); ++j) {
            const bool same = keys[i] == keys[j];
            equal += same ? 1 : 0;
            const bool bad = same != (bytes[i] == bytes[j]) ||
                             (same && hash[i] != hash[j]) ||
                             same != (keys[j] == keys[i]);
            if (bad && mismatched++ == 0)
                ADD_FAILURE() << what << " keys " << i << " and " << j
                              << ": equal " << same << ", bytes equal "
                              << (bytes[i] == bytes[j]);
        }
    }
    EXPECT_EQ(mismatched, 0) << what;
    return equal;
}

/// The stage each key's bytes were seen under: no bytes may belong to two
/// stages.
class StageBytes {
  public:
    template <typename Key>
    void add(const std::string& stage, const std::vector<Key>& keys) {
        for (const Key& key : keys) {
            const auto [it, fresh] = stage_of_.emplace(bytes_of(key), stage);
            if (!fresh && it->second != stage && shared_++ == 0)
                ADD_FAILURE() << "a " << stage << " key has the bytes of a "
                              << it->second << " key";
        }
    }
    ~StageBytes() { EXPECT_EQ(shared_, 0); }

  private:
    std::map<std::string, std::string> stage_of_;
    int shared_ = 0;
};

// ------------------------------------------------------ keys of cold runs

/// Replays SynthesisSession::run's drivers (Algorithms 1 and 2) through
/// the session's public stage calls, recording every partition, routing,
/// placement and evaluation key in call order, each built from a fresh
/// RunKeys as a run builds its own; a call the cache serves repeats its
/// key.
class KeyReplay {
  public:
    explicit KeyReplay(pipeline::SynthesisSession& session)
        : session_(session), spec_(session.spec()) {}

    void run(const SynthesisConfig& cfg, SynthesisPhase phase) {
        RngState rng = Rng(cfg.seed).state();
        if (phase == SynthesisPhase::Phase2) return phase2(cfg, rng);
        const bool any_valid = phase1(cfg, rng);
        if (phase == SynthesisPhase::Auto && !any_valid) phase2(cfg, rng);
    }

    std::vector<pipeline::PartitionKey> partition;
    std::vector<pipeline::RoutingKey> routing;
    std::vector<pipeline::PlacementKey> placement;
    std::vector<pipeline::EvaluationKey> evaluation;

  private:
    std::shared_ptr<const pipeline::PartitionArtifact> cut(
        const pipeline::PartitionGraphId& graph, int k,
        const SynthesisConfig& cfg, const PartitionOptions& opts,
        RngState& rng) {
        partition.push_back({graph, cfg.alpha, opts, k, rng});
        auto part = session_.partition(graph, k, cfg, opts, rng);
        rng = part->rng_after;
        return part;
    }

    /// SynthesisSession::synthesize, stage by stage; true when valid.
    bool synthesize(const CoreAssignment& assign,
                    const SynthesisConfig& cfg) {
        const pipeline::RunKeys keys(cfg);
        routing.push_back({assign, keys.routing});
        const auto routed = session_.route(assign, cfg);
        if (!routed->ok) return false;
        placement.push_back({routed, keys.placement});
        const auto placed = session_.place(routed, cfg);
        evaluation.push_back({placed, keys.evaluation});
        return session_.evaluate(placed, cfg)->point.valid;
    }

    bool phase1(const SynthesisConfig& cfg, RngState& rng) {
        const int n = spec_.cores.num_cores();
        const int hi =
            cfg.max_switches > 0 ? std::min(cfg.max_switches, n) : n;
        std::set<int> unmet;
        for (int i = 1; i <= hi; ++i) {
            const auto part = cut(pipeline::PartitionGraphId::pg(), i, cfg,
                                  PartitionOptions{}, rng);
            if (!synthesize(pipeline::phase1_assignment(*part, spec_.cores),
                            cfg))
                unmet.insert(i);
        }
        for (double theta = cfg.theta_min;
             !unmet.empty() && theta <= cfg.theta_max + 1e-9;) {
            const auto spg = pipeline::PartitionGraphId::spg(theta,
                                                             cfg.theta_max);
            for (auto it = unmet.begin(); it != unmet.end();) {
                const auto part = cut(spg, *it, cfg, PartitionOptions{}, rng);
                it = synthesize(pipeline::phase1_assignment(*part,
                                                            spec_.cores),
                                cfg)
                         ? unmet.erase(it)
                         : std::next(it);
            }
            const double next = theta + cfg.theta_step;
            if (!(next > theta)) break;
            theta = next;
        }
        return static_cast<int>(unmet.size()) < hi;
    }

    void phase2(const SynthesisConfig& cfg, RngState& rng) {
        SynthesisConfig cfg2 = cfg;
        cfg2.allow_multilayer_links = false;
        const int layers = std::max(1, spec_.cores.num_layers());
        const int max_block = std::max(
            1, NocLibrary::max_switch_size(cfg.eval.freq_hz) - 2);
        std::vector<LayerGraph> lpg;
        std::vector<int> ni;
        int sweep_len = 0;
        for (int ly = 0; ly < layers; ++ly) {
            lpg.push_back(build_layer_partition_graph(spec_.comm, spec_.cores,
                                                      ly, cfg.alpha));
            const int cores = static_cast<int>(lpg.back().core_ids.size());
            ni.push_back(cores > 0 ? (cores + max_block - 1) / max_block : 0);
            sweep_len = std::max(sweep_len, cores - ni.back());
        }
        for (int i = 0; i <= sweep_len; ++i) {
            CoreAssignment assign;
            assign.core_switch.assign(
                static_cast<std::size_t>(spec_.cores.num_cores()), -1);
            for (int ly = 0; ly < layers; ++ly) {
                const LayerGraph& lg = lpg[static_cast<std::size_t>(ly)];
                const int cores = static_cast<int>(lg.core_ids.size());
                if (cores == 0) continue;
                const int np =
                    std::min(ni[static_cast<std::size_t>(ly)] + i, cores);
                PartitionOptions popts;
                popts.max_block_size =
                    std::min(max_block, (cores + np - 1) / np);
                const auto part = cut(pipeline::PartitionGraphId::lpg(ly),
                                      np, cfg, popts, rng);
                const int base = assign.num_switches();
                for (int s = 0; s < np; ++s)
                    assign.switch_layer.push_back(ly);
                for (int v = 0; v < cores; ++v)
                    assign.core_switch[static_cast<std::size_t>(
                        lg.core_ids[static_cast<std::size_t>(v)])] =
                        base + part->block[static_cast<std::size_t>(v)];
            }
            synthesize(assign, cfg2);
        }
    }

    pipeline::SynthesisSession& session_;
    const DesignSpec& spec_;
};

TEST(StageKeyEquivalence, ColdRunKeysMatchTheirBytes) {
    // Every key of a cold Auto and a cold Phase 2 run with the floorplan
    // off, an Auto run at another frequency (whose routings often meet
    // the first run's topologies in other artifact objects), then an Auto
    // run with the floorplan on, of each paper spec. The replay makes the
    // runs' calls: as many per stage as cold runs, with as many misses,
    // and the runs repeated on the replayed session compute nothing new.
    SynthesisConfig off;
    off.run_floorplan = false;
    SynthesisConfig slower = off;
    slower.eval.freq_hz = 350e6;
    const SynthesisConfig on;
    const std::pair<SynthesisConfig, SynthesisPhase> runs[] = {
        {off, SynthesisPhase::Auto},
        {off, SynthesisPhase::Phase2},
        {slower, SynthesisPhase::Auto},
        {on, SynthesisPhase::Auto},
    };
    std::size_t counts[4] = {0, 0, 0, 0};
    long long equal_content = 0;
    StageBytes stages;
    for (const char* name : kPaperSpecs) {
        const DesignSpec spec = make_benchmark(name);
        pipeline::SynthesisSession replayed(spec);
        pipeline::SynthesisSession cold(spec);
        KeyReplay replay(replayed);
        for (const auto& [cfg, phase] : runs) {
            replay.run(cfg, phase);
            cold.run(cfg, phase);
        }
        const pipeline::SessionStats r = replayed.stats();
        const pipeline::SessionStats c = cold.stats();
        const std::pair<pipeline::StageCounters, pipeline::StageCounters>
            per_stage[] = {{r.partition, c.partition},
                           {r.routing, c.routing},
                           {r.placement, c.placement},
                           {r.evaluation, c.evaluation}};
        for (const auto& [got, want] : per_stage) {
            EXPECT_EQ(got.calls(), want.calls()) << name;
            EXPECT_EQ(got.misses, want.misses) << name;
        }
        EXPECT_EQ(static_cast<long long>(replay.partition.size()),
                  r.partition.calls())
            << name;
        EXPECT_EQ(static_cast<long long>(replay.routing.size()),
                  r.routing.calls())
            << name;
        EXPECT_EQ(static_cast<long long>(replay.placement.size()),
                  r.placement.calls())
            << name;
        EXPECT_EQ(static_cast<long long>(replay.evaluation.size()),
                  r.evaluation.calls())
            << name;
        for (const auto& [cfg, phase] : runs) replayed.run(cfg, phase);
        const pipeline::SessionStats again = replayed.stats();
        EXPECT_EQ(again.partition.misses, r.partition.misses) << name;
        EXPECT_EQ(again.routing.misses, r.routing.misses) << name;
        EXPECT_EQ(again.placement.misses, r.placement.misses) << name;
        EXPECT_EQ(again.evaluation.misses, r.evaluation.misses) << name;

        // Partition keys repeat across the runs at one seed, and two
        // partitions can yield one assignment, so routing keys repeat too;
        // placement and evaluation keys repeat whenever two routings meet
        // in one topology.
        expect_keys_match_bytes(replay.partition,
                                std::string(name) + " partition");
        EXPECT_GT(expect_keys_match_bytes(replay.routing,
                                          std::string(name) + " routing"),
                  0)
            << name;
        equal_content += expect_keys_match_bytes(
            replay.placement, std::string(name) + " placement");
        equal_content += expect_keys_match_bytes(
            replay.evaluation, std::string(name) + " evaluation");
        stages.add("partition", replay.partition);
        stages.add("routing", replay.routing);
        stages.add("placement", replay.placement);
        stages.add("evaluation", replay.evaluation);
        counts[0] += replay.partition.size();
        counts[1] += replay.routing.size();
        counts[2] += replay.placement.size();
        counts[3] += replay.evaluation.size();
    }
    EXPECT_GT(counts[0], 1500u);
    EXPECT_GT(counts[1], 1400u);
    EXPECT_GT(counts[2], 300u);
    EXPECT_GT(counts[3], 300u);
    EXPECT_GT(equal_content, 0);
}

// ----------------------------------------------------------- edge cases

TEST(StageKeyEquivalence, PartitionKeyEdgeCases) {
    using pipeline::PartitionGraphId;
    const PartitionGraphId pg = PartitionGraphId::pg();
    const PartitionOptions opts;
    const RngState rng = Rng(11).state();
    const auto key = [&](PartitionGraphId graph, double alpha) {
        return pipeline::PartitionKey{graph, alpha, opts, 4, rng};
    };
    std::vector<pipeline::PartitionKey> keys;
    // alpha: signed zeros, a NaN payload twice and another NaN.
    for (const double alpha : {0.0, -0.0, 0.5, 0.5})
        keys.push_back(key(pg, alpha));
    keys.push_back(key(pg, from_bits(0x7ff8000000000123ULL)));
    keys.push_back(key(pg, from_bits(0x7ff8000000000123ULL)));
    keys.push_back(key(pg, std::numeric_limits<double>::quiet_NaN()));
    // A PG carrying theta and layer fields is the plain PG.
    PartitionGraphId pg_fields = pg;
    pg_fields.theta = 3.0;
    pg_fields.theta_max = -0.0;
    pg_fields.layer = 2;
    keys.push_back(key(pg_fields, 0.5));
    // SPG: theta and theta_max by bit pattern, the layer ignored.
    PartitionGraphId spg_layer = PartitionGraphId::spg(2.0, 5.0);
    spg_layer.layer = 3;
    for (const PartitionGraphId& g :
         {PartitionGraphId::spg(2.0, 5.0), spg_layer,
          PartitionGraphId::spg(0.0, 5.0), PartitionGraphId::spg(-0.0, 5.0),
          PartitionGraphId::spg(2.0, -0.0), PartitionGraphId::spg(2.0, 0.0)})
        keys.push_back(key(g, 0.5));
    // LPG: the layer (multi-digit and negative too), theta ignored.
    PartitionGraphId lpg_theta = PartitionGraphId::lpg(1);
    lpg_theta.theta = 4.0;
    lpg_theta.theta_max = 9.0;
    for (const PartitionGraphId& g :
         {PartitionGraphId::lpg(0), PartitionGraphId::lpg(1), lpg_theta,
          PartitionGraphId::lpg(12), PartitionGraphId::lpg(-1)})
        keys.push_back(key(g, 0.5));
    // Each PartitionOptions field, k and one RNG word changed.
    const std::function<void(pipeline::PartitionKey&)> changes[] = {
        [](pipeline::PartitionKey& k) { k.opts.num_starts += 1; },
        [](pipeline::PartitionKey& k) { k.opts.refine = !k.opts.refine; },
        [](pipeline::PartitionKey& k) { k.opts.max_block_size = 3; },
        [](pipeline::PartitionKey& k) { k.k = 40; },
        [](pipeline::PartitionKey& k) { k.rng.s[2] ^= 1ULL << 63; },
    };
    for (const auto& change : changes) {
        pipeline::PartitionKey k = key(pg, 0.5);
        change(k);
        keys.push_back(k);
    }
    // Every special double as alpha, and as an SPG's theta.
    for (const double v : special_doubles()) {
        keys.push_back(key(pg, v));
        keys.push_back(key(PartitionGraphId::spg(v, 5.0), 0.5));
    }
    // The equal pairs: the three PG keys at alpha 0.5 (3 pairs), the
    // NaN payload twice, SPG(2, 5) with and without a layer, and LPG(1)
    // with and without theta fields (6); then the special doubles as
    // alpha meet the earlier keys of their bits (0.0, -0.0 and the quiet
    // NaN once each, the payload NaN twice: 5), and as theta the SPGs of
    // theta 0.0 and -0.0 (2).
    EXPECT_EQ(expect_keys_match_bytes(keys, "partition edge cases"),
              6 + 5 + 2);
}

TEST(StageKeyEquivalence, RoutingKeyEdgeCases) {
    // Configs differing only in the frequency's bits, each built twice:
    // two configs built apart with the same bytes compare equal.
    std::vector<std::shared_ptr<const pipeline::StageConfig>> configs;
    for (const double freq : special_doubles()) {
        SynthesisConfig cfg;
        cfg.eval.freq_hz = freq;
        configs.push_back(pipeline::RunKeys(cfg).routing);
        configs.push_back(pipeline::RunKeys(cfg).routing);
    }

    const CoreAssignment base{{0, 1, 1, 2, 10}, {0, 1, 1}};
    std::vector<CoreAssignment> assigns{base, base};
    CoreAssignment a = base;
    a.core_switch[4] = 11;  // one core_switch entry
    assigns.push_back(a);
    a = base;
    a.switch_layer[1] = 0;  // one switch_layer entry
    assigns.push_back(a);
    a = base;
    a.switch_layer.push_back(1);  // switch_layer one longer
    assigns.push_back(a);
    a = base;
    a.switch_layer.pop_back();  // one shorter
    assigns.push_back(a);
    // The boundary between the vectors moves: same concatenation.
    assigns.push_back({{0, 1, 1, 2}, {10, 0, 1, 1}});
    assigns.push_back({{-1, 123, -1}, {}});
    assigns.push_back({{}, {}});

    std::vector<pipeline::RoutingKey> keys;
    for (const CoreAssignment& assign : assigns)
        for (const auto& cfg : configs) keys.push_back({assign, cfg});
    // Per config value (2 configs): base twice gives 4 keys (6 pairs),
    // each other assignment 2 keys (1 pair each, 7 assignments).
    const long long per_value = 6 + 7;
    EXPECT_EQ(expect_keys_match_bytes(keys, "routing edge cases"),
              per_value * static_cast<long long>(special_doubles().size()));
}

/// A topology of D_36_4's cores holding the special doubles: core
/// snapshots and switch positions at special coordinates, negative and
/// multi-digit layers, a switch name with separators, links between
/// high-index ends in both classes and flow paths over link ids above ten.
Topology special_topology(const DesignSpec& spec) {
    const std::vector<double> v = special_doubles();
    const auto at = [&](std::size_t i) { return v[i % v.size()]; };
    Topology t(spec.cores, spec.comm.num_flows());
    for (int c = 0; c < t.num_cores(); ++c) {
        const auto i = static_cast<std::size_t>(c);
        t.set_core_geometry(c, {at(i), at(i + 7)}, c % 3 == 0 ? -c : c * 11);
    }
    for (int s = 0; s < 12; ++s) {
        const auto i = static_cast<std::size_t>(s);
        t.add_switch("sw" + std::to_string(s) + (s == 11 ? ",;|/@" : ""),
                     s * 9, {at(i + 3), at(i + 11)});
    }
    for (int s = 0; s < 12; ++s) {
        t.add_link(NodeRef::core(35 - s), NodeRef::sw(s), FlowType::Request);
        t.add_link(NodeRef::sw(s), NodeRef::core(24 + s % 12),
                   FlowType::Response);
    }
    for (int f = 0; f < 3; ++f) {
        const Flow& flow = spec.comm.flow(f);
        const int a = t.add_parallel_link(NodeRef::core(flow.src),
                                          NodeRef::sw(10), flow.type);
        const int b =
            t.add_parallel_link(NodeRef::sw(10), NodeRef::sw(11), flow.type);
        const int c = t.add_parallel_link(NodeRef::sw(11),
                                          NodeRef::core(flow.dst), flow.type);
        t.set_flow_path(f, flow, {a, b, c});
    }
    for (int l = 0; l < t.num_links(); ++l)
        t.link(l).bw_mbps = at(static_cast<std::size_t>(l) + 5);
    return t;
}

TEST(StageKeyEquivalence, ContentKeyEdgeCases) {
    const DesignSpec spec = make_benchmark("D_36_4");
    ASSERT_GE(spec.cores.num_cores(), 36);
    ASSERT_GE(spec.comm.num_flows(), 3);
    const Topology base = special_topology(spec);
    // The base, a copy of it, and one field at a time changed: a switch
    // coordinate's sign of zero, a bandwidth to NaNs of two payloads, a
    // core's layer, a switch's name, and one more link.
    std::vector<Topology> topos{base, base};
    const std::function<void(Topology&)> changes[] = {
        [](Topology& t) {
            Point p = t.switch_at(0).position;
            p.x = std::signbit(p.x) ? 0.0 : -0.0;
            t.switch_at(0).position = p;
        },
        [](Topology& t) {
            t.link(0).bw_mbps = from_bits(0x7ff8000000000456ULL);
        },
        [](Topology& t) {
            t.link(0).bw_mbps = std::numeric_limits<double>::quiet_NaN();
        },
        [](Topology& t) {
            t.set_core_geometry(1, t.node_position(NodeRef::core(1)),
                                t.node_layer(NodeRef::core(1)) + 1);
        },
        [](Topology& t) { t.switch_at(11).name = "sw11"; },
        [](Topology& t) {
            t.add_parallel_link(NodeRef::sw(0), NodeRef::sw(1),
                                FlowType::Request);
        },
    };
    for (const auto& change : changes) {
        Topology t = base;
        change(t);
        topos.push_back(std::move(t));
    }
    SynthesisConfig on;
    SynthesisConfig off;
    off.run_floorplan = false;
    const pipeline::RunKeys configs[] = {pipeline::RunKeys(on),
                                         pipeline::RunKeys(on),
                                         pipeline::RunKeys(off)};
    std::vector<pipeline::PlacementKey> placement;
    std::vector<pipeline::EvaluationKey> evaluation;
    for (const Topology& t : topos) {
        pipeline::RoutingArtifact routed(t);
        routed.topo_hash = t.content_hash();
        pipeline::PlacementArtifact placed(t);
        placed.topo_hash = t.content_hash();
        const auto r =
            std::make_shared<const pipeline::RoutingArtifact>(routed);
        const auto p =
            std::make_shared<const pipeline::PlacementArtifact>(placed);
        for (const pipeline::RunKeys& keys : configs) {
            placement.push_back({r, keys.placement});
            evaluation.push_back({p, keys.evaluation});
        }
    }
    // Equal pairs per stage: the base and its copy under the two
    // floorplan-on configs (4 keys, 6 pairs) and under the floorplan-off
    // one (1), each changed topology under the two floorplan-on configs
    // (1 each). Link 0's changes give two NaNs of other payloads: the
    // base has no NaN there.
    const long long want = 6 + 1 + static_cast<long long>(std::size(changes));
    EXPECT_EQ(expect_keys_match_bytes(placement, "placement edge cases"),
              want);
    EXPECT_EQ(expect_keys_match_bytes(evaluation, "evaluation edge cases"),
              want);
    StageBytes stages;
    stages.add("placement", placement);
    stages.add("evaluation", evaluation);
}

}  // namespace
}  // namespace sunfloor
