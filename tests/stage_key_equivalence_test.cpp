// The stage-key text renderers write their hex digits directly. Their
// output is a CAS address, so it must stay byte-equal to the format-based
// renderers in tests/oracle/fingerprint_reference.* on every topology the
// pipeline produces for the seven paper specs, and on the values a
// printf path handles specially: signed zeros, NaN payloads, infinities,
// subnormals, and multi-digit or negative integers.
//
// The partition and routing caches key on structs (PartitionKey,
// RoutingKey) and render text only for a store. On every such key a cold
// run of the seven specs makes, and on edge cases, two keys must be equal
// exactly when their text is, equal keys must hash equal, and the text
// must be the bytes the session once built inline as the key.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "oracle/fingerprint_reference.h"
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

/// Doubles a "%016llx" rendering has no special case for but a hand
/// encoder could get wrong, plus values that exercise every hex digit.
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
    for (const double v : values) {
        const std::string want = oracle::double_bits_reference(v);
        EXPECT_EQ(double_bits(v), want);
        std::string appended = "x";
        append_double_bits(appended, v);
        EXPECT_EQ(appended, "x" + want);
    }
}

TEST(StageKeyEquivalence, RngKeyMatchesPrintf) {
    std::vector<RngState> states(3);
    for (auto& w : states[1].s) w = ~0ULL;
    states[2].s[0] = 1;
    states[2].s[3] = 0x8000000000000000ULL;
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        states.push_back(rng.state());
        rng.next_u64();
    }
    for (const RngState& st : states)
        EXPECT_EQ(st.key(), oracle::rng_key_reference(st));
}

TEST(StageKeyEquivalence, FingerprintMatchesReferenceOnSpecialValues) {
    const DesignSpec spec = make_benchmark("D_36_4");
    ASSERT_GE(spec.cores.num_cores(), 12);
    ASSERT_GE(spec.comm.num_flows(), 3);
    const std::vector<double> v = special_doubles();
    const auto at = [&](std::size_t i) { return v[i % v.size()]; };

    Topology t(spec.cores, spec.comm.num_flows());
    // Core snapshots: special coordinates, multi-digit and negative layers.
    for (int c = 0; c < t.num_cores(); ++c) {
        const auto i = static_cast<std::size_t>(c);
        t.set_core_geometry(c, {at(i), at(i + 7)}, c % 3 == 0 ? -c : c * 11);
    }
    // Twelve switches, so indices reach two digits.
    for (int s = 0; s < 12; ++s) {
        const auto i = static_cast<std::size_t>(s);
        t.add_switch("sw" + std::to_string(s) + (s == 11 ? ",;|/@" : ""),
                     s * 9, {at(i + 3), at(i + 11)});
    }
    // Links between high-index cores and switches in both classes; the
    // flow paths below then use link ids above ten.
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

    EXPECT_EQ(pipeline::topology_fingerprint(t),
              oracle::topology_fingerprint_reference(t));
}

TEST(StageKeyEquivalence, FingerprintMatchesReferenceOnPaperDesigns) {
    // Every design point of a default synthesis (floorplan on) and every
    // routed topology of the phase-1 PG sweep, for each paper spec.
    int routed = 0;
    int compared = 0;
    for (const char* name : kPaperSpecs) {
        const DesignSpec spec = make_benchmark(name);
        const SynthesisConfig cfg;
        pipeline::SynthesisSession session(spec);
        for (const DesignPoint& dp : session.run(cfg).points) {
            EXPECT_EQ(pipeline::topology_fingerprint(dp.topo),
                      oracle::topology_fingerprint_reference(dp.topo))
                << name;
            ++compared;
        }
        for (int k = 1; k <= spec.cores.num_cores(); ++k) {
            const auto part =
                session.partition(pipeline::PartitionGraphId::pg(), k, cfg,
                                  cfg.partition, Rng(cfg.seed).state());
            const auto ra = session.route(
                pipeline::phase1_assignment(*part, spec.cores), cfg);
            EXPECT_EQ(pipeline::topology_fingerprint(ra->topo),
                      oracle::topology_fingerprint_reference(ra->topo))
                << name << " k=" << k;
            EXPECT_EQ(ra->topo_hash, ra->topo->content_hash());
            routed += ra->ok ? 1 : 0;
            ++compared;
        }
    }
    EXPECT_GT(routed, 100);
    EXPECT_GT(compared, 400);
}

// --------------------------------------------- partition and routing keys

/// A routing key with the routing_cfg_key text its config was built from.
struct SeenRouting {
    pipeline::RoutingKey key;
    std::string routing_cfg;
};

/// The routing StageConfig of a run, built as the session builds it.
std::shared_ptr<const pipeline::StageConfig> routing_config(
    const std::string& routing_cfg) {
    return std::make_shared<const pipeline::StageConfig>("rt|",
                                                         "|" + routing_cfg);
}

/// Replays SynthesisSession::run's drivers (Algorithms 1 and 2) through
/// the session's public stage calls, recording every partition and
/// routing key in call order; a call the cache serves repeats its key.
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
    std::vector<SeenRouting> routing;

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

    bool synthesize(const CoreAssignment& assign, const SynthesisConfig& cfg,
                    const std::string& phase, double theta) {
        const std::string routing_cfg = pipeline::routing_cfg_key(cfg);
        routing.push_back(
            {pipeline::RoutingKey{assign, routing_config(routing_cfg)},
             routing_cfg});
        return session_.synthesize(assign, cfg, phase, theta).valid;
    }

    bool phase1(const SynthesisConfig& cfg, RngState& rng) {
        const int n = spec_.cores.num_cores();
        const int hi =
            cfg.max_switches > 0 ? std::min(cfg.max_switches, n) : n;
        std::set<int> unmet;
        for (int i = 1; i <= hi; ++i) {
            const auto part =
                cut(pipeline::PartitionGraphId::pg(), i, cfg, cfg.partition,
                    rng);
            if (!synthesize(pipeline::phase1_assignment(*part, spec_.cores),
                            cfg, "phase1", 0.0))
                unmet.insert(i);
        }
        for (double theta = cfg.theta_min;
             !unmet.empty() && theta <= cfg.theta_max + 1e-9;) {
            const auto spg = pipeline::PartitionGraphId::spg(theta,
                                                             cfg.theta_max);
            for (auto it = unmet.begin(); it != unmet.end();) {
                const auto part = cut(spg, *it, cfg, cfg.partition, rng);
                it = synthesize(pipeline::phase1_assignment(*part,
                                                            spec_.cores),
                                cfg, "phase1", theta)
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
            1, cfg.eval.lib.max_switch_size(cfg.eval.freq_hz) - 2);
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
                PartitionOptions popts = cfg.partition;
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
            synthesize(assign, cfg2, "phase2", 0.0);
        }
    }

    pipeline::SynthesisSession& session_;
    const DesignSpec& spec_;
};

/// Checks, over every pair of `keys`: equal keys <=> equal text(), and
/// equal keys => equal hashes; and each text() against `want`. Returns
/// the number of equal pairs.
template <typename Key>
long long expect_keys_match_text(const std::vector<Key>& keys,
                                 const std::vector<std::string>& want,
                                 const std::string& what) {
    EXPECT_EQ(keys.size(), want.size()) << what;
    std::vector<std::string> text;
    std::vector<std::size_t> hash;
    int wrong_text = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        text.push_back(keys[i].text());
        hash.push_back(typename Key::Hash{}(keys[i]));
        if (i < want.size() && text[i] != want[i] && wrong_text++ == 0)
            ADD_FAILURE() << what << " key " << i << ": text " << text[i]
                          << "\n  want " << want[i];
    }
    EXPECT_EQ(wrong_text, 0) << what;
    long long equal = 0;
    int mismatched = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        for (std::size_t j = i + 1; j < keys.size(); ++j) {
            const bool same = keys[i] == keys[j];
            equal += same ? 1 : 0;
            const bool bad = same != (text[i] == text[j]) ||
                             (same && hash[i] != hash[j]) ||
                             same != (keys[j] == keys[i]);
            if (bad && mismatched++ == 0)
                ADD_FAILURE() << what << " keys " << i << " and " << j
                              << ": equal " << same << ", texts\n  "
                              << text[i] << "\n  " << text[j];
        }
    }
    EXPECT_EQ(mismatched, 0) << what;
    return equal;
}

std::vector<std::string> partition_references(
    const std::vector<pipeline::PartitionKey>& keys) {
    std::vector<std::string> out;
    for (const pipeline::PartitionKey& k : keys)
        out.push_back(oracle::partition_key_reference(k.graph, k.alpha,
                                                      k.opts, k.k, k.rng));
    return out;
}

long long expect_routing_keys_match_text(
    const std::vector<SeenRouting>& seen, const std::string& what) {
    std::vector<pipeline::RoutingKey> keys;
    std::vector<std::string> want;
    for (const SeenRouting& r : seen) {
        keys.push_back(r.key);
        want.push_back(
            oracle::routing_key_reference(r.key.assign, r.routing_cfg));
    }
    return expect_keys_match_text(keys, want, what);
}

TEST(StageKeyEquivalence, RunKeysMatchTextHashAndReference) {
    // Every partition and routing key of a cold Auto run and a cold
    // Phase 2 run (floorplan off) of each paper spec. The replay makes
    // the run's calls: as many per stage as a cold run, with as many
    // misses, and the run repeated on the replayed session computes
    // nothing new.
    SynthesisConfig cfg;
    cfg.run_floorplan = false;
    std::size_t partition_keys = 0;
    std::size_t routing_keys = 0;
    for (const char* name : kPaperSpecs) {
        const DesignSpec spec = make_benchmark(name);
        pipeline::SynthesisSession replayed(spec);
        pipeline::SynthesisSession cold(spec);
        KeyReplay replay(replayed);
        for (const SynthesisPhase phase :
             {SynthesisPhase::Auto, SynthesisPhase::Phase2}) {
            replay.run(cfg, phase);
            cold.run(cfg, phase);
        }
        const pipeline::SessionStats r = replayed.stats();
        const pipeline::SessionStats c = cold.stats();
        EXPECT_EQ(r.partition.calls(), c.partition.calls()) << name;
        EXPECT_EQ(r.partition.misses, c.partition.misses) << name;
        EXPECT_EQ(r.routing.calls(), c.routing.calls()) << name;
        EXPECT_EQ(r.routing.misses, c.routing.misses) << name;
        EXPECT_EQ(static_cast<long long>(replay.partition.size()),
                  r.partition.calls())
            << name;
        EXPECT_EQ(static_cast<long long>(replay.routing.size()),
                  r.routing.calls())
            << name;
        for (const SynthesisPhase phase :
             {SynthesisPhase::Auto, SynthesisPhase::Phase2})
            replayed.run(cfg, phase);
        EXPECT_EQ(replayed.stats().partition.misses, r.partition.misses)
            << name;
        EXPECT_EQ(replayed.stats().routing.misses, r.routing.misses) << name;

        // A cold run makes each partition key once, but two partitions
        // can yield one assignment, so routing keys repeat.
        expect_keys_match_text(replay.partition,
                               partition_references(replay.partition),
                               std::string(name) + " partition");
        EXPECT_GT(expect_routing_keys_match_text(
                      replay.routing, std::string(name) + " routing"),
                  0)
            << name;
        partition_keys += replay.partition.size();
        routing_keys += replay.routing.size();
    }
    EXPECT_GT(partition_keys, 1000u);
    EXPECT_GT(routing_keys, 900u);
}

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
    // The equal pairs: the three PG keys at alpha 0.5 (3 pairs), the
    // NaN payload twice, SPG(2, 5) with and without a layer, and LPG(1)
    // with and without theta fields.
    EXPECT_EQ(expect_keys_match_text(keys, partition_references(keys),
                                     "partition edge cases"),
              6);
}

TEST(StageKeyEquivalence, RoutingKeyEdgeCases) {
    SynthesisConfig fast;
    SynthesisConfig slow = fast;
    slow.eval.freq_hz = fast.eval.freq_hz / 2;
    const std::string fast_cfg = pipeline::routing_cfg_key(fast);
    const std::string slow_cfg = pipeline::routing_cfg_key(slow);
    // Two configs built apart with the same text compare equal.
    const auto fast_a = routing_config(fast_cfg);
    const auto fast_b = routing_config(fast_cfg);
    const auto slow_a = routing_config(slow_cfg);

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

    std::vector<SeenRouting> seen;
    for (const CoreAssignment& assign : assigns) {
        seen.push_back({pipeline::RoutingKey{assign, fast_a}, fast_cfg});
        seen.push_back({pipeline::RoutingKey{assign, fast_b}, fast_cfg});
        seen.push_back({pipeline::RoutingKey{assign, slow_a}, slow_cfg});
    }
    // The equal pairs: base twice under the fast configs (4 keys, 6
    // pairs) and under the slow one (1), and each other assignment under
    // fast_a and fast_b (7).
    EXPECT_EQ(expect_routing_keys_match_text(seen, "routing edge cases"),
              6 + 1 + 7);
}

}  // namespace
}  // namespace sunfloor
