// Content-addressed artifact store: round-trip fidelity, crash-safety
// (truncation, bit flips, stale tmp debris), size-bounded LRU eviction,
// the bit-exact artifact codec, session spill/load transparency and
// multi-process sharing of one directory.
#include <dirent.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sunfloor/cas/bincode.h"
#include "sunfloor/cas/codec.h"
#include "sunfloor/cas/store.h"
#include "sunfloor/core/synthesizer.h"
#include "sunfloor/obs/metrics.h"
#include "sunfloor/pipeline/session.h"
#include "sunfloor/spec/benchmarks.h"

namespace sunfloor {
namespace {

struct TempDir {
    std::string path;
    TempDir() {
        char buf[] = "/tmp/sunfloor_cas_XXXXXX";
        const char* p = ::mkdtemp(buf);
        EXPECT_NE(p, nullptr);
        if (p) path = p;
    }
    ~TempDir() {
        if (!path.empty()) std::system(("rm -rf " + path).c_str());
    }
};

cas::Store open_store(const std::string& dir, std::uint64_t max_bytes = 0) {
    return cas::Store(cas::StoreOptions{dir, max_bytes, 60.0});
}

long long counter(const char* name) {
    return obs::Registry::global().counter(name).value();
}

std::string read_file(const std::string& path) {
    std::string out;
    FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (!f) return out;
    char buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
    std::fclose(f);
    return out;
}

void write_file(const std::string& path, const std::string& bytes) {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

void set_mtime(const std::string& path, std::time_t sec) {
    timespec times[2] = {{sec, 0}, {sec, 0}};
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
}

bool file_exists(const std::string& path) {
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

/// Whether `dir` holds an object file for `key` (what gc() evicts).
bool has_object(const std::string& dir, const std::string& key) {
    return file_exists(dir + "/" + cas::Store::object_name(key));
}

SynthesisConfig fast_cfg() {
    SynthesisConfig cfg;
    cfg.partition.num_starts = 4;
    cfg.run_floorplan = false;
    cfg.max_switches = 6;
    return cfg;
}

void expect_same_results(const SynthesisResult& a, const SynthesisResult& b) {
    EXPECT_EQ(a.phase_used, b.phase_used);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].valid, b.points[i].valid);
        EXPECT_EQ(a.points[i].fail_reason, b.points[i].fail_reason);
        EXPECT_EQ(a.points[i].switch_count, b.points[i].switch_count);
        EXPECT_EQ(a.points[i].topo->num_links(), b.points[i].topo->num_links());
        EXPECT_EQ(std::memcmp(&a.points[i].report.avg_latency_cycles,
                              &b.points[i].report.avg_latency_cycles,
                              sizeof(double)),
                  0);
        const double pa = a.points[i].report.power.total_mw();
        const double pb = b.points[i].report.power.total_mw();
        EXPECT_EQ(std::memcmp(&pa, &pb, sizeof(double)), 0);
    }
}

// ------------------------------------------------------------- store core

TEST(CasStore, PutGetRoundTripsArbitraryBytes) {
    TempDir dir;
    cas::Store store = open_store(dir.path);
    std::string payload = "binary\0payload\xff\x01";
    payload.push_back('\0');
    ASSERT_TRUE(store.put("some|stage|key", payload));
    std::string got;
    ASSERT_TRUE(store.get("some|stage|key", got));
    EXPECT_EQ(got, payload);

    // Overwrite wins; the old payload is gone.
    ASSERT_TRUE(store.put("some|stage|key", "v2"));
    ASSERT_TRUE(store.get("some|stage|key", got));
    EXPECT_EQ(got, "v2");

    // Absent keys miss without touching the hit counter.
    const long long hits = counter("cas.hits");
    const long long misses = counter("cas.misses");
    EXPECT_FALSE(store.get("never-stored", got));
    EXPECT_EQ(counter("cas.hits"), hits);
    EXPECT_EQ(counter("cas.misses"), misses + 1);

    const cas::StoreStats st = store.stats();
    EXPECT_EQ(st.objects, 1u);
    EXPECT_GT(st.object_bytes, 0u);
    EXPECT_EQ(st.tmp_files, 0u);
}

TEST(CasStore, ObjectNameIsThe16HexKeyHash) {
    const std::string name = cas::Store::object_name("k");
    EXPECT_EQ(name.size(), 16u);
    for (const char c : name)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
    EXPECT_NE(name, cas::Store::object_name("k2"));
    EXPECT_EQ(name, cas::Store::object_name("k"));
}

TEST(CasStore, TruncatedObjectIsAMissAndUnlinked) {
    TempDir dir;
    cas::Store store = open_store(dir.path);
    const std::string key = "trunc-key";
    const std::string payload(500, 'x');
    const std::string path = dir.path + "/" + cas::Store::object_name(key);

    for (const std::size_t keep : {std::size_t{0}, std::size_t{10},
                                   std::size_t{27}, std::size_t{200}}) {
        ASSERT_TRUE(store.put(key, payload));
        const std::string blob = read_file(path);
        ASSERT_GT(blob.size(), keep);
        write_file(path, blob.substr(0, keep));

        const long long corrupt = counter("cas.corrupt");
        std::string got;
        EXPECT_FALSE(store.get(key, got)) << "keep=" << keep;
        EXPECT_EQ(counter("cas.corrupt"), corrupt + 1);
        // Debris is unlinked so the next writer starts clean.
        EXPECT_FALSE(file_exists(path));
        // Recompute-and-store works again afterwards.
        ASSERT_TRUE(store.put(key, payload));
        ASSERT_TRUE(store.get(key, got));
        EXPECT_EQ(got, payload);
    }
}

TEST(CasStore, BitFlippedPayloadIsAMissAndUnlinked) {
    TempDir dir;
    cas::Store store = open_store(dir.path);
    const std::string key = "flip-key";
    ASSERT_TRUE(store.put(key, std::string(300, 'y')));
    const std::string path = dir.path + "/" + cas::Store::object_name(key);
    std::string blob = read_file(path);
    blob.back() = static_cast<char>(blob.back() ^ 0x40);
    write_file(path, blob);

    const long long corrupt = counter("cas.corrupt");
    std::string got;
    EXPECT_FALSE(store.get(key, got));
    EXPECT_EQ(counter("cas.corrupt"), corrupt + 1);
    EXPECT_FALSE(file_exists(path));
}

TEST(CasStore, BadMagicIsAMissAndUnlinked) {
    TempDir dir;
    cas::Store store = open_store(dir.path);
    ASSERT_TRUE(store.put("magic-key", "payload"));
    const std::string path =
        dir.path + "/" + cas::Store::object_name("magic-key");
    std::string blob = read_file(path);
    blob[0] = 'X';
    write_file(path, blob);
    std::string got;
    EXPECT_FALSE(store.get("magic-key", got));
    EXPECT_FALSE(file_exists(path));
}

TEST(CasStore, MisRenamedObjectIsAMissButNotDebris) {
    // A hash collision (or a mis-renamed file) presents an *intact* object
    // under the wrong name: the key echo catches it. It is a miss — the
    // payload belongs to another key — but not corruption, so the store
    // must not destroy the other key's object.
    TempDir dir;
    cas::Store store = open_store(dir.path);
    ASSERT_TRUE(store.put("owner-key", "owner-payload"));
    const std::string src = dir.path + "/" + cas::Store::object_name("owner-key");
    const std::string dst = dir.path + "/" + cas::Store::object_name("other-key");
    ASSERT_EQ(::rename(src.c_str(), dst.c_str()), 0);

    const long long corrupt = counter("cas.corrupt");
    std::string got;
    EXPECT_FALSE(store.get("other-key", got));
    EXPECT_EQ(counter("cas.corrupt"), corrupt);  // not counted as corrupt
    EXPECT_TRUE(file_exists(dst));               // and not unlinked
}

TEST(CasStore, GcReapsStaleTmpDebrisButSparesLiveWriters) {
    TempDir dir;
    cas::Store store = open_store(dir.path);
    ASSERT_TRUE(store.put("kept", "kept-payload"));

    // A crashed writer's leftovers (old mtime) and a live writer's tmp
    // file (fresh mtime) side by side.
    const std::string stale = dir.path + "/00000000deadbeef.tmp.1234.7";
    const std::string fresh = dir.path + "/00000000deadbeef.tmp.1234.8";
    write_file(stale, "half-written");
    write_file(fresh, "half-written");
    // lint:allow(nondet-time) back-dating a file mtime to exercise GC age
    set_mtime(stale, std::time(nullptr) - 3600);

    cas::StoreStats st = store.stats();
    EXPECT_EQ(st.tmp_files, 2u);
    EXPECT_GT(st.tmp_bytes, 0u);

    const cas::GcResult r = store.gc();
    EXPECT_EQ(r.removed_tmp, 1u);
    EXPECT_EQ(r.evicted_objects, 0u);
    EXPECT_FALSE(file_exists(stale));
    EXPECT_TRUE(file_exists(fresh));
    EXPECT_TRUE(has_object(dir.path, "kept"));
}

TEST(CasStore, GcEvictsLeastRecentlyUsedUntilUnderTheBound) {
    TempDir dir;
    const std::string payload(1000, 'z');
    std::vector<std::string> keys = {"a", "b", "c", "d"};
    std::uint64_t per_object = 0;
    {
        cas::Store store = open_store(dir.path);
        for (const std::string& k : keys) ASSERT_TRUE(store.put(k, payload));
        per_object = store.stats().object_bytes / keys.size();
    }
    // Pin the recency order explicitly (mtime drives eviction): "a" oldest,
    // "d" newest.
    // lint:allow(nondet-time) back-dating file mtimes to pin GC recency
    const std::time_t now = std::time(nullptr);
    for (std::size_t i = 0; i < keys.size(); ++i)
        set_mtime(dir.path + "/" + cas::Store::object_name(keys[i]),
                  now - 1000 + static_cast<std::time_t>(100 * i));

    // Bound to two objects: the two oldest must go, newest survive.
    cas::Store bounded = open_store(dir.path, 2 * per_object);
    const long long evictions = counter("cas.evictions");
    const cas::GcResult r = bounded.gc();
    EXPECT_EQ(r.evicted_objects, 2u);
    EXPECT_EQ(r.evicted_bytes, 2 * per_object);
    EXPECT_EQ(counter("cas.evictions"), evictions + 2);
    EXPECT_FALSE(has_object(dir.path, "a"));
    EXPECT_FALSE(has_object(dir.path, "b"));
    EXPECT_TRUE(has_object(dir.path, "c"));
    EXPECT_TRUE(has_object(dir.path, "d"));
    // Already under the bound: a second gc is a no-op.
    EXPECT_EQ(bounded.gc().evicted_objects, 0u);
}

TEST(CasStore, SuccessfulLoadRefreshesTheEvictionOrder) {
    TempDir dir;
    const std::string payload(1000, 'z');
    cas::Store store = open_store(dir.path);
    for (const char* k : {"old", "new"}) ASSERT_TRUE(store.put(k, payload));
    // lint:allow(nondet-time) back-dating file mtimes to pin GC recency
    const std::time_t now = std::time(nullptr);
    set_mtime(dir.path + "/" + cas::Store::object_name("old"), now - 1000);
    set_mtime(dir.path + "/" + cas::Store::object_name("new"), now - 500);

    // Loading "old" bumps it ahead of "new" in the LRU order.
    std::string got;
    ASSERT_TRUE(store.get("old", got));

    cas::Store bounded =
        open_store(dir.path, store.stats().object_bytes / 2);
    ASSERT_EQ(bounded.gc().evicted_objects, 1u);
    EXPECT_TRUE(has_object(dir.path, "old"));
    EXPECT_FALSE(has_object(dir.path, "new"));
}

// ----------------------------------------------------------------- codec

TEST(CasCodec, ArtifactsRoundTripBitExactly) {
    const DesignSpec spec = make_benchmark("D_36_4");
    SynthesisConfig cfg = fast_cfg();
    cfg.run_floorplan = true;  // exercise the die-area vector too

    pipeline::SynthesisSession session(spec);
    const RngState rng_in = Rng(cfg.seed).state();
    // Find a switch count whose assignment routes (the sweep's job); the
    // codec must handle whichever artifacts fall out.
    std::shared_ptr<const pipeline::PartitionArtifact> part;
    std::shared_ptr<const pipeline::RoutingArtifact> routed_holder;
    for (int k = 2; k <= cfg.max_switches && !routed_holder; ++k) {
        part = session.partition(pipeline::PartitionGraphId::pg(), k, cfg,
                                 cfg.partition, rng_in);
        auto r = session.route(pipeline::phase1_assignment(*part, spec.cores),
                               cfg);
        if (r->ok) routed_holder = std::move(r);
    }
    ASSERT_TRUE(routed_holder) << "no switch count routed";
    const pipeline::RoutingArtifact& routed = *routed_holder;
    const auto placed_holder = session.place(routed_holder, cfg);
    const pipeline::PlacementArtifact& placed = *placed_holder;
    const pipeline::EvaluatedDesign evaluated(
        pipeline::evaluate_design(placed, spec, cfg));

    // encode(decode(encode(x))) == encode(x), byte for byte, for every
    // artifact kind — the property the CAS spill path rests on.
    {
        const std::string blob = cas::encode_partition(*part);
        EXPECT_EQ(blob, cas::encode_partition(*part));  // deterministic
        const auto back = cas::decode_partition(blob);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(cas::encode_partition(*back), blob);
        EXPECT_EQ(back->block, part->block);
        EXPECT_EQ(back->k, part->k);
        EXPECT_EQ(back->rng_after, part->rng_after);
    }
    {
        const std::string blob = cas::encode_routing(routed);
        const auto back = cas::decode_routing(blob, spec);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(cas::encode_routing(*back), blob);
        EXPECT_EQ(back->ok, routed.ok);
        EXPECT_EQ(back->topo->num_links(), routed.topo->num_links());
        EXPECT_EQ(pipeline::topology_fingerprint(back->topo),
                  pipeline::topology_fingerprint(routed.topo));
        // Decoding takes the content hash the stage took.
        EXPECT_NE(routed.topo_hash, 0u);
        EXPECT_EQ(back->topo_hash, routed.topo_hash);
        EXPECT_TRUE(back->topo->same_content(*routed.topo));
    }
    {
        // The failure side of a routing artifact round-trips too.
        pipeline::RoutingArtifact failed = routed;
        failed.ok = false;
        failed.fail_reason = "pruned: test";
        failed.failed_flows = 3;
        failed.capacity_violations = 1;
        const std::string blob = cas::encode_routing(failed);
        const auto back = cas::decode_routing(blob, spec);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(cas::encode_routing(*back), blob);
        EXPECT_EQ(back->fail_reason, "pruned: test");
    }
    {
        const std::string blob = cas::encode_placement(placed);
        const auto back = cas::decode_placement(blob, spec);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(cas::encode_placement(*back), blob);
        EXPECT_EQ(back->layer_die_area_mm2.size(),
                  placed.layer_die_area_mm2.size());
        EXPECT_EQ(pipeline::topology_fingerprint(back->topo),
                  pipeline::topology_fingerprint(placed.topo));
        EXPECT_NE(placed.topo_hash, 0u);
        EXPECT_EQ(back->topo_hash, placed.topo_hash);
    }
    {
        const std::string blob = cas::encode_evaluation(evaluated);
        const auto back = cas::decode_evaluation(blob, spec);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(cas::encode_evaluation(*back), blob);
        EXPECT_EQ(back->point.valid, evaluated.point.valid);
        const double pa = back->point.report.power.total_mw();
        const double pb = evaluated.point.report.power.total_mw();
        EXPECT_EQ(std::memcmp(&pa, &pb, sizeof(double)), 0);
    }
}

TEST(CasCodec, MalformedBlobsDecodeToNullopt) {
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    pipeline::SynthesisSession session(spec);
    const auto part =
        session.partition(pipeline::PartitionGraphId::pg(), 4, cfg,
                          cfg.partition, Rng(cfg.seed).state());
    const pipeline::AssignmentArtifact assign =
        pipeline::phase1_assignment(*part, spec.cores);
    const pipeline::RoutingArtifact routed =
        pipeline::route_assignment(spec, cfg, assign.assign);
    const pipeline::EvaluatedDesign evaluated(
        pipeline::evaluate_design(pipeline::PlacementArtifact(routed.topo),
                                  spec, cfg));

    const std::string blobs[] = {
        cas::encode_partition(*part),
        cas::encode_routing(routed),
        cas::encode_placement(pipeline::PlacementArtifact(routed.topo)),
        cas::encode_evaluation(evaluated),
    };
    for (const std::string& blob : blobs) {
        // Every strict prefix is a truncation; trailing garbage is noise a
        // mis-addressed read could produce. Both must be clean misses.
        const std::size_t cuts[] = {0, 1, blob.size() / 2, blob.size() - 1};
        for (const std::size_t cut : cuts) {
            const std::string t = blob.substr(0, cut);
            EXPECT_FALSE(cas::decode_partition(t).has_value());
            EXPECT_FALSE(cas::decode_routing(t, spec).has_value());
            EXPECT_FALSE(cas::decode_placement(t, spec).has_value());
            EXPECT_FALSE(cas::decode_evaluation(t, spec).has_value());
        }
        const std::string noisy = blob + "x";
        EXPECT_FALSE(cas::decode_partition(noisy).has_value());
        EXPECT_FALSE(cas::decode_routing(noisy, spec).has_value());
        EXPECT_FALSE(cas::decode_placement(noisy, spec).has_value());
        EXPECT_FALSE(cas::decode_evaluation(noisy, spec).has_value());
    }

    // A topology's switch or link count raised to INT_MAX is a clean miss,
    // never an allocation sized by the untrusted count. The topology
    // follows the tag byte of a routing or placement blob, and the tag,
    // phase string, switch count and theta of an evaluation blob.
    const Topology& topo = routed.topo;
    const std::size_t switches_at =
        4 + 20 * static_cast<std::size_t>(topo.num_cores());
    std::size_t links_at = switches_at + 4;
    for (int sw = 0; sw < topo.num_switches(); ++sw)
        links_at += 4 + topo.switch_at(sw).name.size() + 20;
    const std::pair<std::string, std::size_t> carriers[] = {
        {blobs[1], 1},
        {blobs[2], 1},
        {blobs[3], 1 + 4 + evaluated.point.phase.size() + 12},
    };
    const std::pair<std::size_t, int> counts[] = {
        {switches_at, topo.num_switches()},
        {links_at, topo.num_links()},
    };
    cas::Enc int_max;
    int_max.i32(INT_MAX);
    const std::string inflated_count = int_max.take();
    for (const auto& [blob, topo_at] : carriers) {
        for (const auto& [count_at, count] : counts) {
            const std::size_t at = topo_at + count_at;
            ASSERT_EQ(cas::Dec(std::string_view(blob).substr(at, 4)).i32(),
                      count);
            std::string inflated = blob;
            inflated.replace(at, 4, inflated_count);
            EXPECT_FALSE(cas::decode_routing(inflated, spec).has_value());
            EXPECT_FALSE(cas::decode_placement(inflated, spec).has_value());
            EXPECT_FALSE(cas::decode_evaluation(inflated, spec).has_value());
        }
    }

    // A flow path naming a link id the topology does not have, or links
    // that do not chain, is corrupt too: set_flow_path rejects it while
    // the decoder replays the paths. Paths follow the links (19 bytes
    // each) and the flow count, one length-prefixed id list per flow;
    // take the first with three or more links.
    std::size_t path_at =
        1 + links_at + 4 + 19 * static_cast<std::size_t>(topo.num_links()) + 4;
    int flow = 0;
    for (; flow < topo.num_flows() && topo.flow_path(flow).size() < 3; ++flow)
        path_at += 4 + 4 * topo.flow_path(flow).size();
    ASSERT_LT(flow, topo.num_flows());
    const std::span<const int> path = topo.flow_path(flow);
    ASSERT_EQ(cas::Dec(std::string_view(blobs[1]).substr(path_at, 4)).i32(),
              static_cast<int>(path.size()));
    const auto with_link = [&](std::size_t hop, int id) {
        cas::Enc e;
        e.i32(id);
        std::string blob = blobs[1];
        blob.replace(path_at + 4 + 4 * hop, 4, e.take());
        return blob;
    };
    EXPECT_TRUE(cas::decode_routing(with_link(1, path[1]), spec).has_value());
    EXPECT_FALSE(cas::decode_routing(with_link(1, topo.num_links()), spec)
                     .has_value());  // out of range
    EXPECT_FALSE(cas::decode_routing(with_link(1, path[0]), spec)
                     .has_value());  // not contiguous: a core link twice
}

// ------------------------------------------------------ session + store

TEST(CasSession, AttachingAStoreIsUnobservableInTheResults) {
    TempDir dir;
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();

    pipeline::SessionOptions so;
    so.cas = std::make_shared<cas::Store>(
        cas::StoreOptions{dir.path, 0, 60.0});
    pipeline::SynthesisSession session(spec, so);
    const SynthesisResult got = session.run(cfg);
    expect_same_results(got, run_synthesis(spec, cfg));
    // The cold run spilled every computed artifact.
    EXPECT_GT(so.cas->stats().objects, 0u);
    EXPECT_EQ(so.cas->stats().tmp_files, 0u);
}

TEST(CasSession, WarmStoreServesAFreshSessionBitIdentically) {
    TempDir dir;
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    const SynthesisResult ref = run_synthesis(spec, cfg);

    // The cold run writes back every artifact each stage computed.
    pipeline::SessionStats cold;
    long long written = 0;
    {
        pipeline::SessionOptions so;
        so.cas = std::make_shared<cas::Store>(
            cas::StoreOptions{dir.path, 0, 60.0});
        const long long stores_before = counter("cas.stores");
        pipeline::SynthesisSession warmup(spec, so);
        expect_same_results(warmup.run(cfg), ref);
        cold = warmup.stats();
        written = counter("cas.stores") - stores_before;
        EXPECT_EQ(written, cold.partition.misses + cold.routing.misses +
                               cold.placement.misses +
                               cold.evaluation.misses);
    }

    // A brand-new process would start exactly here: empty in-memory
    // caches, a populated store. Every stage must serve each of its calls
    // from disk or from what it already read — no stage computes, so the
    // position LP never runs and nothing is written back — and the
    // results must be bit-identical to the cold flow.
    pipeline::SessionOptions so;
    so.cas = std::make_shared<cas::Store>(
        cas::StoreOptions{dir.path, 0, 60.0});
    const long long hits_before = counter("cas.hits");
    const long long stores_before = counter("cas.stores");
    pipeline::SynthesisSession fresh(spec, so);
    const SynthesisResult got = fresh.run(cfg);
    expect_same_results(got, ref);
    const pipeline::SessionStats st = fresh.stats();
    struct Stage {
        const char* name;
        pipeline::StageCounters warm;
        pipeline::StageCounters cold;
    };
    const Stage stages[] = {
        {"partition", st.partition, cold.partition},
        {"routing", st.routing, cold.routing},
        {"placement", st.placement, cold.placement},
        {"evaluation", st.evaluation, cold.evaluation},
    };
    for (const Stage& stage : stages) {
        EXPECT_GT(stage.cold.misses, 0) << stage.name;
        EXPECT_EQ(stage.warm.misses, 0) << stage.name;
        EXPECT_EQ(stage.warm.hits, stage.cold.calls()) << stage.name;
    }
    EXPECT_EQ(st.position_lp.calls(), 0);
    EXPECT_EQ(counter("cas.stores"), stores_before);
    EXPECT_EQ(counter("cas.hits") - hits_before, written);
}

// Keys of every object in a store directory, read from the key echo each
// object file carries after its 28-byte header (u32 key length at 8).
std::vector<std::string> object_keys(const std::string& dir) {
    std::vector<std::string> keys;
    DIR* d = ::opendir(dir.c_str());
    EXPECT_NE(d, nullptr) << dir;
    if (!d) return keys;
    while (const dirent* e = ::readdir(d)) {
        const std::string name(e->d_name);
        if (name.size() != 16) continue;
        const std::string blob = read_file(dir + "/" + name);
        if (blob.size() < 28) continue;
        std::uint32_t len = 0;
        for (int i = 0; i < 4; ++i)
            len |= static_cast<std::uint32_t>(
                       static_cast<unsigned char>(blob[8 + i]))
                   << (8 * i);
        keys.push_back(blob.substr(28, len));
    }
    ::closedir(d);
    return keys;
}

TEST(CasSession, PlacementsOfAnotherSolverAreNeverServed) {
    // A store written before the position solver changed holds placements
    // under "pl|<topology>|<cfg>", without the solver tag. Plant such
    // objects, with positions the current solver never returns, beside the
    // cold run's partition, routing and evaluation objects: a fresh
    // session must recompute every placement, still reuse the other
    // stages, and match the cold flow bit for bit.
    TempDir cold_dir;
    TempDir old_dir;
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    const SynthesisResult ref = run_synthesis(spec, cfg);
    {
        pipeline::SessionOptions so;
        so.cas = std::make_shared<cas::Store>(
            cas::StoreOptions{cold_dir.path, 0, 60.0});
        pipeline::SynthesisSession warmup(spec, so);
        expect_same_results(warmup.run(cfg), ref);
    }

    cas::Store cold = open_store(cold_dir.path);
    cas::Store old = open_store(old_dir.path);
    const std::string tagged = std::string("pl|") + kPlacementSolverTag + "|";
    int planted = 0;
    for (const std::string& key : object_keys(cold_dir.path)) {
        std::string payload;
        ASSERT_TRUE(cold.get(key, payload)) << key.substr(0, 40);
        const std::size_t at = key.find(tagged);
        if (at == std::string::npos) {
            ASSERT_TRUE(old.put(key, payload));
            continue;
        }
        auto placed = cas::decode_placement(payload, spec);
        ASSERT_TRUE(placed.has_value());
        Topology moved = *placed->topo;
        for (int s = 0; s < moved.num_switches(); ++s)
            moved.switch_at(s).position.x += 1.0;
        placed->topo = SharedTopology(std::move(moved));
        const std::string old_key =
            key.substr(0, at) + "pl|" + key.substr(at + tagged.size());
        ASSERT_TRUE(old.put(old_key, cas::encode_placement(*placed)));
        ++planted;
    }
    ASSERT_GT(planted, 0);

    pipeline::SessionOptions so;
    so.cas = std::make_shared<cas::Store>(
        cas::StoreOptions{old_dir.path, 0, 60.0});
    pipeline::SynthesisSession fresh(spec, so);
    expect_same_results(fresh.run(cfg), ref);
    const pipeline::SessionStats st = fresh.stats();
    EXPECT_EQ(st.placement.hits, 0);
    EXPECT_EQ(st.placement.misses, planted);
    EXPECT_GT(st.partition.hits, 0);
    EXPECT_GT(st.routing.hits, 0);
}

TEST(CasSession, StageKeyBytesArePinned) {
    // A CAS address is the fnv1a64 of the stage key text, so a byte moved
    // in any stage key orphans every store written before it. This fixed
    // synthesis must write exactly the objects the format-based key
    // renderers wrote: the count and a hash of the sorted object names
    // were taken from that build and must only change with a stated
    // reason, like a CAS format bump.
    TempDir dir;
    const DesignSpec spec = make_benchmark("D_26_media");
    SynthesisConfig cfg;
    cfg.run_floorplan = false;
    pipeline::SessionOptions so;
    so.cas = std::make_shared<cas::Store>(
        cas::StoreOptions{dir.path, 0, 60.0});
    pipeline::SynthesisSession session(spec, so);
    for (const auto policy : {routing::RoutingPolicyId::UpDown,
                              routing::RoutingPolicyId::WestFirst,
                              routing::RoutingPolicyId::OddEven}) {
        cfg.routing = policy;
        session.run(cfg);
    }
    std::vector<std::string> names;
    DIR* d = ::opendir(dir.path.c_str());
    ASSERT_NE(d, nullptr);
    while (const dirent* e = ::readdir(d)) {
        const std::string name(e->d_name);
        if (name.size() == 16) names.push_back(name);
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    std::string joined;
    for (const std::string& name : names) joined += name + '\n';
    EXPECT_EQ(names.size(), 267u);
    EXPECT_EQ(cas::fnv1a64(joined), 0x3c49c8cbec287d9eULL);
}

TEST(CasSession, UndecodableObjectsAreCountedAndReplaced) {
    // An object whose checksum holds but whose payload the stage codec
    // rejects (here a partition's bytes filed under a real routing key —
    // what a codec change would leave behind) is no hit: the session
    // recomputes it, counts cas.undecodable and overwrites the object.
    TempDir dir;
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    const SynthesisResult ref = run_synthesis(spec, cfg);

    // The first routing key a run looks up: phase 1's first switch count
    // cut from the seed's generator state.
    pipeline::SynthesisSession probe(spec);
    const int k = cfg.min_switches > 0 ? cfg.min_switches : 1;
    const auto part = probe.partition(pipeline::PartitionGraphId::pg(), k,
                                      cfg, cfg.partition,
                                      Rng(cfg.seed).state());
    const pipeline::AssignmentArtifact assign =
        pipeline::phase1_assignment(*part, spec.cores);
    std::ostringstream design;
    write_design(design, spec);
    char prefix[32];
    std::snprintf(prefix, sizeof prefix, "s%016llx|",
                  static_cast<unsigned long long>(cas::fnv1a64(design.str())));
    const std::string key = std::string(prefix) + "rt|" + assign.key + "|" +
                            pipeline::routing_cfg_key(cfg);
    cas::Store store = open_store(dir.path);
    ASSERT_TRUE(store.put(key, cas::encode_partition(*part)));

    const long long undecodable_before = counter("cas.undecodable");
    pipeline::SessionOptions so;
    so.cas = std::make_shared<cas::Store>(
        cas::StoreOptions{dir.path, 0, 60.0});
    pipeline::SynthesisSession session(spec, so);
    expect_same_results(session.run(cfg), ref);
    EXPECT_EQ(counter("cas.undecodable") - undecodable_before, 1);

    std::string blob;
    ASSERT_TRUE(store.get(key, blob));
    const auto replaced = cas::decode_routing(blob, spec);
    ASSERT_TRUE(replaced.has_value());
    EXPECT_EQ(blob, cas::encode_routing(pipeline::route_assignment(
                        spec, cfg, assign.assign)));
}

TEST(CasSession, CorruptedObjectsAreRecomputedNeverServed) {
    TempDir dir;
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    const SynthesisResult ref = run_synthesis(spec, cfg);

    {
        pipeline::SessionOptions so;
        so.cas = std::make_shared<cas::Store>(
            cas::StoreOptions{dir.path, 0, 60.0});
        pipeline::SynthesisSession warmup(spec, so);
        warmup.run(cfg);
    }

    // Flip the last byte of every object in the store — the payload
    // checksum must catch each one.
    std::uint64_t flipped = 0;
    {
        cas::Store census = open_store(dir.path);
        flipped = census.stats().objects;
    }
    ASSERT_GT(flipped, 0u);
    {
        DIR* d = ::opendir(dir.path.c_str());
        ASSERT_NE(d, nullptr);
        while (const dirent* e = ::readdir(d)) {
            const std::string name(e->d_name);
            if (name == "." || name == "..") continue;
            const std::string path = dir.path + "/" + name;
            std::string blob = read_file(path);
            ASSERT_FALSE(blob.empty());
            blob.back() = static_cast<char>(blob.back() ^ 0x01);
            write_file(path, blob);
        }
        ::closedir(d);
    }

    const long long corrupt_before = counter("cas.corrupt");
    pipeline::SessionOptions so;
    so.cas = std::make_shared<cas::Store>(
        cas::StoreOptions{dir.path, 0, 60.0});
    pipeline::SynthesisSession fresh(spec, so);
    const SynthesisResult got = fresh.run(cfg);
    expect_same_results(got, ref);
    EXPECT_GT(counter("cas.corrupt"), corrupt_before);
    // Nothing was served from the corrupted store...
    EXPECT_EQ(fresh.stats().partition.hits, 0);
    // ...and the recomputed artifacts replaced the debris intact.
    cas::Store verify = open_store(dir.path);
    EXPECT_EQ(verify.stats().objects, flipped);
}

// -------------------------------------------------------- multi-process

TEST(CasStore, ConcurrentProcessesShareOneDirectorySafely) {
    TempDir dir;
    constexpr int kProcs = 4;
    constexpr int kKeys = 24;
    const auto key_of = [](int i) {
        return "shared|key|" + std::to_string(i);
    };
    const auto payload_of = [](int i) {
        std::string p = "payload-" + std::to_string(i) + "-";
        p.append(static_cast<std::size_t>(200 + i),
                 static_cast<char>('a' + i % 26));
        return p;
    };

    std::vector<pid_t> pids;
    for (int p = 0; p < kProcs; ++p) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: no gtest machinery — report through the exit code.
            try {
                cas::Store store(cas::StoreOptions{dir.path, 0, 60.0});
                for (int round = 0; round < 5; ++round) {
                    for (int i = 0; i < kKeys; ++i) {
                        if ((i + round + p) % 2 == 0) {
                            if (!store.put(key_of(i), payload_of(i)))
                                ::_exit(2);
                        } else {
                            std::string got;
                            // A racing get may miss (another process is
                            // mid-rename) but must never see wrong bytes.
                            if (store.get(key_of(i), got) &&
                                got != payload_of(i))
                                ::_exit(3);
                        }
                    }
                    store.gc();
                }
            } catch (...) {
                ::_exit(4);
            }
            ::_exit(0);
        }
        pids.push_back(pid);
    }
    for (const pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }

    // Afterwards every key holds exactly its payload and no tmp debris
    // survived the concurrent writers.
    cas::Store store = open_store(dir.path);
    for (int i = 0; i < kKeys; ++i) {
        std::string got;
        ASSERT_TRUE(store.get(key_of(i), got)) << key_of(i);
        EXPECT_EQ(got, payload_of(i));
    }
    EXPECT_EQ(store.stats().tmp_files, 0u);
}

}  // namespace
}  // namespace sunfloor
