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
#include <bit>
#include <climits>
#include <cstdint>
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
#include "sunfloor/floorplan/annealer.h"
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

cas::Store open_store(const std::string& dir) {
    return cas::Store(cas::StoreOptions{dir});
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

    // Files around 64 KiB, the first read, and a 1 MiB payload load whole.
    const std::size_t overhead = 28 + std::string("some|stage|key").size();
    for (const std::size_t file_size :
         {std::size_t{65535}, std::size_t{65536}, std::size_t{65537},
          overhead + (std::size_t{1} << 20)}) {
        std::string big(file_size - overhead, '\0');
        for (std::size_t i = 0; i < big.size(); ++i)
            big[i] = static_cast<char>(i * 131 + (i >> 16));
        ASSERT_TRUE(store.put("some|stage|key", big));
        ASSERT_TRUE(store.get("some|stage|key", got)) << file_size;
        EXPECT_TRUE(got == big) << file_size;
    }

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

TEST(CasStore, HashKnownAnswers) {
    // Store format 2's hash, pinned: every object name and checksum comes
    // from it, so a change here renames every object and fails every
    // checksum of every store written before (a format bump, with a new
    // magic). The lengths cover no word, a partial word, whole words,
    // one 32-byte round of the four lanes and the remainders around it.
    const auto patterned = [](std::size_t n) {
        std::string s(n, '\0');
        for (std::size_t i = 0; i < n; ++i)
            s[i] = static_cast<char>(i * 37 + 11);
        return s;
    };
    const std::pair<std::size_t, std::uint64_t> known[] = {
        {0, 0x3a8df56493051fc6ULL},    {1, 0xd887ee8c6ebc8661ULL},
        {7, 0xc04fd60094e6a835ULL},    {8, 0xa82441de479a5ccbULL},
        {9, 0xc5e37363e33de180ULL},    {31, 0x48cc59e890e85799ULL},
        {32, 0x2d26d90fc0eea3b7ULL},   {33, 0x5b798688a20ed29cULL},
        {64, 0xd6da349f819b6338ULL},   {65, 0xe43b00f5992dabb3ULL},
        {4096, 0x705bbe479f3966b0ULL},
    };
    for (const auto& [n, h] : known)
        EXPECT_EQ(cas::hash64(patterned(n)), h) << "length " << n;
    EXPECT_EQ(cas::Store::object_name("k"), "2c6fcd0699c8140c");
}

TEST(CasStore, TruncatedObjectIsAMissAndUnlinked) {
    TempDir dir;
    cas::Store store = open_store(dir.path);
    const std::string key = "trunc-key";
    const std::string payload(500, 'x');
    const std::string path = dir.path + "/" + cas::Store::object_name(key);
    ASSERT_TRUE(store.put(key, payload));
    const std::string blob = read_file(path);

    // Cut short at each size, and once with bytes appended after the
    // payload: the header's lengths must match the file's size exactly.
    std::vector<std::string> damaged;
    for (const std::size_t keep : {std::size_t{0}, std::size_t{10},
                                   std::size_t{27}, std::size_t{200}}) {
        ASSERT_GT(blob.size(), keep);
        damaged.push_back(blob.substr(0, keep));
    }
    damaged.push_back(blob + "appended");
    for (const std::string& bytes : damaged) {
        write_file(path, bytes);

        const long long corrupt = counter("cas.corrupt");
        std::string got;
        EXPECT_FALSE(store.get(key, got)) << "size=" << bytes.size();
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

TEST(CasStore, LengthsThatWrapAreCorrupt) {
    // The header's lengths are checked against the file's size with no
    // sum that can wrap. Each file below has a key length past its end and
    // a payload length that brings the 64-bit sum of header, key and
    // payload back to the file's size; a reader that trusted the sum read
    // far past the bytes it had. Each must be a corrupt miss.
    TempDir dir;
    cas::Store store = open_store(dir.path);
    const std::string key = "wrap-key";
    const std::string path = dir.path + "/" + cas::Store::object_name(key);
    const auto object = [](std::uint32_t key_len, std::uint64_t pay_len,
                           std::string_view body) {
        cas::Enc e;
        e.raw("SFCAS002");
        e.u32(key_len);
        e.u64(pay_len);
        e.u64(cas::hash64(""));
        e.raw(body);
        return e.take();
    };
    const std::string files[] = {
        // 28 bytes: 4,096 + (2^64 - 4,096) wraps to 0 past the header.
        object(4096, 0 - std::uint64_t{4096}, ""),
        // The largest key length, the sum wrapping to the 8 bytes left.
        object(UINT32_MAX, 0 - std::uint64_t{UINT32_MAX} + 8, key),
    };
    for (const std::string& bytes : files) {
        write_file(path, bytes);
        const long long corrupt = counter("cas.corrupt");
        std::string got;
        EXPECT_FALSE(store.get(key, got)) << "size=" << bytes.size();
        EXPECT_EQ(counter("cas.corrupt"), corrupt + 1);
        EXPECT_FALSE(file_exists(path));
    }
}

TEST(CasStore, EverySingleBitFlipIsNeverServed) {
    // hash64 changes whenever one 8-byte word of its input changes, so no
    // single-bit flip of an object file is served. In the header or the
    // payload the file is corrupt: counted and unlinked. In the key echo
    // it reads as another key's intact object: a miss that leaves the
    // file, as for MisRenamedObjectIsAMissButNotDebris.
    TempDir dir;
    cas::Store store = open_store(dir.path);
    const std::string key = "bits";
    std::string payload(571, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>(i * 37 + 11);
    ASSERT_TRUE(store.put(key, payload));
    const std::string path = dir.path + "/" + cas::Store::object_name(key);
    const std::string blob = read_file(path);
    ASSERT_EQ(blob.size(), 28 + key.size() + payload.size());

    for (std::size_t bit = 0; bit < 8 * blob.size(); ++bit) {
        std::string flipped = blob;
        flipped[bit / 8] =
            static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
        write_file(path, flipped);
        const bool in_echo = bit / 8 >= 28 && bit / 8 < 28 + key.size();
        const long long corrupt = counter("cas.corrupt");
        std::string got;
        EXPECT_FALSE(store.get(key, got)) << "bit " << bit;
        EXPECT_EQ(counter("cas.corrupt"), corrupt + (in_echo ? 0 : 1))
            << "bit " << bit;
        EXPECT_EQ(file_exists(path), in_echo) << "bit " << bit;
        if (HasFailure()) return;  // one report is enough
    }
    // Put again, the object is served again.
    ASSERT_TRUE(store.put(key, payload));
    std::string got;
    ASSERT_TRUE(store.get(key, got));
    EXPECT_EQ(got, payload);
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

    const cas::GcResult r = store.gc(0);
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
    cas::Store store = open_store(dir.path);
    for (const std::string& k : keys) ASSERT_TRUE(store.put(k, payload));
    const std::uint64_t per_object = store.stats().object_bytes / keys.size();
    // Pin the recency order explicitly (mtime drives eviction): "a" oldest,
    // "d" newest.
    // lint:allow(nondet-time) back-dating file mtimes to pin GC recency
    const std::time_t now = std::time(nullptr);
    for (std::size_t i = 0; i < keys.size(); ++i)
        set_mtime(dir.path + "/" + cas::Store::object_name(keys[i]),
                  now - 1000 + static_cast<std::time_t>(100 * i));

    // Bound to two objects: the two oldest must go, newest survive.
    const long long evictions = counter("cas.evictions");
    const cas::GcResult r = store.gc(2 * per_object);
    EXPECT_EQ(r.evicted_objects, 2u);
    EXPECT_EQ(r.evicted_bytes, 2 * per_object);
    EXPECT_EQ(counter("cas.evictions"), evictions + 2);
    EXPECT_FALSE(has_object(dir.path, "a"));
    EXPECT_FALSE(has_object(dir.path, "b"));
    EXPECT_TRUE(has_object(dir.path, "c"));
    EXPECT_TRUE(has_object(dir.path, "d"));
    // Already under the bound: a second gc is a no-op.
    EXPECT_EQ(store.gc(2 * per_object).evicted_objects, 0u);
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

    ASSERT_EQ(store.gc(store.stats().object_bytes / 2).evicted_objects, 1u);
    EXPECT_TRUE(has_object(dir.path, "old"));
    EXPECT_FALSE(has_object(dir.path, "new"));
}

// ----------------------------------------------------------------- codec

TEST(CasCodec, ArtifactsRoundTripBitExactly) {
    const DesignSpec spec = make_benchmark("D_36_4");
    SynthesisConfig cfg = fast_cfg();
    cfg.run_floorplan = true;  // exercise the die-area vector too
    cfg.max_switches = 8;  // the first PG cut from the seed's state that routes

    pipeline::SynthesisSession session(spec);
    const RngState rng_in = Rng(cfg.seed).state();
    // Find a switch count whose assignment routes (the sweep's job); the
    // codec must handle whichever artifacts fall out.
    std::shared_ptr<const pipeline::PartitionArtifact> part;
    std::shared_ptr<const pipeline::RoutingArtifact> routed_holder;
    for (int k = 2; k <= cfg.max_switches && !routed_holder; ++k) {
        part = session.partition(pipeline::PartitionGraphId::pg(), k, cfg,
                                 PartitionOptions{}, rng_in);
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
        const auto back =
            cas::decode_partition(blob, part->k, spec.cores.num_cores());
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
        EXPECT_TRUE(back->topo->same_content(*placed.topo));
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

/// Bytes from a hex string ("0a ff" style, spaces ignored).
std::string from_hex(std::string_view hex) {
    std::string out;
    int hi = -1;
    for (const char c : hex) {
        if (c == ' ') continue;
        const int v = c <= '9' ? c - '0' : c - 'a' + 10;
        if (hi < 0) {
            hi = v;
        } else {
            out.push_back(static_cast<char>(hi * 16 + v));
            hi = -1;
        }
    }
    return out;
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(CasCodec, ByteLayoutIsPinned) {
    // Enc and Dec move words and arrays with memcpy; the layout they
    // write is the little-endian one stage keys, CAS objects and the
    // shard wire were pinned with, whatever the host.
    const double nan_payload = std::bit_cast<double>(0x7ff4000000000abcULL);
    const int ints[] = {1, -2, INT_MAX};
    const double doubles[] = {0.5, -3.25};
    cas::Enc e;
    e.u8(0xab);
    e.u32(0x01020304u);
    e.u64(0x0102030405060708ULL);
    e.i32(-1);
    e.i32(INT_MIN);
    e.f64(-0.0);
    e.f64(1.0);
    e.f64(nan_payload);
    e.str("hi");
    e.str("");
    e.ints(ints);
    e.ints({});
    e.doubles(doubles);
    e.doubles({});
    const std::string want = from_hex(
        "ab"                                             // u8
        "04030201"                                       // u32
        "0807060504030201"                               // u64
        "ffffffff"                                       // i32 -1
        "00000080"                                       // i32 INT_MIN
        "0000000000000080"                               // f64 -0.0
        "000000000000f03f"                               // f64 1.0
        "bc0a00000000f47f"                               // f64 NaN payload
        "02000000 6869"                                  // str "hi"
        "00000000"                                       // str ""
        "03000000 01000000 feffffff ffffff7f"            // ints
        "00000000"                                       // ints {}
        "02000000 000000000000e03f 0000000000000ac0"     // doubles
        "00000000");                                     // doubles {}
    const std::string got = e.take();
    ASSERT_EQ(got, want);

    cas::Dec d(got);
    EXPECT_EQ(d.u8(), 0xab);
    EXPECT_EQ(d.u32(), 0x01020304u);
    EXPECT_EQ(d.u64(), 0x0102030405060708ULL);
    EXPECT_EQ(d.i32(), -1);
    EXPECT_EQ(d.i32(), INT_MIN);
    EXPECT_EQ(bits_of(d.f64()), bits_of(-0.0));
    EXPECT_EQ(bits_of(d.f64()), bits_of(1.0));
    EXPECT_EQ(bits_of(d.f64()), 0x7ff4000000000abcULL);
    EXPECT_EQ(d.str(), "hi");
    EXPECT_EQ(d.str(), "");
    EXPECT_EQ(d.ints(), std::vector<int>(std::begin(ints), std::end(ints)));
    EXPECT_TRUE(d.ints().empty());
    const std::vector<double> back = d.doubles();
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(bits_of(back[0]), bits_of(0.5));
    EXPECT_EQ(bits_of(back[1]), bits_of(-3.25));
    EXPECT_TRUE(d.doubles().empty());
    EXPECT_TRUE(d.done());

    // A length prefix larger than the bytes left poisons the decoder and
    // sizes nothing: the arrays come back without storage.
    const std::string huge = from_hex("ffffff7f 010203");
    {
        cas::Dec s(huge);
        EXPECT_TRUE(s.str().empty());
        EXPECT_FALSE(s.ok());
    }
    {
        cas::Dec s(huge);
        std::vector<int> reused;
        s.ints(reused);
        EXPECT_FALSE(s.ok());
        EXPECT_EQ(reused.capacity(), 0u);
    }
    {
        cas::Dec s(huge);
        EXPECT_EQ(s.doubles().capacity(), 0u);
        EXPECT_FALSE(s.ok());
    }
    {
        // Two ints announced, one present.
        const std::string short_ints = from_hex("02000000 01000000");
        cas::Dec s(short_ints);
        EXPECT_EQ(s.ints().capacity(), 0u);
        EXPECT_FALSE(s.ok());
    }
}

TEST(CasCodec, MalformedBlobsDecodeToNullopt) {
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    pipeline::SynthesisSession session(spec);
    const auto part =
        session.partition(pipeline::PartitionGraphId::pg(), 4, cfg,
                          PartitionOptions{}, Rng(cfg.seed).state());
    const CoreAssignment assign =
        pipeline::phase1_assignment(*part, spec.cores);
    const pipeline::RoutingArtifact routed =
        pipeline::route_assignment(spec, cfg, assign);
    const pipeline::EvaluatedDesign evaluated(
        pipeline::evaluate_design(pipeline::PlacementArtifact(routed.topo),
                                  spec, cfg));
    const int n = spec.cores.num_cores();

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
            EXPECT_FALSE(cas::decode_partition(t, part->k, n).has_value());
            EXPECT_FALSE(cas::decode_routing(t, spec).has_value());
            EXPECT_FALSE(cas::decode_placement(t, spec).has_value());
            EXPECT_FALSE(cas::decode_evaluation(t, spec).has_value());
        }
        const std::string noisy = blob + "x";
        EXPECT_FALSE(cas::decode_partition(noisy, part->k, n).has_value());
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
    so.cas = std::make_shared<cas::Store>(cas::StoreOptions{dir.path});
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
        so.cas = std::make_shared<cas::Store>(cas::StoreOptions{dir.path});
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
    so.cas = std::make_shared<cas::Store>(cas::StoreOptions{dir.path});
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

/// The store address a session of `spec` files `key` under: the spec
/// prefix (fnv1a64 of cas::enc_spec's bytes), then the key's bytes.
template <typename Key>
std::string address_of(const DesignSpec& spec, const Key& key) {
    cas::Enc spec_bytes;
    cas::enc_spec(spec_bytes, spec);
    cas::Enc e;
    e.u64(cas::fnv1a64(spec_bytes.view()));
    key.encode(e);
    return e.take();
}

/// The 8-byte spec prefix every address starts with.
constexpr std::size_t kSpecPrefix = 8;

TEST(CasSession, PlacementsOfAnotherSolverAreNeverServed) {
    // A store written by a build whose position solver picked other
    // optima holds placements under that solver's tag. Plant such
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
        so.cas = std::make_shared<cas::Store>(cas::StoreOptions{cold_dir.path});
        pipeline::SynthesisSession warmup(spec, so);
        expect_same_results(warmup.run(cfg), ref);
    }

    cas::Store cold = open_store(cold_dir.path);
    cas::Store old = open_store(old_dir.path);
    // A placement key starts with its stage tag and the solver tag.
    const auto tags = [](std::string_view solver) {
        cas::Enc e;
        e.u8(cas::kTagPlacement);
        e.str(solver);
        return e.take();
    };
    const std::string tagged = tags(kPlacementSolverTag);
    const std::string other = tags("another-solver");
    int planted = 0;
    for (const std::string& key : object_keys(cold_dir.path)) {
        std::string payload;
        ASSERT_TRUE(cold.get(key, payload));
        if (key.compare(kSpecPrefix, tagged.size(), tagged) != 0) {
            ASSERT_TRUE(old.put(key, payload));
            continue;
        }
        auto placed = cas::decode_placement(payload, spec);
        ASSERT_TRUE(placed.has_value());
        Topology moved = *placed->topo;
        for (int s = 0; s < moved.num_switches(); ++s)
            moved.switch_at(s).position.x += 1.0;
        placed->topo = SharedTopology(std::move(moved));
        const std::string old_key = key.substr(0, kSpecPrefix) + other +
                                    key.substr(kSpecPrefix + tagged.size());
        ASSERT_TRUE(old.put(old_key, cas::encode_placement(*placed)));
        ++planted;
    }
    ASSERT_GT(planted, 0);

    pipeline::SessionOptions so;
    so.cas = std::make_shared<cas::Store>(cas::StoreOptions{old_dir.path});
    pipeline::SynthesisSession fresh(spec, so);
    expect_same_results(fresh.run(cfg), ref);
    const pipeline::SessionStats st = fresh.stats();
    EXPECT_EQ(st.placement.hits, 0);
    EXPECT_EQ(st.placement.misses, planted);
    EXPECT_GT(st.partition.hits, 0);
    EXPECT_GT(st.routing.hits, 0);
}

TEST(CasSession, StageKeyBytesArePinned) {
    // An object's name is the hash64 of its address — the spec prefix
    // and the stage key's codec bytes — so a byte moved in any stage key
    // orphans every store written before it. This fixed synthesis must
    // write exactly the objects it wrote when the store moved to format 2
    // (the same addresses as when the evaluation model became two inputs,
    // named by hash64 instead of fnv1a64): the count and a hash of the
    // sorted object names must only change with a stated reason, like a
    // CAS format bump.
    TempDir dir;
    const DesignSpec spec = make_benchmark("D_26_media");
    SynthesisConfig cfg;
    cfg.run_floorplan = false;
    pipeline::SessionOptions so;
    so.cas = std::make_shared<cas::Store>(cas::StoreOptions{dir.path});
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
    EXPECT_EQ(cas::fnv1a64(joined), 0x026c8b4b4649a9dcULL);
}

TEST(CasSession, SpecsThatPrintAlikeShareNoObjects) {
    // write_design prints coordinates through %.6g, so two specs whose
    // cores sit a billionth apart print alike though their designs
    // differ. An address names its spec by the bits of cas::enc_spec, so
    // a run of one spec reads no object a run of the other wrote, and
    // returns exactly what it returns without a store. Spec A is
    // D_26_media with the placement `--benchmark` anneals; spec B is A
    // with every core's x scaled by 1 + 1e-9.
    DesignSpec a = make_benchmark("D_26_media");
    AnnealOptions fopts;
    fopts.wirelength_weight = 5e-4;
    Rng rng(42);
    floorplan_design_layers(a.cores, a.comm, fopts, rng);
    DesignSpec b = a;
    for (int c = 0; c < b.cores.num_cores(); ++c)
        b.cores.core(c).position.x *= 1 + 1e-9;
    std::ostringstream text_a;
    std::ostringstream text_b;
    write_design(text_a, a);
    write_design(text_b, b);
    ASSERT_EQ(text_a.str(), text_b.str());

    SynthesisConfig cfg;
    cfg.run_floorplan = false;
    TempDir dir;
    {
        pipeline::SessionOptions so;
        so.cas = std::make_shared<cas::Store>(cas::StoreOptions{dir.path});
        pipeline::SynthesisSession fill(a, so);
        fill.run(cfg);
        ASSERT_GT(so.cas->stats().objects, 0u);
    }
    // The number of designs of `x` whose blobs differ from `y`'s.
    const auto differing = [](const SynthesisResult& x,
                              const SynthesisResult& y) {
        EXPECT_EQ(x.points.size(), y.points.size());
        std::size_t n = 0;
        for (std::size_t i = 0; i < x.points.size() && i < y.points.size();
             ++i)
            n += cas::encode_evaluation(
                     pipeline::EvaluatedDesign(x.points[i])) !=
                 cas::encode_evaluation(
                     pipeline::EvaluatedDesign(y.points[i]));
        return n;
    };
    const SynthesisResult ref = run_synthesis(b, cfg);
    ASSERT_GT(differing(run_synthesis(a, cfg), ref), 0u);

    pipeline::SessionOptions so;
    so.cas = std::make_shared<cas::Store>(cas::StoreOptions{dir.path});
    const long long hits_before = counter("cas.hits");
    pipeline::SynthesisSession session(b, so);
    const SynthesisResult got = session.run(cfg);
    EXPECT_EQ(counter("cas.hits"), hits_before);
    EXPECT_EQ(got.phase_used, ref.phase_used);
    const std::size_t differ = differing(got, ref);
    EXPECT_EQ(differ, 0u) << differ << " of " << ref.points.size()
                          << " designs differ from the run without a store";
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
    // (one) cut from the seed's generator state.
    pipeline::SynthesisSession probe(spec);
    const auto part = probe.partition(pipeline::PartitionGraphId::pg(), 1,
                                      cfg, PartitionOptions{},
                                      Rng(cfg.seed).state());
    const CoreAssignment assign =
        pipeline::phase1_assignment(*part, spec.cores);
    const pipeline::RunKeys keys(cfg);
    const std::string key =
        address_of(spec, pipeline::RoutingProbe{assign, keys.routing});
    cas::Store store = open_store(dir.path);
    ASSERT_TRUE(store.put(key, cas::encode_partition(*part)));

    const long long undecodable_before = counter("cas.undecodable");
    pipeline::SessionOptions so;
    so.cas = std::make_shared<cas::Store>(cas::StoreOptions{dir.path});
    pipeline::SynthesisSession session(spec, so);
    expect_same_results(session.run(cfg), ref);
    EXPECT_EQ(counter("cas.undecodable") - undecodable_before, 1);

    std::string blob;
    ASSERT_TRUE(store.get(key, blob));
    const auto replaced = cas::decode_routing(blob, spec);
    ASSERT_TRUE(replaced.has_value());
    EXPECT_EQ(blob, cas::encode_routing(pipeline::route_assignment(
                        spec, cfg, assign)));
}

/// Walk phase 1's PG sweep stage by stage, as SynthesisSession::phase1
/// does, and check that every evaluated design shares its placement
/// artifact's topology object. Returns the designs checked.
int expect_evaluations_share_placed_topology(
    pipeline::SynthesisSession& session, const DesignSpec& spec,
    const SynthesisConfig& cfg) {
    int checked = 0;
    RngState rng = Rng(cfg.seed).state();
    const int hi = std::min(cfg.max_switches, spec.cores.num_cores());
    for (int k = 1; k <= hi; ++k) {
        const auto part = session.partition(pipeline::PartitionGraphId::pg(),
                                            k, cfg, PartitionOptions{}, rng);
        rng = part->rng_after;
        const auto routed = session.route(part->assign, cfg);
        if (!routed->ok) continue;
        const auto placed = session.place(routed, cfg);
        const auto evaluated = session.evaluate(placed, cfg);
        EXPECT_EQ(&*evaluated->point.topo, &*placed->topo) << "k=" << k;
        ++checked;
    }
    return checked;
}

TEST(CasSession, StoreServedEvaluationsShareThePlacedTopology) {
    // A computed evaluation shares its placement's topology object; one
    // served from the store shares it too (the placed topology its key
    // holds), so a store-served design holds the same two topologies,
    // routed and placed, as a memory-served one.
    TempDir dir;
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    {
        pipeline::SynthesisSession memory(spec);
        EXPECT_GT(expect_evaluations_share_placed_topology(memory, spec, cfg),
                  0);
        pipeline::SessionOptions so;
        so.cas = std::make_shared<cas::Store>(cas::StoreOptions{dir.path});
        pipeline::SynthesisSession warmup(spec, so);
        warmup.run(cfg);
    }
    pipeline::SessionOptions so;
    so.cas = std::make_shared<cas::Store>(cas::StoreOptions{dir.path});
    const long long undecodable_before = counter("cas.undecodable");
    pipeline::SynthesisSession fresh(spec, so);
    EXPECT_GT(expect_evaluations_share_placed_topology(fresh, spec, cfg), 0);
    const pipeline::SessionStats st = fresh.stats();
    EXPECT_GT(st.evaluation.hits, 0);
    EXPECT_EQ(st.evaluation.misses, 0);
    EXPECT_EQ(st.placement.misses, 0);
    EXPECT_EQ(counter("cas.undecodable"), undecodable_before);
}

/// Where flow `flow`'s path (its u32 length) starts in enc_topology's
/// bytes of `t`: cores (20 bytes each), switches (name, layer, position),
/// links (19 bytes each), then one length-prefixed id list per flow.
std::size_t flow_path_offset(const Topology& t, int flow) {
    std::size_t at = 4 + 20 * static_cast<std::size_t>(t.num_cores()) + 4;
    for (int sw = 0; sw < t.num_switches(); ++sw)
        at += 4 + t.switch_at(sw).name.size() + 20;
    at += 4 + 19 * static_cast<std::size_t>(t.num_links()) + 4;
    for (int f = 0; f < flow; ++f) at += 4 + 4 * t.flow_path(f).size();
    return at;
}

TEST(CasSession, EvaluationsOfAnotherTopologyAreUndecodable) {
    // An evaluation object is filed under its placed topology's bytes,
    // and a store-served design shares the placed topology its key
    // holds. One whose checksum and key echo hold but whose
    // topology section is another topology (one switch moved, or one
    // flow-path hop moved to a parallel link, which still decodes as a
    // valid topology) is undecodable: counted once, recomputed and
    // replaced, and the results, topologies included, equal a run
    // without a store.
    TempDir cold_dir;
    const DesignSpec spec = make_benchmark("D_36_4");
    SynthesisConfig cfg = fast_cfg();
    // Up to ten switches the theta sweep evaluates a design that routes a
    // flow over a link with a parallel twin.
    cfg.max_switches = 10;
    const SynthesisResult ref = run_synthesis(spec, cfg);
    {
        pipeline::SessionOptions so;
        so.cas = std::make_shared<cas::Store>(cas::StoreOptions{cold_dir.path});
        pipeline::SynthesisSession warmup(spec, so);
        warmup.run(cfg);
    }
    cas::Store cold = open_store(cold_dir.path);

    // One edit per case: the evaluation key it applies to and its bytes.
    struct Edit {
        const char* what;
        std::string key;
        std::string original;
        std::string edited;
    };
    std::vector<Edit> edits;
    for (const std::string& key : object_keys(cold_dir.path)) {
        if (key[kSpecPrefix] != static_cast<char>(cas::kTagEvaluation))
            continue;
        std::string payload;
        ASSERT_TRUE(cold.get(key, payload));
        const auto ev = cas::decode_evaluation(payload, spec);
        ASSERT_TRUE(ev.has_value());
        const Topology& t = ev->point.topo;
        // The topology section follows the tag, the phase string, the
        // switch count and theta.
        const std::size_t topo_at = 1 + 4 + ev->point.phase.size() + 4 + 8;
        if (edits.empty() && t.num_switches() > 0) {
            pipeline::EvaluatedDesign moved = *ev;
            Topology m = t;
            m.switch_at(0).position.x += 1.0;
            moved.point.topo = SharedTopology(std::move(m));
            edits.push_back({"switch moved", key, payload,
                             cas::encode_evaluation(moved)});
        }
        if (edits.size() != 1) continue;
        // A hop whose link has a parallel twin (same ends, same class):
        // pointing the path at the twin keeps it a valid path.
        for (int f = 0; f < t.num_flows() && edits.size() == 1; ++f) {
            const std::span<const int> path = t.flow_path(f);
            for (std::size_t h = 0; h < path.size() && edits.size() == 1; ++h) {
                const NocLink& lk = t.link(path[h]);
                for (int o = 0; o < t.num_links(); ++o) {
                    const NocLink& twin = t.link(o);
                    if (o == path[h] || !(twin.src == lk.src) ||
                        !(twin.dst == lk.dst) || twin.cls != lk.cls)
                        continue;
                    cas::Enc id;
                    id.i32(o);
                    std::string edited = payload;
                    edited.replace(topo_at + flow_path_offset(t, f) + 4 + 4 * h,
                                   4, id.take());
                    edits.push_back({"flow hop on a parallel link", key,
                                     payload, std::move(edited)});
                    break;
                }
            }
        }
    }
    ASSERT_EQ(edits.size(), 2u) << "no evaluated design routes a flow over "
                                   "a link with a parallel twin";

    for (const Edit& edit : edits) {
        SCOPED_TRACE(edit.what);
        // Without the placed topology the edited bytes decode as a valid
        // design of another topology: serving them would be silent.
        const auto original = cas::decode_evaluation(edit.original, spec);
        const auto altered = cas::decode_evaluation(edit.edited, spec);
        ASSERT_TRUE(altered.has_value());
        EXPECT_FALSE(altered->point.topo->same_content(original->point.topo));
        EXPECT_FALSE(
            cas::decode_evaluation(edit.edited, spec, &original->point.topo)
                .has_value());

        // A store holding every cold object, the edited one in place of
        // its original, written through put so its checksum holds.
        TempDir dir;
        cas::Store store = open_store(dir.path);
        for (const std::string& key : object_keys(cold_dir.path)) {
            std::string payload;
            ASSERT_TRUE(cold.get(key, payload));
            ASSERT_TRUE(
                store.put(key, key == edit.key ? edit.edited : payload));
        }
        const long long undecodable_before = counter("cas.undecodable");
        pipeline::SessionOptions so;
        so.cas = std::make_shared<cas::Store>(cas::StoreOptions{dir.path});
        pipeline::SynthesisSession session(spec, so);
        const SynthesisResult got = session.run(cfg);
        expect_same_results(got, ref);
        for (std::size_t i = 0; i < got.points.size() && i < ref.points.size();
             ++i)
            EXPECT_TRUE(got.points[i].topo->same_content(ref.points[i].topo))
                << "point " << i;
        EXPECT_EQ(counter("cas.undecodable") - undecodable_before, 1);
        EXPECT_EQ(session.stats().evaluation.misses, 1);

        std::string replaced;
        ASSERT_TRUE(store.get(edit.key, replaced));
        EXPECT_EQ(replaced, edit.original);
    }
}

TEST(CasSession, PartitionsThatDoNotFitTheCallAreUndecodable) {
    // A partition object whose checksum and key echo hold but whose cut
    // does not fit the call — another k, a block vector of another
    // length, an entry outside [0, k) — would have phase 1 or phase 2
    // index their switch and core tables out of range. Each is undecodable: the
    // session counts it once, recomputes the cut and replaces the object,
    // and the results equal a run without a store. Phase 1 reads a PG
    // cut (here k = 3), phase 2 the first cut of layer 0's LPG.
    const DesignSpec spec = make_benchmark("D_26_media");
    ASSERT_GT(spec.cores.num_layers(), 1);
    const SynthesisConfig cfg = fast_cfg();

    pipeline::SynthesisSession probe(spec);
    RngState rng = Rng(cfg.seed).state();
    pipeline::PartitionKey pg_key;
    std::shared_ptr<const pipeline::PartitionArtifact> pg;
    for (int k = 1; k <= 3; ++k) {
        pg_key = {pipeline::PartitionGraphId::pg(), cfg.alpha,
                  PartitionOptions{}, k, rng};
        pg = probe.partition(pg_key.graph, k, cfg, PartitionOptions{}, rng);
        rng = pg->rng_after;
    }
    // Phase 2's first cut, sized as SynthesisSession::phase2 sizes it.
    const int max_block =
        std::max(1, NocLibrary::max_switch_size(cfg.eval.freq_hz) - 2);
    const int layer0 = static_cast<int>(spec.cores.cores_in_layer(0).size());
    const int np = (layer0 + max_block - 1) / max_block;
    PartitionOptions popts;
    popts.max_block_size = std::min(max_block, (layer0 + np - 1) / np);
    const pipeline::PartitionKey lpg_key{pipeline::PartitionGraphId::lpg(0),
                                         cfg.alpha, popts, np,
                                         Rng(cfg.seed).state()};
    const auto lpg = probe.partition(lpg_key.graph, np, cfg, popts,
                                     lpg_key.rng);

    using Edit = void (*)(pipeline::PartitionArtifact&);
    const struct {
        const char* what;
        SynthesisPhase phase;
        const pipeline::PartitionKey* key;
        const pipeline::PartitionArtifact* good;
        Edit edit;
    } cases[] = {
        {"pg k+1", SynthesisPhase::Phase1, &pg_key, pg.get(),
         [](pipeline::PartitionArtifact& a) { ++a.k; }},
        {"pg one entry short", SynthesisPhase::Phase1, &pg_key, pg.get(),
         [](pipeline::PartitionArtifact& a) { a.block.pop_back(); }},
        {"pg one entry long", SynthesisPhase::Phase1, &pg_key, pg.get(),
         [](pipeline::PartitionArtifact& a) { a.block.push_back(0); }},
        {"pg entry 1000000", SynthesisPhase::Phase1, &pg_key, pg.get(),
         [](pipeline::PartitionArtifact& a) { a.block[0] = 1000000; }},
        {"pg entry k", SynthesisPhase::Phase1, &pg_key, pg.get(),
         [](pipeline::PartitionArtifact& a) { a.block[0] = a.k; }},
        {"pg entry -1", SynthesisPhase::Phase1, &pg_key, pg.get(),
         [](pipeline::PartitionArtifact& a) { a.block[0] = -1; }},
        {"lpg k+1", SynthesisPhase::Phase2, &lpg_key, lpg.get(),
         [](pipeline::PartitionArtifact& a) { ++a.k; }},
        {"lpg one entry short", SynthesisPhase::Phase2, &lpg_key, lpg.get(),
         [](pipeline::PartitionArtifact& a) { a.block.pop_back(); }},
        {"lpg entry k", SynthesisPhase::Phase2, &lpg_key, lpg.get(),
         [](pipeline::PartitionArtifact& a) { a.block[0] = a.k; }},
    };
    const SynthesisResult ref1 =
        run_synthesis(spec, cfg, SynthesisPhase::Phase1);
    const SynthesisResult ref2 =
        run_synthesis(spec, cfg, SynthesisPhase::Phase2);
    for (const auto& c : cases) {
        SCOPED_TRACE(c.what);
        TempDir dir;
        const std::string key = address_of(spec, *c.key);
        pipeline::PartitionArtifact bad = *c.good;
        c.edit(bad);
        cas::Store store = open_store(dir.path);
        ASSERT_TRUE(store.put(key, cas::encode_partition(bad)));

        const long long undecodable_before = counter("cas.undecodable");
        pipeline::SessionOptions so;
        so.cas = std::make_shared<cas::Store>(cas::StoreOptions{dir.path});
        pipeline::SynthesisSession session(spec, so);
        expect_same_results(session.run(cfg, c.phase),
                            c.phase == SynthesisPhase::Phase1 ? ref1 : ref2);
        EXPECT_EQ(counter("cas.undecodable") - undecodable_before, 1);

        std::string blob;
        ASSERT_TRUE(store.get(key, blob));
        EXPECT_EQ(blob, cas::encode_partition(*c.good));
    }
}

TEST(CasSession, CorruptedObjectsAreRecomputedNeverServed) {
    TempDir dir;
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    const SynthesisResult ref = run_synthesis(spec, cfg);

    {
        pipeline::SessionOptions so;
        so.cas = std::make_shared<cas::Store>(cas::StoreOptions{dir.path});
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
    so.cas = std::make_shared<cas::Store>(cas::StoreOptions{dir.path});
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
                cas::Store store(cas::StoreOptions{dir.path});
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
                    store.gc(0);
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
