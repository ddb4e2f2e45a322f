// Seeded mutation fuzzing of the decoders that read untrusted bytes off a
// content-addressed store, the shard wire or the daemon's socket:
// cas::decode_partition, decode_routing, decode_placement and
// decode_evaluation (with and without the placed topology a stage key
// holds), dist::decode_shard_request and decode_shard_response, the frame
// parsers parse_worker_frame and parse_response_frame, the daemon's
// request decoder service::parse_request (parse_json) with the spec
// parser behind it (service::build_job_request), the spec parser
// parse_design on its own, and cas::Store::get on the object files it
// reads.
//
// Every seed is a real encoding: a PG and an LPG partition, a routed and a
// failed routing artifact, a placement with the floorplan on, an
// evaluation, one shard request and one shard response payload, and each
// payload again as a complete frame; for the daemon, a synth and an
// explore submit frame (every config field set, D_26_media's spec text),
// a status and a result frame; for the spec parser, write_design's text
// of the seven paper specs; for the store, a routing and an evaluation
// object file as Store::put writes them. A mutant applies one or two of: a
// bit flip, a byte overwrite, a truncation, a byte insertion or deletion,
// or a 4-byte window (at any offset, so every field's alignment is
// covered) set to 0, 1, INT_MAX or 0xffffffff. Mutants equal to their
// seed are skipped. The contract checked on each one:
//
//   * a decoder returns nullopt/false, or a value that re-encodes without
//     throwing; nothing throws out of a decoder (the ASan+UBSan CI job
//     runs this suite, so "no crash" includes memory and UB errors);
//   * no allocation made while a decoder runs exceeds a bound
//     proportional to its input (this file replaces operator new to check
//     it), so no untrusted count sizes one;
//   * decode_evaluation given the placed topology accepts only mutants
//     whose topology section is the original's byte for byte, and the
//     design it returns shares that topology;
//   * a daemon request parses or fails with a non-empty error, and so
//     does an accepted submit's spec text; an accepted submit, rendered
//     with make_submit_frame and parsed again, renders to the same bytes;
//   * a spec text parses or fails with an error that names its line; an
//     accepted spec, written with write_design and parsed again, writes
//     the same bytes;
//   * Store::get on an object file misses or returns exactly the payload
//     put.
//
// The generator is the in-repo Rng with fixed seeds and a fixed count per
// seed blob, so every run makes the same mutants.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sunfloor/cas/bincode.h"
#include "sunfloor/cas/codec.h"
#include "sunfloor/cas/store.h"
#include "sunfloor/dist/protocol.h"
#include "sunfloor/dist/shard.h"
#include "sunfloor/pipeline/session.h"
#include "sunfloor/service/protocol.h"
#include "sunfloor/spec/benchmarks.h"
#include "sunfloor/util/rng.h"

namespace {

/// While a decoder runs, the largest allocation it may make (0: no
/// bound), and whether one asked for more. The suite is single-threaded.
std::size_t g_alloc_cap = 0;
bool g_alloc_over = false;

}  // namespace

// An allocation over the bound is recorded and refused, so a decoder that
// sizes storage by an untrusted count fails the suite instead of the host.
// Not inlined: GCC would pair an inlined new with the free() below and
// warn -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
    if (g_alloc_cap != 0 && n > g_alloc_cap) {
        g_alloc_over = true;
        throw std::bad_alloc();
    }
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
// The array forms forward to these by default.

namespace sunfloor {
namespace {

/// Mutants per seed blob.
constexpr int kMutantsPerSeed = 600;

/// Runs `decode` with allocations bounded by a multiple of the input's
/// size; fails the test when it throws or asks for more.
template <typename F>
void bounded(std::string_view what, std::size_t input_bytes, F&& decode) {
    g_alloc_over = false;
    g_alloc_cap = 16 * (input_bytes + 4096);
    try {
        decode();
    } catch (const std::exception& e) {
        ADD_FAILURE() << what << " threw: " << e.what();
    } catch (...) {
        ADD_FAILURE() << what << " threw a non-std exception";
    }
    g_alloc_cap = 0;
    EXPECT_FALSE(g_alloc_over)
        << what << " allocated more than " << 16 * (input_bytes + 4096)
        << " bytes for a " << input_bytes << "-byte input";
}

/// One mutation of `m` in place.
void mutate_once(std::string& m, Rng& rng) {
    const auto at = [&](std::size_t n) {
        return static_cast<std::size_t>(rng.next_below(n));
    };
    switch (rng.next_below(6)) {
        case 0:  // bit flip
            if (!m.empty())
                m[at(m.size())] ^= static_cast<char>(1u << rng.next_below(8));
            break;
        case 1:  // byte overwrite
            if (!m.empty())
                m[at(m.size())] = static_cast<char>(rng.next_below(256));
            break;
        case 2:  // truncation
            if (!m.empty()) m.resize(at(m.size()));
            break;
        case 3: {  // insertion of 1-8 bytes
            std::string bytes(1 + at(8), '\0');
            for (char& c : bytes) c = static_cast<char>(rng.next_below(256));
            m.insert(at(m.size() + 1), bytes);
            break;
        }
        case 4:  // deletion of 1-8 bytes
            if (!m.empty()) m.erase(at(m.size()), 1 + at(8));
            break;
        default: {  // a 4-byte window set to a boundary value
            if (m.size() < 4) break;
            static constexpr std::uint32_t kValues[] = {
                0, 1, static_cast<std::uint32_t>(INT_MAX), 0xffffffffu};
            cas::Enc e;
            e.u32(kValues[rng.next_below(4)]);
            m.replace(at(m.size() - 3), 4, e.take());
            break;
        }
    }
}

/// The mutants of `seed` for one generator seed: one or two mutations
/// each, never the seed itself.
std::vector<std::string> mutants(const std::string& seed,
                                 std::uint64_t rng_seed,
                                 int count = kMutantsPerSeed) {
    Rng rng(rng_seed);
    std::vector<std::string> out;
    while (out.size() < static_cast<std::size_t>(count)) {
        std::string m = seed;
        mutate_once(m, rng);
        if (rng.next_bool(0.25)) mutate_once(m, rng);
        if (m != seed) out.push_back(std::move(m));
    }
    return out;
}

/// Where an evaluation blob's topology section starts: after the tag, the
/// phase string, the switch count and theta. nullopt when the blob is
/// too short to say.
std::optional<std::size_t> evaluation_topology_at(std::string_view blob) {
    cas::Dec d(blob);
    d.u8();
    const std::string phase = d.str();
    d.i32();
    d.f64();
    if (!d.ok()) return std::nullopt;
    return 1 + 4 + phase.size() + 4 + 8;
}

/// Real encodings of every artifact kind and both shard payloads, built
/// once from D_36_4.
struct Seeds {
    DesignSpec spec = make_benchmark("D_36_4");
    int pg_k = 4;
    int lpg_k = 2;
    int lpg_vertices = 0;
    std::string pg, lpg, routed, failed, placement, evaluation;
    /// The evaluation's placed topology, and where the evaluation blob
    /// holds its bytes.
    std::optional<SharedTopology> placed;
    std::string placed_bytes;
    std::size_t placed_at = 0;
    std::string request, response, request_frame, response_frame;

    Seeds() {
        SynthesisConfig cfg;
        cfg.run_floorplan = false;
        // Cut from the seed's state, the PG routes first at eight switches.
        cfg.max_switches = 8;
        pipeline::SynthesisSession session(spec);
        const RngState rng = Rng(cfg.seed).state();
        pg = cas::encode_partition(
            *session.partition(pipeline::PartitionGraphId::pg(), pg_k, cfg,
                               PartitionOptions{}, rng));

        lpg_vertices = static_cast<int>(spec.cores.cores_in_layer(0).size());
        PartitionOptions popts;
        popts.max_block_size = (lpg_vertices + lpg_k - 1) / lpg_k;
        lpg = cas::encode_partition(*session.partition(
            pipeline::PartitionGraphId::lpg(0), lpg_k, cfg, popts, rng));

        std::shared_ptr<const pipeline::RoutingArtifact> ok_route;
        for (int k = 1; k <= cfg.max_switches; ++k) {
            const auto part =
                session.partition(pipeline::PartitionGraphId::pg(), k, cfg,
                                  PartitionOptions{}, rng);
            const auto r = session.route(part->assign, cfg);
            if (r->ok && !ok_route) ok_route = r;
            if (!r->ok && failed.empty()) failed = cas::encode_routing(*r);
        }
        if (!ok_route || failed.empty()) return;
        routed = cas::encode_routing(*ok_route);

        SynthesisConfig fp_cfg = cfg;
        fp_cfg.run_floorplan = true;
        const auto placed_art = session.place(ok_route, fp_cfg);
        placement = cas::encode_placement(*placed_art);
        const auto evaluated = session.evaluate(placed_art, fp_cfg);
        evaluation = cas::encode_evaluation(*evaluated);
        placed = evaluated->point.topo;
        // The topology section: a placement blob without die areas is the
        // tag, the topology and an empty array's count.
        const std::string bare = cas::encode_placement(
            pipeline::PlacementArtifact(*placed_art->topo));
        placed_bytes = bare.substr(1, bare.size() - 1 - 4);
        placed_at = *evaluation_topology_at(evaluation);

        dist::ShardRequest req;
        req.run_id = 0x5eed5eed5eed5eedULL;  // mutants reach a live id
        req.spec = spec;
        req.base_cfg = cfg;
        req.base_cfg.max_switches = 3;
        req.opts.num_threads = 1;
        req.opts.backend = EvalBackend::Simulated;
        req.opts.sim.warmup_cycles = 100;
        req.opts.sim.measure_cycles = 500;
        req.opts.sim.inject.packet_length_flits = 2;
        ParamGrid grid;
        grid.set_axis(ParamAxis::max_tsvs({25}));
        grid.set_axis(ParamAxis::thetas({4.0}));
        req.points = grid.enumerate();
        req.cas_dir = "/var/cache/sunfloor";
        request = dist::encode_shard_request(req);
        request_frame = dist::make_shard_run_frame(req);
        // The response is the same with or without a store; running
        // without one keeps the test from writing to that directory.
        req.cas_dir.clear();
        const dist::ShardResponse resp = dist::run_shard(req);
        response = dist::encode_shard_response(resp);
        response_frame = dist::make_ok_frame(resp);
    }
};

const Seeds& seeds() {
    static const Seeds s;
    return s;
}

TEST(DecoderFuzz, SeedsAreRealEncodingsThatDecode) {
    const Seeds& s = seeds();
    ASSERT_FALSE(s.routed.empty()) << "no switch count routed";
    ASSERT_FALSE(s.failed.empty()) << "no switch count failed to route";
    const int n = s.spec.cores.num_cores();
    EXPECT_TRUE(cas::decode_partition(s.pg, s.pg_k, n).has_value());
    EXPECT_TRUE(
        cas::decode_partition(s.lpg, s.lpg_k, s.lpg_vertices).has_value());
    const auto routed = cas::decode_routing(s.routed, s.spec);
    ASSERT_TRUE(routed.has_value());
    EXPECT_TRUE(routed->ok);
    const auto failed = cas::decode_routing(s.failed, s.spec);
    ASSERT_TRUE(failed.has_value());
    EXPECT_FALSE(failed->ok);
    const auto placed = cas::decode_placement(s.placement, s.spec);
    ASSERT_TRUE(placed.has_value());
    EXPECT_FALSE(placed->layer_die_area_mm2.empty());
    const auto ev = cas::decode_evaluation(s.evaluation, s.spec, &*s.placed);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(&*ev->point.topo, &**s.placed);
    EXPECT_EQ(cas::encode_evaluation(*ev), s.evaluation);

    // placed_bytes is exactly the placed topology's section: the rest of
    // the blob around it decodes, any other section does not.
    EXPECT_EQ(s.evaluation.compare(s.placed_at, s.placed_bytes.size(),
                                   s.placed_bytes),
              0);
    std::string other = s.evaluation;
    other[s.placed_at + s.placed_bytes.size() - 1] ^= 1;
    EXPECT_FALSE(
        cas::decode_evaluation(other, s.spec, &*s.placed).has_value());

    std::string error;
    dist::ShardRequest req;
    EXPECT_TRUE(dist::decode_shard_request(s.request, req, error)) << error;
    dist::ShardResponse resp;
    ASSERT_TRUE(dist::decode_shard_response(s.response, resp, error)) << error;
    ASSERT_FALSE(resp.points.empty());
    EXPECT_FALSE(resp.points[0].designs.empty());
    EXPECT_FALSE(resp.points[0].sim_reports.empty());
    dist::WorkerRequest wr;
    EXPECT_TRUE(dist::parse_worker_frame(s.request_frame, wr, error)) << error;
    std::string payload;
    EXPECT_TRUE(dist::parse_response_frame(s.response_frame, payload, error))
        << error;
    EXPECT_EQ(payload, s.response);
}

/// Every CAS decoder on one mutant, plus the placed-topology check.
void decode_cas_mutant(const Seeds& s, const std::string& m) {
    const int n = s.spec.cores.num_cores();
    bounded("decode_partition(pg)", m.size(), [&] {
        if (auto a = cas::decode_partition(m, s.pg_k, n))
            (void)cas::encode_partition(*a);
    });
    bounded("decode_partition(lpg)", m.size(), [&] {
        if (auto a = cas::decode_partition(m, s.lpg_k, s.lpg_vertices))
            (void)cas::encode_partition(*a);
    });
    bounded("decode_routing", m.size(), [&] {
        if (auto a = cas::decode_routing(m, s.spec))
            (void)cas::encode_routing(*a);
    });
    bounded("decode_placement", m.size(), [&] {
        if (auto a = cas::decode_placement(m, s.spec))
            (void)cas::encode_placement(*a);
    });
    std::optional<pipeline::EvaluatedDesign> full;
    bounded("decode_evaluation", m.size(), [&] {
        full = cas::decode_evaluation(m, s.spec);
        if (full) (void)cas::encode_evaluation(*full);
    });
    std::optional<pipeline::EvaluatedDesign> shared;
    bounded("decode_evaluation(placed)", m.size(), [&] {
        shared = cas::decode_evaluation(m, s.spec, &*s.placed);
        if (shared) (void)cas::encode_evaluation(*shared);
    });
    if (!shared) return;
    // Accepted with the placed topology: the mutant's topology section is
    // the original's, the design shares it, and decoding it in full
    // agrees byte for byte.
    const std::optional<std::size_t> at = evaluation_topology_at(m);
    ASSERT_TRUE(at.has_value());
    EXPECT_EQ(m.compare(*at, s.placed_bytes.size(), s.placed_bytes), 0)
        << "accepted a mutant whose topology section differs";
    EXPECT_EQ(&*shared->point.topo, &**s.placed);
    ASSERT_TRUE(full.has_value());
    EXPECT_TRUE(cas::encode_evaluation(*shared) ==
                cas::encode_evaluation(*full));
}

void decode_request_mutant(const std::string& m) {
    bounded("decode_shard_request", m.size(), [&] {
        dist::ShardRequest req;
        std::string error;
        if (dist::decode_shard_request(m, req, error))
            (void)dist::encode_shard_request(req);
    });
}

void decode_response_mutant(const Seeds& s, const std::string& m) {
    bounded("decode_shard_response", m.size(), [&] {
        dist::ShardResponse resp;
        std::string error;
        if (!dist::decode_shard_response(m, resp, error)) return;
        (void)dist::encode_shard_response(resp);
        // What the coordinator does with each shipped design.
        for (const dist::ShardPointResult& pr : resp.points)
            for (const std::string& blob : pr.designs)
                if (auto ev = cas::decode_evaluation(blob, s.spec))
                    (void)cas::encode_evaluation(*ev);
    });
}

TEST(DecoderFuzz, ArtifactMutantsDecodeCleanly) {
    const Seeds& s = seeds();
    ASSERT_FALSE(s.routed.empty());
    const std::string* blobs[] = {&s.pg,        &s.lpg,       &s.routed,
                                  &s.failed,    &s.placement, &s.evaluation};
    std::uint64_t rng_seed = 101;
    for (const std::string* blob : blobs) {
        for (const std::string& m : mutants(*blob, rng_seed++)) {
            decode_cas_mutant(s, m);
            if (testing::Test::HasFailure()) return;  // one report is enough
        }
    }
}

TEST(DecoderFuzz, EvaluationMutantsNeverSwapThePlacedTopology) {
    // The evaluation seed again, more mutants aimed at its topology
    // section: every mutation lands inside it.
    const Seeds& s = seeds();
    ASSERT_FALSE(s.routed.empty());
    Rng rng(211);
    int accepted = 0;
    for (int i = 0; i < kMutantsPerSeed; ++i) {
        std::string section = s.placed_bytes;
        mutate_once(section, rng);
        if (section == s.placed_bytes) continue;
        std::string m = s.evaluation;
        m.replace(s.placed_at, s.placed_bytes.size(), section);
        bounded("decode_evaluation(placed)", m.size(), [&] {
            if (cas::decode_evaluation(m, s.spec, &*s.placed)) ++accepted;
        });
    }
    EXPECT_EQ(accepted, 0);
}

TEST(DecoderFuzz, ShardPayloadMutantsDecodeCleanly) {
    const Seeds& s = seeds();
    ASSERT_FALSE(s.request.empty());
    for (const std::string& m : mutants(s.request, 307)) {
        decode_request_mutant(m);
        if (testing::Test::HasFailure()) return;
    }
    for (const std::string& m : mutants(s.response, 401)) {
        decode_response_mutant(s, m);
        if (testing::Test::HasFailure()) return;
    }
}

TEST(DecoderFuzz, ShardFrameMutantsParseCleanly) {
    const Seeds& s = seeds();
    ASSERT_FALSE(s.request_frame.empty());
    for (const std::string& m : mutants(s.request_frame, 503)) {
        bounded("parse_worker_frame", m.size(), [&] {
            dist::WorkerRequest wr;
            std::string error;
            if (dist::parse_worker_frame(m, wr, error) &&
                wr.op == dist::WorkerRequest::Op::ShardRun)
                (void)dist::encode_shard_request(wr.run);
        });
        if (testing::Test::HasFailure()) return;
    }
    for (const std::string& m : mutants(s.response_frame, 601)) {
        std::string payload;
        bounded("parse_response_frame", m.size(), [&] {
            std::string error;
            if (!dist::parse_response_frame(m, payload, error))
                payload.clear();
        });
        if (!payload.empty()) decode_response_mutant(s, payload);
        if (testing::Test::HasFailure()) return;
    }
}

std::string read_bytes(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f), {}};
}

void write_bytes(const std::string& path, const std::string& bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(DecoderFuzz, StoreObjectMutantsAreNeverServed) {
    // Each mutant of an object file goes under its key's object name, then
    // Store::get reads it. Beside the generated mutants, each seed gets a
    // fixed one: a bare header whose key length, 4,096, and payload
    // length, 2^64 - 4,096, sum to the 28 bytes of the file, so a reader
    // that trusted the sum would hash far past the bytes it read.
    const Seeds& s = seeds();
    ASSERT_FALSE(s.routed.empty());
    char dir_buf[] = "/tmp/sunfloor_fuzz_XXXXXX";
    ASSERT_NE(::mkdtemp(dir_buf), nullptr);
    const std::string dir = dir_buf;
    cas::Store store(cas::StoreOptions{dir});
    // Keys of the sizes real addresses have: a routing key carries an
    // assignment, an evaluation key the placed topology.
    const std::pair<std::string, const std::string*> objects[] = {
        {"routing|" + s.pg, &s.routed},
        {"evaluation|" + s.placed_bytes, &s.evaluation},
    };
    cas::Enc wrapped;
    wrapped.raw("SFCAS002");
    wrapped.u32(4096);
    wrapped.u64(0 - std::uint64_t{4096});
    wrapped.u64(0);
    std::uint64_t rng_seed = 901;
    for (const auto& [key, payload] : objects) {
        const std::string path = dir + "/" + cas::Store::object_name(key);
        ASSERT_TRUE(store.put(key, *payload));
        std::vector<std::string> files =
            mutants(read_bytes(path), rng_seed++);
        files.emplace_back(wrapped.view());
        for (const std::string& m : files) {
            write_bytes(path, m);
            std::string got;
            bool hit = false;
            bounded("Store::get", m.size(),
                    [&] { hit = store.get(key, got); });
            // A hit may only serve the payload put, and since every byte
            // of a file is checked (magic, lengths against its size,
            // checksum, key echo), no file but the one put is served.
            EXPECT_FALSE(hit) << (got == *payload ? "served a mutant file"
                                                  : "served a changed payload");
            if (testing::Test::HasFailure()) break;
        }
    }
    std::filesystem::remove_all(dir);
}

/// Real request frames of the daemon: a synth and an explore submit
/// (every config field set, D_26_media's spec text as `submit` sends
/// it), a status and a result frame.
std::vector<std::string> daemon_request_seeds() {
    const DesignSpec spec = make_benchmark("D_26_media");
    std::ostringstream text;
    write_design(text, spec);
    service::SubmitRequest synth;
    synth.client = "fuzz";
    synth.spec_name = spec.name;
    synth.spec_text = text.str();
    synth.params.freq_mhz = {400.0};
    synth.params.max_tsvs = {25};
    synth.params.phases = {SynthesisPhase::Phase2};
    synth.params.routings = {routing::RoutingPolicyId::OddEven};
    synth.params.alpha = 0.75;
    synth.params.seed = 7;
    synth.params.floorplan = false;
    synth.wait = true;
    service::SubmitRequest explore = synth;
    explore.kind = service::JobKind::Explore;
    explore.params.freq_mhz = {350.0, 450.0};
    explore.params.max_tsvs = {15, 25};
    explore.params.width_bits = {32, 48};
    explore.params.thetas = {1.0, 4.5};
    explore.params.phases = {SynthesisPhase::Phase1, SynthesisPhase::Auto};
    explore.params.routings = {routing::RoutingPolicyId::UpDown,
                               routing::RoutingPolicyId::WestFirst};
    return {service::make_submit_frame(synth),
            service::make_submit_frame(explore),
            service::make_status_frame(7),
            service::make_result_frame(7, true)};
}

/// The daemon's decoding of one request frame: parse_request and, for an
/// accepted submit, the spec parser; an accepted submit re-renders to a
/// frame that parses and renders to the same bytes.
void decode_daemon_request(const std::string& m) {
    constexpr long long kMaxFrameBytes = 1 << 20;  // sunfloord's default
    service::Request req;
    bool ok = false;
    bounded("parse_request", m.size(), [&] {
        std::string error;
        ok = service::parse_request(m, kMaxFrameBytes, req, error);
        EXPECT_TRUE(ok || !error.empty()) << "no error for: " << m;
    });
    if (!ok || req.op != service::Request::Op::Submit) return;
    bounded("build_job_request", m.size(), [&] {
        service::JobRequest job;
        std::string error;
        EXPECT_TRUE(service::build_job_request(req.submit, job, error) ||
                    !error.empty())
            << "no error for: " << m;
    });
    const std::string rendered = service::make_submit_frame(req.submit);
    service::Request again;
    std::string error;
    ASSERT_TRUE(service::parse_request(rendered, 0, again, error))
        << error << " re-parsing " << rendered;
    EXPECT_EQ(service::make_submit_frame(again.submit), rendered);
}

TEST(DecoderFuzz, DaemonRequestMutantsParseCleanly) {
    const std::vector<std::string> frames = daemon_request_seeds();
    std::uint64_t rng_seed = 701;
    for (const std::string& frame : frames) {
        service::Request req;
        std::string error;
        ASSERT_TRUE(service::parse_request(frame, 0, req, error)) << error;
        if (req.op == service::Request::Op::Submit) {
            service::JobRequest job;
            ASSERT_TRUE(service::build_job_request(req.submit, job, error))
                << error;
        }
        for (const std::string& m : mutants(frame, rng_seed++)) {
            decode_daemon_request(m);
            if (testing::Test::HasFailure()) return;
        }
    }
}

/// Whether a parse_design error names the line it failed on.
bool names_a_line(const std::string& error) {
    std::size_t i = 5;
    if (error.compare(0, i, "line ") != 0) return false;
    while (i < error.size() && error[i] >= '0' && error[i] <= '9') ++i;
    return i > 5 && i < error.size() && error[i] == ':';
}

TEST(DecoderFuzz, SpecTextMutantsParseCleanly) {
    // A spec parse costs ~0.1 ms, so each of the seven texts gets 400
    // mutants, keeping the case near half a second.
    constexpr int kSpecMutants = 400;
    std::uint64_t rng_seed = 801;
    int accepted = 0;
    for (const char* name : {"D_36_4", "D_36_6", "D_36_8", "D_35_bot",
                             "D_65_pipe", "D_38_tvopd", "D_26_media"}) {
        std::ostringstream text;
        write_design(text, make_benchmark(name));
        std::istringstream seed_in(text.str());
        ASSERT_TRUE(parse_design(seed_in, name).ok) << name;
        for (const std::string& m :
             mutants(text.str(), rng_seed++, kSpecMutants)) {
            ParseResult parsed;
            bounded("parse_design", m.size(), [&] {
                std::istringstream in(m);
                parsed = parse_design(in, name);
            });
            if (!parsed.ok) {
                EXPECT_TRUE(names_a_line(parsed.error))
                    << "error '" << parsed.error << "' for: " << m;
            } else {
                ++accepted;
                std::ostringstream once;
                write_design(once, parsed.spec);
                std::istringstream again_in(once.str());
                const ParseResult again = parse_design(again_in, name);
                ASSERT_TRUE(again.ok) << again.error << " re-parsing "
                                      << once.str();
                std::ostringstream twice;
                write_design(twice, again.spec);
                EXPECT_EQ(twice.str(), once.str()) << "from: " << m;
            }
            if (testing::Test::HasFailure()) return;
        }
    }
    // Most mutants break a line; some (a changed digit, a renamed core)
    // still parse.
    EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace sunfloor
