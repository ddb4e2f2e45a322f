// serve_mixed: the daemon's service::Server in process on a unix socket
// (2 engine workers, default session LRU), driven closed-loop by 3
// service::Client connections that each send the next request only after
// the previous reply (submit with "wait"), as real `submit --wait`
// callers do.
//
// The traffic is a fixed sequence of synth jobs on generated 16-core
// specs (floorplan off), ordered by the seed, in exact class proportions:
//   hit   (60%) exact repeats of the configs warmed during setup;
//   reuse (30%) a hot spec at a frequency not used before (partition
//               hits, routing and evaluation miss, the session grows);
//   cold  (10%) a spec not seen before (new session, full pipeline, LRU
//               eviction).
// The sequence runs in windows; between windows every client pauses
// while a calibration slice runs, and each latency is normalized by the
// slices around its window.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "inputs.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/pipeline/session.h"
#include "sunfloor/service/client.h"
#include "sunfloor/service/server.h"
#include "sunfloor/specgen/specgen.h"

namespace perfbench {

using namespace sunfloor;

namespace {

constexpr int kHot = 3;
constexpr int kClients = 3;
constexpr double kHitMhz[] = {400.0, 450.0};
constexpr int kHitConfigs = kHot * 2;
constexpr int kBlock = kHitConfigs + kHot + 1;  ///< 6 hit, 3 reuse, 1 cold
const char* const kClass[] = {"hit", "reuse", "cold"};
enum Class { Hit = 0, Reuse = 1, Cold = 2 };

struct Request {
    Class cls = Hit;
    int spec = 0;         ///< index into Traffic::texts
    int hit_config = -1;  ///< hit requests: index into the warmed configs
    double mhz = 400.0;
    std::string frame;
};

struct Response {
    double latency_s = 0.0;
    bool ok = false;
    long long id = 0;
    double best_mw = 0.0;
    int valid = 0;
    std::string csv;
};

/// The generated specs (hot ones first) and the request sequence.
struct Traffic {
    std::vector<std::string> texts;
    std::vector<Request> requests;
    std::vector<std::string> warm_frames;  ///< one per hit config
};

DesignSpec generate_spec(std::uint64_t seed, int i) {
    static const specgen::GenFamily kFamilies[] = {
        specgen::GenFamily::Pipeline, specgen::GenFamily::HubAndSpoke,
        specgen::GenFamily::LayeredDag};
    specgen::GenParams gp;
    gp.family = kFamilies[i % 3];
    gp.num_cores = 16;
    gp.num_layers = 2;
    return specgen::generate(gp, seed);
}

std::string submit_frame(const std::string& text, double mhz) {
    service::SubmitRequest sr;
    sr.client = "perfbench";
    sr.kind = service::JobKind::Synth;
    sr.spec_text = text;
    sr.params.freq_mhz = {mhz};
    sr.params.floorplan = false;
    sr.wait = true;
    return service::make_submit_frame(sr);
}

/// The request sequence, in blocks of 10: the 6 hit configs, one reuse
/// request per hot spec (each at a frequency never used before) and one
/// new cold spec, in a seeded order within the block. The content is the
/// same for every seed, so the summed quality metrics are too; and since
/// every block touches all three hot specs, the cold specs' LRU evictions
/// never reach a hot session (with a free shuffle they sometimes did,
/// which moved peak RSS by 20% from seed to seed).
Traffic make_traffic(std::uint64_t seed, int n) {
    const int blocks = n / kBlock;
    Traffic t;
    for (int i = 0; i < kHot + blocks; ++i) {
        std::ostringstream os;
        write_design(os, generate_spec(mix_seed(2009, i), i));
        t.texts.push_back(os.str());
    }
    for (int c = 0; c < kHitConfigs; ++c)
        t.warm_frames.push_back(
            submit_frame(t.texts[static_cast<std::size_t>(c / 2)], kHitMhz[c % 2]));

    int reuse_k = 0;
    for (int b = 0; b < blocks; ++b) {
        std::vector<Request> block;
        for (int c = 0; c < kHitConfigs; ++c) {
            Request r;
            r.cls = Hit;
            r.hit_config = c;
            r.spec = c / 2;
            r.mhz = kHitMhz[c % 2];
            block.push_back(r);
        }
        for (int h = 0; h < kHot; ++h) {
            Request r;
            r.cls = Reuse;
            r.spec = h;
            r.mhz = 400.0 + 0.05 * ++reuse_k;
            block.push_back(r);
        }
        Request cold;
        cold.cls = Cold;
        cold.spec = kHot + b;
        block.push_back(cold);
        for (const int i : permutation(kBlock, mix_seed(seed, static_cast<std::uint64_t>(b)))) {
            Request r = block[static_cast<std::size_t>(i)];
            r.frame = submit_frame(t.texts[static_cast<std::size_t>(r.spec)], r.mhz);
            t.requests.push_back(std::move(r));
        }
    }
    return t;
}

bool call(service::Client& c, const std::string& frame, Response& out) {
    JsonValue resp;
    std::string err;
    if (!c.call(frame, resp, err)) return false;
    const JsonValue* ok = resp.find("ok");
    const JsonValue* status = resp.find("status");
    const JsonValue* result = resp.find("result");
    const JsonValue* id = resp.find("id");
    if (!ok || !ok->as_bool() || !status || status->as_string() != "done" ||
        !result || !id)
        return false;
    const JsonValue* csv = result->find("csv");
    const JsonValue* best = result->find("best_power_mw");
    const JsonValue* valid = result->find("num_valid");
    if (!csv || !best || !valid) return false;
    out.id = id->as_int64();
    out.csv = csv->as_string();
    out.best_mw = std::max(0.0, best->as_double());
    out.valid = static_cast<int>(valid->as_int64());
    out.ok = true;
    return true;
}

/// A running server with its three connected clients and the warm-up
/// responses of the hit configs.
struct Service {
    std::unique_ptr<service::Server> server;
    std::vector<std::unique_ptr<service::Client>> clients;
    std::vector<std::string> warm_csv;

    void start(const std::string& address, const Traffic& t) {
        service::ServerOptions so;
        so.listen = address;
        so.engine.workers = 2;
        so.conn_threads = kClients;
        server = std::make_unique<service::Server>(so);
        std::string err;
        if (!server->start(err)) throw std::runtime_error("server: " + err);
        for (int c = 0; c < kClients; ++c) {
            clients.push_back(std::make_unique<service::Client>());
            if (!clients.back()->connect(address, err))
                throw std::runtime_error("client: " + err);
        }
        for (const std::string& f : t.warm_frames) {
            Response r;
            if (!call(*clients[0], f, r))
                throw std::runtime_error("warm-up request failed");
            warm_csv.push_back(r.csv);
        }
    }

    void stop() {
        for (auto& c : clients) c->close();
        clients.clear();
        if (server) {
            server->request_shutdown();
            server->wait();
            server.reset();
        }
    }
};

SynthesisConfig synth_cfg(double mhz) {
    SynthesisConfig cfg;
    cfg.eval.freq_hz = mhz * 1e6;
    cfg.run_floorplan = false;
    return cfg;
}

}  // namespace

void run_serve_mixed(Recorder& rec) {
    const Options& o = rec.opt();
    const int n = o.passes * o.window;
    if (n % kBlock != 0)
        throw std::invalid_argument("serve_mixed needs passes * window to be "
                                    "a multiple of 10");
    const std::string address = o.work_dir + "/sfbench.sock";

    Traffic traffic;
    Service svc;
    for (int r = 0; r < o.setup_reps; ++r) {
        svc.stop();
        svc = Service{};
        rec.bracketed("setup", [&] {
            traffic = make_traffic(o.seed, n);
            svc.start(address, traffic);
        });
    }

    // Traced-only: benchmark-owned warm sessions of the hot specs.
    std::vector<std::unique_ptr<pipeline::SynthesisSession>> warm;
    if (o.trace) {
        for (int h = 0; h < kHot; ++h) {
            std::istringstream is(traffic.texts[static_cast<std::size_t>(h)]);
            warm.push_back(std::make_unique<pipeline::SynthesisSession>(
                parse_design(is).spec));
            for (const double mhz : kHitMhz) warm.back()->run(synth_cfg(mhz));
        }
    }

    std::vector<Response> resp(static_cast<std::size_t>(n));
    std::vector<double> window_factor(static_cast<std::size_t>(o.passes));
    LayerTotals lt;
    lt.threads = 2;
    std::vector<double> parse_s, warm_s;
    const long rss0 = rss_kb();
    const service::EngineStats st0 = svc.server->engine().stats();

    start_trace(o);
    for (int w = 0; w < o.passes; ++w) {
        const int lo = w * o.window, hi = lo + o.window;
        const double c0 = rec.select();
        const Snapshot before = snapshot();
        const double cpu0 = process_cpu_s();
        const auto t0 = Clock::now();
        {
            obs::ScopedSpan span("op.window", "op", w);
            std::atomic<int> next{lo};
            std::vector<std::thread> clients;
            for (int c = 0; c < kClients; ++c)
                clients.emplace_back([&, c] {
                    for (int i; (i = next.fetch_add(1)) < hi;) {
                        Response& r = resp[static_cast<std::size_t>(i)];
                        const auto q0 = Clock::now();
                        {
                            obs::ScopedSpan call_span("op.client_call", "op", i);
                            call(*svc.clients[static_cast<std::size_t>(c)],
                                 traffic.requests[static_cast<std::size_t>(i)].frame,
                                 r);
                        }
                        r.latency_s = seconds_since(q0);
                    }
                });
            for (std::thread& t : clients) t.join();
        }
        const double wall = seconds_since(t0);
        const double cpu = process_cpu_s() - cpu0;
        const double c1 = rec.slice();
        const double calib = 0.5 * (c0 + c1);
        window_factor[static_cast<std::size_t>(w)] = rec.factor(calib);
        lt.add(before, wall, cpu);
        rec.add("window", wall, calib);
        for (int i = lo; i < hi; ++i)
            rec.add(kClass[traffic.requests[static_cast<std::size_t>(i)].cls],
                    resp[static_cast<std::size_t>(i)].latency_s, calib);

        if (o.trace) {
            for (int i = lo; i < hi; ++i) {
                const Request& q = traffic.requests[static_cast<std::size_t>(i)];
                const auto p0 = Clock::now();
                {
                    obs::ScopedSpan span("trace_only.parse_design");
                    std::istringstream is(traffic.texts[static_cast<std::size_t>(q.spec)]);
                    parse_design(is);
                }
                parse_s.push_back(seconds_since(p0) * rec.factor(calib));
                if (q.cls != Hit) continue;
                const auto h0 = Clock::now();
                {
                    obs::ScopedSpan span("trace_only.warm_run");
                    warm[static_cast<std::size_t>(q.spec)]->run(synth_cfg(q.mhz));
                }
                warm_s.push_back(seconds_since(h0) * rec.factor(calib));
            }
        }
    }
    finish_trace(o);
    const long rss1 = rss_kb();
    const service::EngineStats st1 = svc.server->engine().stats();

    // Engine-side timings of every job (traced run), then shut down.
    std::vector<double> wait_ms[3], run_ms[3], wire_ms;
    if (o.trace) {
        for (int i = 0; i < n; ++i) {
            const Response& r = resp[static_cast<std::size_t>(i)];
            service::JobStatus js;
            if (!r.ok || !svc.server->engine().status(
                             static_cast<std::uint64_t>(r.id), js))
                continue;
            const int cls = traffic.requests[static_cast<std::size_t>(i)].cls;
            const double f = window_factor[static_cast<std::size_t>(i / o.window)];
            wait_ms[cls].push_back(js.wait_ms * f);
            run_ms[cls].push_back(js.run_ms * f);
            if (cls == Hit)
                wire_ms.push_back((r.latency_s * 1e3 - js.wait_ms - js.run_ms) * f);
        }
    }
    const std::vector<std::string> warm_csv = svc.warm_csv;
    svc.stop();
    std::filesystem::remove(address);

    double best = 0.0;
    long valid = 0;
    for (int i = 0; i < n; ++i) {
        const Response& r = resp[static_cast<std::size_t>(i)];
        const Request& q = traffic.requests[static_cast<std::size_t>(i)];
        rec.check(r.ok, std::string(kClass[q.cls]) + " request " +
                            std::to_string(i) + " did not return ok");
        if (r.ok && q.cls == Hit)
            rec.check_same(r.csv,
                           warm_csv[static_cast<std::size_t>(q.hit_config)],
                           "hit request " + std::to_string(i));
        best += r.best_mw;
        valid += r.valid;
    }

    double pass_s = 0.0, pass_raw = 0.0;
    for (const double x : rec.normalized("window")) pass_s += x;
    for (const double x : rec.raw("window")) pass_raw += x;
    rec.metric("pass_s", pass_s, "s", o.passes, pass_raw,
               "time to serve the whole request sequence (sum of windows)");
    rec.metric("jobs_per_s", n / pass_s, "1/s", n, n / pass_raw,
               "requests served per second, closed loop, 3 clients");
    rec.kind_metric("hit_ms.p50", "hit", 0.5, 1e3, "ms", "hit class");
    rec.kind_metric("hit_ms.p90", "hit", 0.9, 1e3, "ms", "hit class");
    rec.kind_metric("reuse_ms.p50", "reuse", 0.5, 1e3, "ms", "reuse class");
    rec.kind_metric("cold_ms.p50", "cold", 0.5, 1e3, "ms", "cold class");
    rec.metric("best_power_mw", best, "mW", n, best,
               "sum over responses of the best-power design");
    rec.metric("valid_designs", static_cast<double>(valid), "count", n,
               static_cast<double>(valid), "sum over responses");

    if (o.trace) {
        rec.pipeline_layers(lt, 1);
        rec.layer("spec.parse_ms.p50", median(parse_s) * 1e3, "ms",
                  "parse_design per request");
        rec.layer("pipeline.warm_run_ms.p50", median(warm_s) * 1e3, "ms",
                  "SynthesisSession::run per hit config");
        rec.layer("service.wait_ms.p50", median(wait_ms[Hit]), "ms", "hit class");
        for (int c = 0; c < 3; ++c)
            rec.layer(std::string("service.run_ms.") + kClass[c] + ".p50",
                      median(run_ms[c]), "ms",
                      std::to_string(run_ms[c].size()) + " jobs");
        rec.layer("service.wire_ms.p50", median(wire_ms), "ms",
                  "hit latency - wait - run");
        rec.layer("service.coalesced", static_cast<double>(st1.coalesced - st0.coalesced),
                  "count", std::to_string(n) + " requests");
        rec.layer("service.rejected", static_cast<double>(st1.rejected - st0.rejected),
                  "count", std::to_string(n) + " requests");
        rec.layer("service.rss_kb_per_job",
                  static_cast<double>(rss1 - rss0) / n, "KiB",
                  std::to_string(n) + " requests");
    }
}

}  // namespace perfbench
