#include "bench.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "sunfloor/obs/metrics.h"

namespace perfbench {

// ------------------------------------------------------------ statistics

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<int> permutation(int n, std::uint64_t seed) {
    std::vector<int> p(static_cast<std::size_t>(n));
    std::iota(p.begin(), p.end(), 0);
    for (int i = n - 1; i > 0; --i) {
        const auto j = static_cast<int>(
            mix_seed(seed, static_cast<std::uint64_t>(i)) %
            static_cast<std::uint64_t>(i + 1));
        std::swap(p[static_cast<std::size_t>(i)],
                  p[static_cast<std::size_t>(j)]);
    }
    return p;
}

std::string json_escape(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

namespace {

std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

long status_kb(const char* field) {
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string key = std::string(field) + ":";
    while (std::getline(in, line))
        if (line.compare(0, key.size(), key) == 0)
            return std::stol(line.substr(key.size()));
    return 0;
}

}  // namespace

double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

long rss_kb() { return status_kb("VmRSS"); }
long peak_rss_kb() { return status_kb("VmHWM"); }

// ----------------------------------------------------------- calibration

namespace {
constexpr std::uint32_t kChaseEntries = 1u << 20;  // 4 MiB of uint32
constexpr int kChaseSteps = 30000;
constexpr std::size_t kSortKeys = 1u << 14;        // 64 KiB of uint32
constexpr int kSortReps = 2;
}  // namespace

Calibrator::Calibrator(int k) : next_(kChaseEntries), keys_(kSortKeys), k_(k) {
    // Sattolo's algorithm: one random cycle through every entry, from a
    // fixed seed, so the chase order is identical in every run.
    std::iota(next_.begin(), next_.end(), 0u);
    for (std::uint32_t i = kChaseEntries - 1; i > 0; --i) {
        const auto j = static_cast<std::uint32_t>(mix_seed(0x5eed, i) % i);
        std::swap(next_[i], next_[j]);
    }
    for (std::size_t i = 0; i < kSortKeys; ++i)
        keys_[i] = static_cast<std::uint32_t>(mix_seed(0x50f7, i));
    cpu_set_t set;
    CPU_ZERO(&set);
    if (pthread_getaffinity_np(pthread_self(), sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set)) all_.push_back(c);
    chosen_.assign(all_.empty() ? 0 : static_cast<std::size_t>(all_.back()) + 1, 0);
}

namespace {

cpu_set_t cpu_set_of(const std::vector<int>& cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cpus) CPU_SET(c, &set);
    return set;
}

/// Move the calling thread only.
void run_on(const std::vector<int>& cpus) {
    const cpu_set_t set = cpu_set_of(cpus);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Move every thread of the process (server and pool threads included).
void move_process(const std::vector<int>& cpus) {
    const cpu_set_t set = cpu_set_of(cpus);
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator("/proc/self/task", ec)) {
        const auto tid = static_cast<pid_t>(std::stol(e.path().filename().string()));
        sched_setaffinity(tid, sizeof set, &set);
    }
}

}  // namespace

double Calibrator::probe() {
    // Totals, not minimums: a stall inside a run slows ops too.
    double chase = 0.0, sort = 0.0;
    for (int run = 0; run < 3; ++run) {
        auto t0 = Clock::now();
        std::uint32_t p = pos_;
        std::uint64_t acc = sink_;
        for (int i = 0; i < kChaseSteps; ++i) {
            p = next_[p];
            acc = acc * 6364136223846793005ULL + p;
        }
        pos_ = p;
        chase += seconds_since(t0);

        t0 = Clock::now();
        for (int r = 0; r < kSortReps; ++r) {
            work_ = keys_;
            work_[static_cast<std::size_t>(r)] ^= static_cast<std::uint32_t>(acc);
            std::sort(work_.begin(), work_.end());
            acc += work_[kSortKeys / 2];
        }
        sort += seconds_since(t0);
        sink_ = acc;
    }
    return std::sqrt(chase * sort);
}

double Calibrator::select() {
    if (all_.empty()) return slice();
    std::vector<std::pair<double, int>> speed;
    for (const int c : all_) {
        run_on({c});
        speed.emplace_back(probe(), c);
    }
    std::sort(speed.begin(), speed.end());
    cpus_.clear();
    double s = 0.0;
    for (std::size_t i = 0; i < speed.size() && static_cast<int>(i) < k_; ++i) {
        cpus_.push_back(speed[i].second);
        ++chosen_[static_cast<std::size_t>(speed[i].second)];
        s += speed[i].first;
    }
    s /= static_cast<double>(cpus_.size());
    move_process(cpus_);
    slices_.push_back(s);
    return s;
}

double Calibrator::slice() {
    double s = 0.0;
    if (cpus_.empty()) {
        s = probe();
    } else {
        for (const int c : cpus_) {
            run_on({c});
            s += probe();
        }
        s /= static_cast<double>(cpus_.size());
        run_on(cpus_);
    }
    slices_.push_back(s);
    return s;
}

// ----------------------------------------------------- registry snapshots

namespace {

const char* const kStages[] = {"partition", "routing", "placement",
                               "position_lp", "evaluation"};

const char* const kCounters[] = {
    "lp.solves",
    "lp.iterations",
    "cas.hits",
    "cas.misses",
    "cas.stores",
    "cas.corrupt",
    "service.coalesced.total",
    "service.rejected.queue_full",
    "service.rejected.quota",
    "service.rejected.shutdown",
};

}  // namespace

double Snapshot::operator[](const std::string& name) const {
    const auto it = v.find(name);
    return it == v.end() ? 0.0 : it->second;
}

Snapshot Snapshot::operator-(const Snapshot& o) const {
    Snapshot d = *this;
    for (auto& [k, x] : d.v) x -= o[k];
    return d;
}

Snapshot& Snapshot::operator+=(const Snapshot& o) {
    for (const auto& [k, x] : o.v) v[k] += x;
    return *this;
}

Snapshot snapshot() {
    auto& reg = sunfloor::obs::Registry::global();
    Snapshot s;
    for (const char* st : kStages) {
        const std::string p = std::string("pipeline.") + st;
        s.v[p + ".hits"] = static_cast<double>(reg.counter(p + ".hits").value());
        s.v[p + ".misses"] =
            static_cast<double>(reg.counter(p + ".misses").value());
        s.v[p + ".compute_ms"] = reg.gauge(p + ".compute_ms").value();
    }
    for (const char* c : kCounters)
        s.v[c] = static_cast<double>(reg.counter(c).value());
    return s;
}

// -------------------------------------------------------------- recorder

Recorder::Recorder(Options opts)
    : opts_(std::move(opts)), cal_(opts_.cpus), flip_pending_(opts_.flip_byte) {}

double Recorder::factor(double calib_s) const {
    if (opts_.calib_ref_s <= 0.0 || calib_s <= 0.0) return 1.0;
    return opts_.calib_ref_s / calib_s;
}

double Recorder::run_factor() const { return factor(median(cal_.slices())); }

double Recorder::slice() {
    last_slice_ = cal_.slice();
    last_slice_end_ = Clock::now();
    return last_slice_;
}

double Recorder::select() {
    last_slice_ = cal_.select();
    last_slice_end_ = Clock::now();
    return last_slice_;
}

double Recorder::fresh_slice() {
    if (last_slice_ > 0.0 && seconds_since(last_slice_end_) < 0.25)
        return last_slice_;
    return select();
}

void Recorder::add(const std::string& kind, double raw_s, double calib_s) {
    samples_[kind].push_back({raw_s, calib_s});
}

std::vector<double> Recorder::normalized(const std::string& kind) const {
    std::vector<double> out;
    const auto it = samples_.find(kind);
    if (it == samples_.end()) return out;
    for (const Sample& s : it->second) out.push_back(s.raw_s * factor(s.calib_s));
    return out;
}

std::vector<double> Recorder::raw(const std::string& kind) const {
    std::vector<double> out;
    const auto it = samples_.find(kind);
    if (it == samples_.end()) return out;
    for (const Sample& s : it->second) out.push_back(s.raw_s);
    return out;
}

std::size_t Recorder::count(const std::string& kind) const {
    const auto it = samples_.find(kind);
    return it == samples_.end() ? 0 : it->second.size();
}

void Recorder::check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (failures_.size() < 20) failures_.push_back(what);
    }
}

void Recorder::check_same(std::string got, const std::string& want,
                          const std::string& what) {
    if (flip_pending_ && !got.empty()) {
        got[got.size() / 2] = static_cast<char>(got[got.size() / 2] ^ 0x01);
        flip_pending_ = false;
    }
    check(got == want, what + ": output differs from the reference bytes");
}

void Recorder::metric(const std::string& name, double value,
                      const std::string& unit, long n, double raw_value,
                      const std::string& how) {
    metrics_json_.push_back(json_escape(name) + ": {\"value\": " + num(value) +
                            ", \"unit\": " + json_escape(unit) +
                            ", \"n\": " + std::to_string(n) +
                            ", \"raw\": " + num(raw_value) +
                            ", \"how\": " + json_escape(how) + "}");
}

void Recorder::kind_metric(const std::string& name, const std::string& kind,
                           double q, double scale, const std::string& unit,
                           const std::string& how) {
    const std::vector<double> v = normalized(kind);
    const double value = quantile(v, q) * scale;
    const double raw_value = quantile(raw(kind), q) * scale;
    std::string ctx = how;
    // The highest percentile with at least ten samples beyond it.
    for (const double tail : {0.999, 0.99, 0.9, 0.5}) {
        if (static_cast<double>(v.size()) * (1.0 - tail) >= 10.0) {
            char buf[96];
            std::snprintf(buf, sizeof buf, "; p%g = %.4g %s", tail * 100,
                          quantile(v, tail) * scale, unit.c_str());
            ctx += buf;
            break;
        }
    }
    metric(name, value, unit, static_cast<long>(v.size()), raw_value, ctx);
}

double Recorder::sum_metric(const std::string& name,
                            const std::vector<std::string>& kinds, double q,
                            double scale, const std::string& unit,
                            const std::string& how) {
    double value = 0.0, raw_value = 0.0;
    long n = 0;
    for (const std::string& k : kinds) {
        value += quantile(normalized(k), q) * scale;
        raw_value += quantile(raw(k), q) * scale;
        n += static_cast<long>(count(k));
    }
    metric(name, value, unit, n, raw_value, how);
    return value;
}

void Recorder::common_metrics() {
    kind_metric("setup_s", "setup", 0.5, 1.0, "s",
                "median of the setup repetitions");
    metric("peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0, "MiB",
           1, static_cast<double>(peak_rss_kb()) / 1024.0,
           "process VmHWM at exit");
    const double ok =
        attempted_ > 0
            ? static_cast<double>(attempted_ - failed_) /
                  static_cast<double>(attempted_)
            : 0.0;
    metric("ok_frac", ok, "ratio", attempted_, ok,
           "output checks passed / attempted (1 - fail_frac)");
}

void Recorder::layer(const std::string& name, double value,
                     const std::string& unit, const std::string& base) {
    layers_json_.push_back(json_escape(name) + ": {\"value\": " + num(value) +
                           ", \"unit\": " + json_escape(unit) +
                           ", \"base\": " + json_escape(base) + "}");
}

void Recorder::pipeline_layers(const LayerTotals& lt, int passes) {
    const Snapshot& d = lt.delta;
    const double per = 1.0 / std::max(1, passes);
    const double f = run_factor();
    const auto stage_ms = [&](const char* st) {
        return d[std::string("pipeline.") + st + ".compute_ms"] * f * per;
    };
    const auto calls = [&](const char* st) {
        const std::string p = std::string("pipeline.") + st;
        return d[p + ".hits"] + d[p + ".misses"];
    };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const auto fmt = [](const char* what, double v) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%s %.0f", what, v);
        return std::string(buf);
    };

    layer("pipeline.position_lp.ms", stage_ms("position_lp"), "ms");
    layer("lp.solves", d["lp.solves"] * per, "count");
    layer("lp.pivots_per_solve", ratio(d["lp.iterations"], d["lp.solves"]),
          "count", fmt("solves", d["lp.solves"]));
    layer("pipeline.partition.ms", stage_ms("partition"), "ms");
    layer("pipeline.partition.hit_ratio",
          ratio(d["pipeline.partition.hits"], calls("partition")), "ratio",
          fmt("calls", calls("partition")));
    layer("pipeline.routing.ms", stage_ms("routing"), "ms");
    layer("pipeline.routing.misses", d["pipeline.routing.misses"] * per,
          "count");
    layer("pipeline.routing.useful_frac",
          ratio(calls("evaluation"), calls("routing")), "ratio",
          fmt("routing calls", calls("routing")));
    layer("pipeline.floorplan.ms",
          std::max(0.0, stage_ms("placement") - stage_ms("position_lp")), "ms");
    layer("pipeline.evaluation.ms", stage_ms("evaluation"), "ms");
    double hits = 0.0, all = 0.0;
    for (const char* st : kStages) {
        hits += d[std::string("pipeline.") + st + ".hits"];
        all += calls(st);
    }
    layer("pipeline.hit_ratio", ratio(hits, all), "ratio",
          fmt("hits", hits) + ", " + fmt("calls", all));
    layer("explore.busy_frac",
          ratio(lt.op_cpu_s, lt.op_wall_s * std::max(1, lt.threads)), "ratio",
          fmt("threads", lt.threads));
}

void Recorder::context(const std::string& key, const std::string& value) {
    context_.emplace_back(key, value);
}

bool Recorder::write(const std::string& path) const {
    std::ostringstream os;
    os << "{\"workload\": " << json_escape(opts_.workload)
       << ", \"seed\": " << opts_.seed << ", \"trace\": " << (opts_.trace ? 1 : 0)
       << ",\n \"build\": {\"build_type\": " << json_escape(PERFBENCH_BUILD_TYPE)
       << ", \"compiler\": "
       << json_escape(std::string(PERFBENCH_CXX_ID) + " " +
                      PERFBENCH_CXX_VERSION)
       << "},\n \"calibration\": {\"ref_s\": " << num(opts_.calib_ref_s)
       << ", \"median_slice_s\": " << num(median(cal_.slices()))
       << ", \"factor\": " << num(run_factor())
       << ", \"slices\": " << cal_.slices().size() << ", \"chosen\": [";
    for (std::size_t i = 0; i < cal_.chosen().size(); ++i)
        os << (i ? ", " : "") << cal_.chosen()[i];
    os << "]},\n \"attempted\": "
       << attempted_ << ", \"failed\": " << failed_ << ", \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i)
        os << (i ? ", " : "") << json_escape(failures_[i]);
    os << "],\n \"kinds\": {";
    bool first = true;
    for (const auto& [kind, v] : samples_) {
        os << (first ? "\n  " : ",\n  ") << json_escape(kind)
           << ": {\"n\": " << v.size()
           << ", \"median_raw_s\": " << num(median(raw(kind)))
           << ", \"median_s\": " << num(median(normalized(kind)))
           << ", \"raw_s\": [";
        for (std::size_t i = 0; i < v.size(); ++i)
            os << (i ? ", " : "") << num(v[i].raw_s);
        os << "], \"calib_s\": [";
        for (std::size_t i = 0; i < v.size(); ++i)
            os << (i ? ", " : "") << num(v[i].calib_s);
        os << "]}";
        first = false;
    }
    os << "},\n \"context\": {";
    for (std::size_t i = 0; i < context_.size(); ++i)
        os << (i ? ", " : "") << json_escape(context_[i].first) << ": "
           << json_escape(context_[i].second);
    os << "},\n \"metrics\": {";
    for (std::size_t i = 0; i < metrics_json_.size(); ++i)
        os << (i ? ",\n  " : "\n  ") << metrics_json_[i];
    os << "},\n \"layers\": {";
    for (std::size_t i = 0; i < layers_json_.size(); ++i)
        os << (i ? ",\n  " : "\n  ") << layers_json_[i];
    os << "}}\n";
    std::ofstream out(path);
    out << os.str();
    return static_cast<bool>(out);
}

}  // namespace perfbench
