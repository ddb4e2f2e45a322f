// Shared harness of the repository benchmark (sfbench).
//
// Every workload follows the same rules:
//   * fixed work per run: the counts come from the command line, never
//     from elapsed time, so two runs of one seed do identical work;
//   * one kind of sample per metric: each timing is a median (or other
//     quantile) over samples of one spec, one request class or one op
//     type, never over a pooled mix;
//   * host-speed normalization: every timed sample is divided by the
//     time of the calibration slices that bracket it and multiplied by a
//     reference slice time, so it reads as seconds at reference host
//     speed (Calibrator below; the raw value is kept as context).
//
// The traced run (--trace 1) records spans through the library's own
// obs tracer from this directory's files only, and snapshots the
// process-wide metrics registry around every timed op.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    bool trace = false;
    /// Measured passes: synth_paper spec passes, explore_grid ops,
    /// explore_sharded passes (a cold op, its hit ops, the reuse grids),
    /// serve_mixed windows.
    int passes = 3;
    /// Hit repeats per op (synth_paper, explore_grid, explore_sharded).
    int hit_reps = 3;
    /// serve_mixed: requests per window.
    int window = 100;
    /// Setup repetitions; setup_s is their median.
    int setup_reps = 3;
    /// vCPUs each op runs on (its busy threads; see Calibrator).
    int cpus = 1;
    /// Reference calibration-slice time (s); <= 0 reports raw times.
    double calib_ref_s = 0.0;
    /// Self-test fault injection: flip one byte of the first checked
    /// output before it is compared.
    bool flip_byte = false;
    /// Scratch directory inside the checkout (sockets, records).
    std::string work_dir = ".";
    /// Parent of explore_sharded's CAS stores. It is the same directory
    /// for every run: stores under a fresh per-run parent made each
    /// back-to-back run's cold ops slower than the last (2.4, 3.9, 4.0 s
    /// on one ext4 volume); reused store names did not.
    std::string store_dir = ".";
    std::string trace_out;
    std::string record_out;
};

// ------------------------------------------------------------ statistics

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty vector.
double quantile(std::vector<double> v, double q);

// ----------------------------------------------------------- calibration

/// Host-speed probe and CPU placement.
///
/// On this repository's 4-vCPU reference host each vCPU's speed changes
/// on its own (neighbours contend for it for minutes at a time, up to
/// 1.5x), so before each op the probe runs on every vCPU the process may
/// use and the whole process (every thread) moves to the `k` fastest,
/// k being the op's busy threads. Slices then measure exactly those
/// vCPUs: the probe runs on each in turn and the slice is their mean.
///
/// The probe has two parts: a dependent pointer chase over a 4 MiB random
/// cycle (memory latency) and sorts of a 64 KiB array (branchy in-cache
/// compute); slow phases hit both in different proportions than synthesis
/// does, and their geometric mean tracked a cold synthesis better than
/// either alone. It calls no sunfloor code and is only run while no
/// benchmark or library thread is runnable.
class Calibrator {
  public:
    /// Probe-and-place over the calling thread's affinity mask, keeping
    /// the `k` fastest vCPUs.
    explicit Calibrator(int k);
    /// Move every thread of the process to the k fastest vCPUs now; the
    /// slice is the mean of their probes.
    double select();
    /// One slice over the current vCPUs.
    double slice();
    const std::vector<double>& slices() const { return slices_; }
    /// How often each vCPU was chosen.
    const std::vector<int>& chosen() const { return chosen_; }

  private:
    /// Geometric mean of the two parts' totals over three runs each, on
    /// the calling thread's vCPU.
    double probe();
    std::vector<std::uint32_t> next_;
    std::vector<std::uint32_t> keys_, work_;
    std::uint32_t pos_ = 0;
    std::uint64_t sink_ = 0;
    std::vector<double> slices_;
    int k_ = 1;
    std::vector<int> all_;   ///< vCPUs of the initial affinity mask
    std::vector<int> cpus_;  ///< the current k fastest
    std::vector<int> chosen_;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU time in seconds (all threads).
double process_cpu_s();

/// Resident set size and its high-water mark, in KiB (/proc/self/status).
long rss_kb();
long peak_rss_kb();

// ----------------------------------------------------- registry snapshots

/// Values of the registry instruments the per-layer metrics read
/// (pipeline stage counters and compute gauges, lp.*, cas.*, service.*).
struct Snapshot {
    std::map<std::string, double> v;

    double operator[](const std::string& name) const;
    Snapshot operator-(const Snapshot& o) const;
    Snapshot& operator+=(const Snapshot& o);
};

Snapshot snapshot();

// -------------------------------------------------------------- recorder

struct Sample {
    double raw_s = 0.0;
    double calib_s = 0.0;  ///< mean of the bracketing slices
};

/// Per-layer accounting accumulated over the timed ops of a traced run.
struct LayerTotals {
    Snapshot delta;
    double op_wall_s = 0.0;
    double op_cpu_s = 0.0;
    int threads = 1;

    void add(const Snapshot& before, double wall_s, double cpu_s) {
        delta += snapshot() - before;
        op_wall_s += wall_s;
        op_cpu_s += cpu_s;
    }
};

class Recorder {
  public:
    explicit Recorder(Options opts);

    const Options& opt() const { return opts_; }

    /// Host-speed factor of a sample: reference slice ÷ bracketing slice
    /// (1 when no reference is configured).
    double factor(double calib_s) const;
    /// The run-level factor: reference ÷ median slice of the whole run.
    double run_factor() const;

    /// Move to the fastest vCPUs and slice there (Calibrator::select):
    /// the start of every op.
    double select();
    /// Run a calibration slice now on the current vCPUs.
    double slice();
    /// The slice that just ended (within 0.25 s), so back-to-back ops
    /// share the slice between them; else move to the fastest vCPUs and
    /// slice there (Calibrator::select).
    double fresh_slice();

    void add(const std::string& kind, double raw_s, double calib_s);
    /// Time `fn` between two calibration slices and record it.
    template <class F>
    double bracketed(const std::string& kind, F&& fn) {
        const double c0 = select();
        const auto t0 = Clock::now();
        fn();
        const double raw = seconds_since(t0);
        const double c1 = slice();
        add(kind, raw, 0.5 * (c0 + c1));
        return raw;
    }
    std::vector<double> normalized(const std::string& kind) const;
    std::vector<double> raw(const std::string& kind) const;
    std::size_t count(const std::string& kind) const;

    /// One output check: counts toward attempted, and toward failed when
    /// `ok` is false.
    void check(bool ok, const std::string& what);
    /// Check `got` byte-equal to `want` (the self-test's flipped byte is
    /// injected here, into the first candidate compared).
    void check_same(std::string got, const std::string& want,
                    const std::string& what);

    /// An end-to-end metric; `kinds` names the sample kinds it was taken
    /// from (for the sample count and raw-value context).
    void metric(const std::string& name, double value, const std::string& unit,
                long n, double raw_value, const std::string& how);
    /// Median of one sample kind as an end-to-end metric (scaled by
    /// `scale`, e.g. 1e3 for ms), with the tail percentile as context.
    void kind_metric(const std::string& name, const std::string& kind,
                     double q, double scale, const std::string& unit,
                     const std::string& how);
    /// Sum over `kinds` of each kind's own quantile (one sample kind per
    /// term, e.g. one spec each), scaled.
    double sum_metric(const std::string& name,
                      const std::vector<std::string>& kinds, double q,
                      double scale, const std::string& unit,
                      const std::string& how);
    /// setup_s (median of the "setup" samples), peak_rss_mb and ok_frac.
    void common_metrics();
    /// A per-layer metric of the traced run; `base` names what a ratio is
    /// taken over, with its value.
    void layer(const std::string& name, double value, const std::string& unit,
               const std::string& base = "");

    /// The registry-derived per-layer metrics shared by every workload
    /// (pipeline stages, lp, cas, busy fraction), per pass.
    void pipeline_layers(const LayerTotals& lt, int passes);

    void context(const std::string& key, const std::string& value);

    bool write(const std::string& path) const;

    long attempted() const { return attempted_; }
    long failed() const { return failed_; }

  private:
    Options opts_;
    Calibrator cal_;
    double last_slice_ = 0.0;
    Clock::time_point last_slice_end_{};
    std::map<std::string, std::vector<Sample>> samples_;
    long attempted_ = 0;
    long failed_ = 0;
    bool flip_pending_ = false;
    std::vector<std::string> failures_;
    std::vector<std::string> metrics_json_;
    std::vector<std::string> layers_json_;
    std::vector<std::pair<std::string, std::string>> context_;
};

/// Deterministic 64-bit mix of a seed and a salt (splitmix64 finalizer).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Seeded Fisher-Yates permutation of 0..n-1.
std::vector<int> permutation(int n, std::uint64_t seed);

std::string json_escape(const std::string& s);

/// Traced run only: start the library's obs tracer (after setup) and,
/// at the end, write every buffered span as Perfetto JSON to trace_out.
void start_trace(const Options& opts);
void finish_trace(const Options& opts);

// -------------------------------------------------------------- workloads

void run_synth_paper(Recorder& rec);
void run_explore_grid(Recorder& rec);
void run_explore_sharded(Recorder& rec);
void run_serve_mixed(Recorder& rec);

}  // namespace perfbench
