// `--trace <file>` / `--metrics <file|->` handling shared by the
// sunfloor_cli subcommands and both daemons. Sinks are opened
// before the run, so a bad path fails fast with a named-path error
// instead of after minutes of work; finish() writes both files once the
// run is quiescent. An early error return drops a started trace in the
// destructor.
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sunfloor/obs/metrics.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/tools/flags.h"

namespace sunfloor::tools {

class ObsSinks {
  public:
    ~ObsSinks() {
        if (tracing_) obs::discard_trace();
    }

    /// The --trace and --metrics rows; the paths are read by open().
    std::vector<Flag> flags() {
        return {flag("--trace", trace_path_, a_string("file")),
                flag("--metrics", metrics_path_, a_string("file|-"))};
    }

    /// Where the human-readable report goes: stderr when `--metrics -`
    /// claims stdout for the snapshot, so stdout holds only the JSON;
    /// stdout otherwise. Valid once the flags are parsed.
    FILE* report() const { return metrics_path_ == "-" ? stderr : stdout; }

    /// Open both sinks and start recording. False (message printed) when
    /// a path cannot be written.
    bool open() {
        if (!trace_path_.empty()) {
            trace_out_.open(trace_path_);
            if (!trace_out_) {
                std::fprintf(stderr, "cannot write %s\n",
                             trace_path_.c_str());
                return false;
            }
            tracing_ = obs::start_tracing();
        }
        if (!metrics_path_.empty() && metrics_path_ != "-") {
            metrics_out_.open(metrics_path_);
            if (!metrics_out_) {
                std::fprintf(stderr, "cannot write %s\n",
                             metrics_path_.c_str());
                return false;
            }
        }
        return true;
    }

    /// Merge and write the trace, snapshot the metrics registry. Call
    /// after the run's thread pools have joined. False on write failure.
    bool finish() {
        bool ok = true;
        if (tracing_) {
            obs::stop_tracing(trace_out_);
            tracing_ = false;
            trace_out_.flush();
            if (!trace_out_) {
                std::fprintf(stderr, "cannot write %s\n",
                             trace_path_.c_str());
                ok = false;
            } else {
                std::fprintf(report(), "wrote %s\n", trace_path_.c_str());
            }
        }
        if (!metrics_path_.empty()) {
            if (metrics_path_ == "-") {
                obs::Registry::global().write_json(std::cout);
            } else {
                obs::Registry::global().write_json(metrics_out_);
                metrics_out_.flush();
                if (!metrics_out_) {
                    std::fprintf(stderr, "cannot write %s\n",
                                 metrics_path_.c_str());
                    ok = false;
                } else {
                    std::fprintf(report(), "wrote %s\n",
                                 metrics_path_.c_str());
                }
            }
        }
        return ok;
    }

  private:
    std::string trace_path_;
    std::string metrics_path_;
    std::ofstream trace_out_;
    std::ofstream metrics_out_;
    bool tracing_ = false;
};

}  // namespace sunfloor::tools
