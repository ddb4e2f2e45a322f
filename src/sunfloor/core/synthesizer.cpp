#include "sunfloor/core/synthesizer.h"

#include "sunfloor/pipeline/session.h"
#include "sunfloor/util/enum_names.h"

namespace sunfloor {

namespace {

constexpr EnumName<SynthesisPhase> kPhaseNames[] = {
    {SynthesisPhase::Auto, "auto"},
    {SynthesisPhase::Phase1, "1"},
    {SynthesisPhase::Phase2, "2"},
};

}  // namespace

const char* phase_to_string(SynthesisPhase phase) {
    return enum_to_string<SynthesisPhase>(kPhaseNames, phase, "auto");
}

bool phase_from_string(const std::string& s, SynthesisPhase& out) {
    return enum_from_string<SynthesisPhase>(kPhaseNames, s, out);
}

std::string phase_choices() {
    return enum_choices<SynthesisPhase>(kPhaseNames);
}

std::vector<FrequencyPoint> run_frequency_sweep(
    const DesignSpec& spec, const SynthesisConfig& cfg,
    const std::vector<double>& freqs_hz, SynthesisPhase phase) {
    // One shared session across the sweep: operating points that agree on
    // the partition inputs reuse those artifacts; results stay
    // bit-identical to per-point run_synthesis calls.
    pipeline::SynthesisSession session(spec);
    std::vector<FrequencyPoint> sweep;
    for (double f : freqs_hz) {
        FrequencyPoint fp;
        fp.freq_hz = f;
        SynthesisConfig point_cfg = cfg;
        point_cfg.eval.freq_hz = f;
        fp.result = session.run(point_cfg, phase);
        sweep.push_back(std::move(fp));
    }
    return sweep;
}

std::pair<int, int> best_power_over_sweep(
    const std::vector<FrequencyPoint>& sweep) {
    int bi = -1;
    int bj = -1;
    double best = 0.0;
    for (int i = 0; i < static_cast<int>(sweep.size()); ++i) {
        const int j = sweep[static_cast<std::size_t>(i)].result
                          .best_power_index();
        if (j < 0) continue;
        const double p = sweep[static_cast<std::size_t>(i)]
                             .result.points[static_cast<std::size_t>(j)]
                             .report.power.total_mw();
        if (bi < 0 || p < best) {
            best = p;
            bi = i;
            bj = j;
        }
    }
    return {bi, bj};
}

SynthesisResult run_synthesis(const DesignSpec& spec,
                              const SynthesisConfig& cfg,
                              SynthesisPhase phase) {
    return pipeline::SynthesisSession(spec).run(cfg, phase);
}

}  // namespace sunfloor
