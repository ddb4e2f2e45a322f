// Golden-file regression tests for the exploration exporters: the CSV
// and JSON documents of a hand-built ExploreResult are pinned byte for
// byte, so column order, escaping and float formatting cannot drift
// silently. If a change here is intentional, update the golden strings
// *and* the format documentation in explore/export.h.
//
// The RoutingPolicy redesign added a `routing` CSV column and `routing` /
// `capacity_violations` JSON point fields; the ModuloAddedFields tests
// prove the default-policy documents are still byte-identical to the
// pre-redesign goldens once those additions are stripped back out.
//
// Removing the Explorer's point cache later dropped the per-point
// cache-hit flag (the CSV column before fail_reason and the JSON point
// field) and the two point-cache counters from the JSON stats. Every
// golden below, the pre-redesign ones included, was re-pinned without
// them; nothing else moved. The explore exports carry no schema version,
// so these strings are the format's version record.
#include <gtest/gtest.h>

#include <sstream>

#include "sunfloor/explore/explorer.h"
#include "sunfloor/explore/export.h"

namespace sunfloor {
namespace {

/// A fully deterministic two-design result: one valid design on the
/// front, one failed design whose fail_reason needs CSV quoting.
ExploreResult golden_result(bool with_sim) {
    CoreSpec cores;
    Core a;
    a.name = "a";
    a.position = {0.0, 0.0};
    Core b = a;
    b.name = "b";
    b.position = {1.5, 0.0};
    cores.add_core(a);
    cores.add_core(b);

    Topology topo(cores, 1);
    topo.add_switch("sw0", 0, {0.75, 0.5});

    DesignPoint valid(topo);
    valid.phase = "phase1";
    valid.switch_count = 3;
    valid.theta = 4.0;
    valid.valid = true;
    valid.report.power.switch_mw = 10.5;
    valid.report.power.s2s_link_mw = 1.25;
    valid.report.power.c2s_link_mw = 0.75;
    valid.report.power.ni_mw = 0.5;
    valid.report.avg_latency_cycles = 2.125;
    valid.report.switch_area_mm2 = 0.5;
    valid.report.ni_area_mm2 = 0.25;
    valid.report.tsv_macro_area_mm2 = 0.0625;
    valid.report.total_tsvs = 12;

    DesignPoint failed(topo);
    failed.phase = "phase1";
    failed.switch_count = 4;
    failed.valid = false;
    failed.fail_reason = "routing failed, \"req\" class";
    failed.capacity_violations = 2;

    ExplorePointResult pr;
    pr.point.index = 0;
    pr.point.freq_hz = 400e6;
    pr.point.max_tsvs = 25;
    pr.point.link_width_bits = 32;
    pr.point.phase = SynthesisPhase::Auto;
    pr.point.theta = 4.0;
    pr.result.points.push_back(valid);
    pr.result.points.push_back(failed);
    pr.result.phase_used = "phase1";
    pr.seed = 1;
    pr.pareto_survivors = 1;
    if (with_sim) {
        pr.sim_reports.resize(2);
        auto& sr = pr.sim_reports[0];
        sr.avg_latency_cycles = 3.25;
        sr.p99_latency_cycles = 7.5;
        sr.accepted_flits_per_cycle = 0.515625;
        sr.cycles_run = 1000;  // marks the design as simulated
    }

    ExploreResult res;
    res.points.push_back(std::move(pr));
    res.pareto.push_back({0, 0});
    res.stats.total_points = 1;
    res.stats.total_designs = 2;
    res.stats.valid_designs = 1;
    res.stats.unique_valid_designs = 1;
    res.stats.pareto_size = 1;
    res.stats.dominated_designs = 0;
    res.stats.num_threads = 1;
    res.stats.backend =
        with_sim ? EvalBackend::Simulated : EvalBackend::Analytic;
    res.stats.simulated_designs = with_sim ? 1 : 0;
    res.stats.stage.partition = {3, 2, 1.5};
    res.stats.stage.routing = {0, 5, 20.25};
    res.stats.stage.placement = {0, 5, 2.0};
    res.stats.stage.position_lp = {2, 3, 1.75};
    res.stats.stage.evaluation = {1, 4, 0.5};
    res.stats.elapsed_ms = 12.3456;
    return res;
}

/// Strip one column (0-based) out of a CSV document. Quoted cells in the
/// golden data never contain commas in the stripped column, and the
/// `routing` column holds bare policy names, so a plain comma split is
/// exact here.
std::string strip_csv_column(const std::string& csv, std::size_t col) {
    std::string out;
    std::istringstream is(csv);
    std::string line;
    while (std::getline(is, line)) {
        std::size_t start = 0;
        for (std::size_t c = 0; c < col; ++c)
            start = line.find(',', start) + 1;
        const std::size_t end = line.find(',', start);
        line.erase(start, end - start + 1);
        out += line;
        out += '\n';
    }
    return out;
}

/// Remove every `, "name": value` member from a JSON document (value =
/// one quoted string or bare token, which is all the exporter emits).
std::string strip_json_field(std::string json, const std::string& name) {
    const std::string needle = ", \"" + name + "\": ";
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at)) {
        std::size_t end = at + needle.size();
        if (json[end] == '"') end = json.find('"', end + 1) + 1;
        while (end < json.size() && json[end] != ',' && json[end] != '}' &&
               json[end] != '\n')
            ++end;
        json.erase(at, end - at);
    }
    return json;
}

const char* const kCsvGolden =
    "point,freq_mhz,max_tsvs,link_width_bits,phase,theta,routing,switches,"
    "valid,power_mw,latency_cycles,sim_latency_cycles,area_mm2,tsvs,"
    "pareto,fail_reason\n"
    "0,400,25,32,auto,4,up-down,3,1,13,2.125,-1,0.8125,12,1,\n"
    "0,400,25,32,auto,4,up-down,4,0,0,0,-1,0,0,0,"
    "\"routing failed, \"\"req\"\" class\"\n";

TEST(ExportGolden, CsvByteExact) {
    std::ostringstream os;
    explore_table(golden_result(false)).write_csv(os);
    EXPECT_EQ(os.str(), kCsvGolden);
}

TEST(ExportGolden, CsvSimLatencyColumn) {
    std::ostringstream os;
    explore_table(golden_result(true)).write_csv(os);
    const std::string expected =
        "point,freq_mhz,max_tsvs,link_width_bits,phase,theta,routing,"
        "switches,"
        "valid,power_mw,latency_cycles,sim_latency_cycles,area_mm2,tsvs,"
        "pareto,fail_reason\n"
        "0,400,25,32,auto,4,up-down,3,1,13,2.125,3.25,0.8125,12,1,\n"
        "0,400,25,32,auto,4,up-down,4,0,0,0,-1,0,0,0,"
        "\"routing failed, \"\"req\"\" class\"\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(ExportGolden, CsvModuloAddedFieldMatchesPreRedesignGolden) {
    // The pre-redesign CSV golden, minus the removed cache-hit column:
    // dropping the added `routing` column (index 6) from today's
    // default-policy document must reproduce it byte for byte.
    const std::string pre_redesign =
        "point,freq_mhz,max_tsvs,link_width_bits,phase,theta,switches,"
        "valid,power_mw,latency_cycles,sim_latency_cycles,area_mm2,tsvs,"
        "pareto,fail_reason\n"
        "0,400,25,32,auto,4,3,1,13,2.125,-1,0.8125,12,1,\n"
        "0,400,25,32,auto,4,4,0,0,0,-1,0,0,0,"
        "\"routing failed, \"\"req\"\" class\"\n";
    std::ostringstream os;
    explore_table(golden_result(false)).write_csv(os);
    EXPECT_EQ(strip_csv_column(os.str(), 6), pre_redesign);
}

TEST(ExportGolden, CsvNonDefaultPolicyRow) {
    ExploreResult res = golden_result(false);
    res.points[0].point.routing = routing::RoutingPolicyId::WestFirst;
    std::ostringstream os;
    explore_table(res).write_csv(os);
    EXPECT_NE(os.str().find("0,400,25,32,auto,4,west-first,3,"),
              std::string::npos);
}

const char* const kJsonGolden =
    "{\n"
        "  \"design\": \"D \\\"golden\\\"\",\n"
        "  \"stats\": {\n"
        "    \"total_points\": 1,\n"
        "    \"total_designs\": 2,\n"
        "    \"valid_designs\": 1,\n"
        "    \"unique_valid_designs\": 1,\n"
        "    \"pareto_size\": 1,\n"
        "    \"dominated_designs\": 0,\n"
        "    \"num_threads\": 1,\n"
        "    \"backend\": \"analytic\",\n"
        "    \"simulated_designs\": 0,\n"
        "    \"stages\": {\n"
        "      \"partition\": {\"hits\": 3, \"misses\": 2,"
        " \"compute_ms\": 1.500},\n"
        "      \"routing\": {\"hits\": 0, \"misses\": 5,"
        " \"compute_ms\": 20.250},\n"
        "      \"placement\": {\"hits\": 0, \"misses\": 5,"
        " \"compute_ms\": 2.000},\n"
        "      \"position_lp\": {\"hits\": 2, \"misses\": 3,"
        " \"compute_ms\": 1.750},\n"
        "      \"evaluation\": {\"hits\": 1, \"misses\": 4,"
        " \"compute_ms\": 0.500}\n"
        "    },\n"
        "    \"elapsed_ms\": 12.346\n"
        "  },\n"
    "  \"points\": [\n"
    "    {\"point\": 0, \"label\": \"f=400MHz tsv=25 w=32 phase=auto"
    " theta=4\", \"freq_hz\": 400000000, \"max_tsvs\": 25,"
    " \"link_width_bits\": 32, \"phase\": \"auto\", \"theta\": 4,"
    " \"routing\": \"up-down\","
    " \"phase_used\": \"phase1\","
    " \"designs\": 2, \"valid\": 1, \"capacity_violations\": 2,"
    " \"pareto_survivors\": 1}\n"
    "  ],\n"
    "  \"pareto\": [\n"
    "    {\"point\": 0, \"design\": 0, \"switches\": 3,"
    " \"power_mw\": 13.0000, \"latency_cycles\": 2.1250,"
    " \"area_mm2\": 0.8125}\n"
    "  ]\n"
    "}\n";

TEST(ExportGolden, JsonByteExact) {
    std::ostringstream os;
    write_explore_json(os, golden_result(false), "D \"golden\"");
    EXPECT_EQ(os.str(), kJsonGolden);
}

TEST(ExportGolden, JsonModuloAddedFieldsMatchesPreRedesignGolden) {
    // The pre-redesign JSON golden, minus the removed point-cache fields:
    // stripping the two added point fields (`routing`,
    // `capacity_violations`) from today's default-policy document must
    // reproduce it byte for byte. The default-policy label in particular
    // is unchanged (non-default policies append " routing=<name>").
    const std::string pre_redesign =
        "{\n"
        "  \"design\": \"D \\\"golden\\\"\",\n"
        "  \"stats\": {\n"
        "    \"total_points\": 1,\n"
        "    \"total_designs\": 2,\n"
        "    \"valid_designs\": 1,\n"
        "    \"unique_valid_designs\": 1,\n"
        "    \"pareto_size\": 1,\n"
        "    \"dominated_designs\": 0,\n"
        "    \"num_threads\": 1,\n"
        "    \"backend\": \"analytic\",\n"
        "    \"simulated_designs\": 0,\n"
        "    \"stages\": {\n"
        "      \"partition\": {\"hits\": 3, \"misses\": 2,"
        " \"compute_ms\": 1.500},\n"
        "      \"routing\": {\"hits\": 0, \"misses\": 5,"
        " \"compute_ms\": 20.250},\n"
        "      \"placement\": {\"hits\": 0, \"misses\": 5,"
        " \"compute_ms\": 2.000},\n"
        "      \"position_lp\": {\"hits\": 2, \"misses\": 3,"
        " \"compute_ms\": 1.750},\n"
        "      \"evaluation\": {\"hits\": 1, \"misses\": 4,"
        " \"compute_ms\": 0.500}\n"
        "    },\n"
        "    \"elapsed_ms\": 12.346\n"
        "  },\n"
        "  \"points\": [\n"
        "    {\"point\": 0, \"label\": \"f=400MHz tsv=25 w=32 phase=auto"
        " theta=4\", \"freq_hz\": 400000000, \"max_tsvs\": 25,"
        " \"link_width_bits\": 32, \"phase\": \"auto\", \"theta\": 4,"
        " \"phase_used\": \"phase1\","
        " \"designs\": 2, \"valid\": 1, \"pareto_survivors\": 1}\n"
        "  ],\n"
        "  \"pareto\": [\n"
        "    {\"point\": 0, \"design\": 0, \"switches\": 3,"
        " \"power_mw\": 13.0000, \"latency_cycles\": 2.1250,"
        " \"area_mm2\": 0.8125}\n"
        "  ]\n"
        "}\n";
    std::ostringstream os;
    write_explore_json(os, golden_result(false), "D \"golden\"");
    std::string actual = strip_json_field(os.str(), "routing");
    actual = strip_json_field(actual, "capacity_violations");
    EXPECT_EQ(actual, pre_redesign);
}

TEST(ExportGolden, JsonNonDefaultPolicyPoint) {
    ExploreResult res = golden_result(false);
    res.points[0].point.routing = routing::RoutingPolicyId::OddEven;
    std::ostringstream os;
    write_explore_json(os, res, "D_oddeven");
    const std::string json = os.str();
    EXPECT_NE(json.find("\"routing\": \"odd-even\""), std::string::npos);
    EXPECT_NE(json.find("phase=auto theta=4 routing=odd-even\""),
              std::string::npos);
}

TEST(ExportGolden, JsonSimFields) {
    std::ostringstream os;
    write_explore_json(os, golden_result(true), "D_sim");
    const std::string json = os.str();
    EXPECT_NE(json.find("\"backend\": \"sim\""), std::string::npos);
    EXPECT_NE(json.find("\"simulated_designs\": 1"), std::string::npos);
    EXPECT_NE(json.find("{\"point\": 0, \"design\": 0, \"switches\": 3,"
                        " \"power_mw\": 13.0000,"
                        " \"latency_cycles\": 2.1250,"
                        " \"sim_latency_cycles\": 3.2500,"
                        " \"sim_p99_latency_cycles\": 7.5000,"
                        " \"sim_accepted_flits_per_cycle\": 0.5156,"
                        " \"area_mm2\": 0.8125}"),
              std::string::npos);
}

TEST(ExportGolden, JsonQuoteControlCharacters) {
    EXPECT_EQ(json_quote("tab\there"), "\"tab\\there\"");
    EXPECT_EQ(json_quote(std::string("nul\x01") + "x"), "\"nul\\u0001x\"");
}

}  // namespace
}  // namespace sunfloor
