// Tests for core/communication specifications and the text parser.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "sunfloor/spec/parser.h"

namespace sunfloor {
namespace {

Core make_core(const std::string& name, double w, double h, int layer) {
    Core c;
    c.name = name;
    c.width = w;
    c.height = h;
    c.layer = layer;
    return c;
}

TEST(CoreSpec, AddAndFind) {
    CoreSpec cs;
    EXPECT_EQ(cs.add_core(make_core("a", 1, 1, 0)), 0);
    EXPECT_EQ(cs.add_core(make_core("b", 2, 1, 1)), 1);
    EXPECT_EQ(cs.find("b"), 1);
    EXPECT_EQ(cs.find("zz"), -1);
    EXPECT_EQ(cs.num_layers(), 2);
}

TEST(CoreSpec, RejectsDuplicatesAndBadSizes) {
    CoreSpec cs;
    cs.add_core(make_core("a", 1, 1, 0));
    EXPECT_THROW(cs.add_core(make_core("a", 1, 1, 0)), std::invalid_argument);
    EXPECT_THROW(cs.add_core(make_core("b", 0, 1, 0)), std::invalid_argument);
    EXPECT_THROW(cs.add_core(make_core("c", 1, 1, -1)), std::invalid_argument);
    // Floorplans live in the first quadrant.
    Core neg_x = make_core("d", 1, 1, 0);
    neg_x.position = {-0.5, 2.0};
    EXPECT_THROW(cs.add_core(neg_x), std::invalid_argument);
    Core neg_y = make_core("e", 1, 1, 0);
    neg_y.position = {2.0, -1e-9};
    EXPECT_THROW(cs.add_core(neg_y), std::invalid_argument);
    EXPECT_EQ(cs.num_cores(), 1);
}

TEST(CoreSpec, LayerQueries) {
    CoreSpec cs;
    cs.add_core(make_core("a", 2, 2, 0));
    cs.add_core(make_core("b", 1, 1, 0));
    cs.add_core(make_core("c", 3, 1, 1));
    EXPECT_EQ(cs.cores_in_layer(0), (std::vector<int>{0, 1}));
    EXPECT_DOUBLE_EQ(cs.layer_area(0), 5.0);
    EXPECT_DOUBLE_EQ(cs.layer_area(1), 3.0);
}

TEST(CoreSpec, FlattenTo2d) {
    CoreSpec cs;
    cs.add_core(make_core("a", 1, 1, 0));
    cs.add_core(make_core("b", 1, 1, 2));
    const CoreSpec flat = cs.flattened_to_2d();
    EXPECT_EQ(flat.num_layers(), 1);
    EXPECT_EQ(flat.num_cores(), 2);
}

TEST(CoreSpec, PlacementLegality) {
    CoreSpec cs;
    cs.add_core(make_core("a", 2, 2, 0));
    cs.add_core(make_core("b", 2, 2, 0));
    cs.core(1).position = {1.0, 1.0};  // overlaps core 0
    EXPECT_FALSE(cs.placement_is_legal());
    cs.core(1).position = {2.0, 0.0};  // abutting is legal
    EXPECT_TRUE(cs.placement_is_legal());
    cs.core(1).layer = 1;  // different layers never conflict
    cs.core(1).position = {0.0, 0.0};
    EXPECT_TRUE(cs.placement_is_legal());
}

TEST(CommSpec, FlowValidation) {
    CommSpec comm;
    Flow f;
    f.src = 0;
    f.dst = 0;
    EXPECT_THROW(comm.add_flow(f), std::invalid_argument);
    f.dst = 1;
    f.bw_mbps = -1.0;
    EXPECT_THROW(comm.add_flow(f), std::invalid_argument);
    f.bw_mbps = 10.0;
    EXPECT_EQ(comm.add_flow(f), 0);
}

TEST(CommSpec, RejectsNonFiniteBandwidthAndLatency) {
    // A NaN bandwidth passes a bare `bw < 0` check (NaN comparisons are
    // false) and then poisons max_bw/total_bw and Pareto ranking; the
    // guard must be explicit.
    CommSpec comm;
    Flow f;
    f.src = 0;
    f.dst = 1;
    f.bw_mbps = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(comm.add_flow(f), std::invalid_argument);
    f.bw_mbps = std::numeric_limits<double>::infinity();
    EXPECT_THROW(comm.add_flow(f), std::invalid_argument);
    f.bw_mbps = 10.0;
    f.max_latency_cycles = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(comm.add_flow(f), std::invalid_argument);
    f.max_latency_cycles = 5.0;
    EXPECT_EQ(comm.add_flow(f), 0);
    EXPECT_DOUBLE_EQ(comm.max_bw(), 10.0);   // aggregates stayed clean
    EXPECT_DOUBLE_EQ(comm.total_bw(), 10.0);
}

TEST(CoreSpec, RejectsNonFiniteGeometry) {
    CoreSpec cs;
    Core c = make_core("nanw", std::numeric_limits<double>::quiet_NaN(),
                       1.0, 0);
    EXPECT_THROW(cs.add_core(c), std::invalid_argument);
    c = make_core("infh", 1.0, std::numeric_limits<double>::infinity(), 0);
    EXPECT_THROW(cs.add_core(c), std::invalid_argument);
    c = make_core("nanp", 1.0, 1.0, 0);
    c.position.x = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(cs.add_core(c), std::invalid_argument);
    EXPECT_EQ(cs.num_cores(), 0);
}

TEST(CommSpec, Aggregates) {
    CommSpec comm;
    comm.add_flow({0, 1, 100.0, 5.0, FlowType::Request});
    comm.add_flow({1, 0, 300.0, 0.0, FlowType::Response});
    comm.add_flow({2, 0, 50.0, 3.0, FlowType::Request});
    EXPECT_DOUBLE_EQ(comm.max_bw(), 300.0);
    EXPECT_DOUBLE_EQ(comm.min_lat(), 3.0);  // unconstrained flow ignored
    EXPECT_DOUBLE_EQ(comm.total_bw(), 450.0);
}

TEST(CommSpec, CommunicationGraphMergesParallelFlows) {
    CommSpec comm;
    comm.add_flow({0, 1, 100.0, 5.0, FlowType::Request});
    comm.add_flow({0, 1, 50.0, 5.0, FlowType::Request});
    const Digraph g = comm.communication_graph(3);
    EXPECT_EQ(g.num_edges(), 1);
    EXPECT_DOUBLE_EQ(g.edge(0).weight, 150.0);
    EXPECT_THROW(comm.communication_graph(1), std::out_of_range);
}

TEST(CommSpec, InterLayerFlows) {
    CommSpec comm;
    comm.add_flow({0, 1, 1.0, 0.0, FlowType::Request});
    comm.add_flow({1, 2, 1.0, 0.0, FlowType::Request});
    const std::vector<int> layer{0, 0, 1};
    EXPECT_EQ(comm.inter_layer_flows(layer), (std::vector<int>{1}));
}

TEST(Parser, RoundTrip) {
    const char* text =
        "# comment\n"
        "core arm0 1.2 1.0 0.0 0.0 0\n"
        "core mem0 0.8 0.8 1.3 0.0 1\n"
        "flow arm0 mem0 400 6 req\n"
        "flow mem0 arm0 400 8 rsp\n";
    std::istringstream is(text);
    const auto r = parse_design(is, "t");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.spec.cores.num_cores(), 2);
    EXPECT_EQ(r.spec.comm.num_flows(), 2);
    EXPECT_EQ(r.spec.comm.flow(1).type, FlowType::Response);
    EXPECT_DOUBLE_EQ(r.spec.cores.core(1).position.x, 1.3);

    std::ostringstream os;
    write_design(os, r.spec);
    std::istringstream is2(os.str());
    const auto r2 = parse_design(is2, "t2");
    ASSERT_TRUE(r2.ok) << r2.error;
    EXPECT_EQ(r2.spec.cores.num_cores(), 2);
    EXPECT_EQ(r2.spec.comm.num_flows(), 2);
    EXPECT_DOUBLE_EQ(r2.spec.comm.flow(0).bw_mbps, 400.0);
}

TEST(Parser, Errors) {
    auto expect_fail = [](const char* text, const char* what) {
        std::istringstream is(text);
        const auto r = parse_design(is);
        EXPECT_FALSE(r.ok) << what;
        EXPECT_FALSE(r.error.empty());
    };
    expect_fail("core a 1 1 0 0\n", "missing layer field");
    expect_fail("core a x 1 0 0 0\n", "bad number");
    expect_fail("flow a b 1 1 req\n", "undeclared cores");
    expect_fail("core a 1 1 0 0 0\ncore b 1 1 0 0 0\nflow a b 1 1 zzz\n",
                "bad flow type");
    expect_fail("bogus line here\n", "unknown directive");
    expect_fail("core a 1 1 0 0 0\ncore a 1 1 0 0 0\n", "duplicate core");
}

// Every error path must name the offending line: a fuzzed or mutated
// 1000-line spec is undebuggable from "malformed fields" alone.
TEST(Parser, ErrorsNameTheOffendingLine) {
    const auto error_of = [](const char* text) {
        std::istringstream is(text);
        const auto r = parse_design(is);
        EXPECT_FALSE(r.ok) << text;
        return r.error;
    };
    const char* two_cores = "core a 1 1 0 0 0\ncore b 1 1 0 0 0\n";

    // Duplicate flow lines (same src, dst and type) name both lines.
    const std::string dup = error_of(
        ("# hdr\n" + std::string(two_cores) +
         "flow a b 1 1 req\nflow a b 2 2 req\n")
            .c_str());
    EXPECT_NE(dup.find("line 5"), std::string::npos) << dup;
    EXPECT_NE(dup.find("duplicate flow"), std::string::npos) << dup;
    EXPECT_NE(dup.find("line 4"), std::string::npos) << dup;

    // Same pair with a different type is NOT a duplicate (req + rsp).
    std::istringstream ok_is(std::string(two_cores) +
                             "flow a b 1 1 req\nflow a b 1 1 rsp\n");
    EXPECT_TRUE(parse_design(ok_is).ok);

    // Undeclared cores are named, with the line.
    const std::string undecl =
        error_of("core a 1 1 0 0 0\nflow a ghost 1 1 req\n");
    EXPECT_NE(undecl.find("line 2"), std::string::npos) << undecl;
    EXPECT_NE(undecl.find("'ghost'"), std::string::npos) << undecl;

    // Out-of-int-range layer: rejected at the parse, naming the line,
    // instead of silently truncating through the long->int cast.
    const std::string trunc = error_of("core a 1 1 0 0 99999999999\n");
    EXPECT_NE(trunc.find("line 1"), std::string::npos) << trunc;

    // In-int-range but absurd layer: rejected with its own message.
    const std::string layer = error_of("core a 1 1 0 0 2000000\n");
    EXPECT_NE(layer.find("line 1"), std::string::npos) << layer;
    EXPECT_NE(layer.find("out of range"), std::string::npos) << layer;

    // A negative coordinate is rejected naming the line.
    for (const char* text : {"core a 1 1 0 0 0\ncore b 1 1 -5 2 0\n",
                             "core a 1 1 0 0 0\ncore b 1 1 2 -0.1 0\n"}) {
        const std::string err = error_of(text);
        EXPECT_NE(err.find("line 2"), std::string::npos) << err;
        EXPECT_NE(err.find("non-negative"), std::string::npos) << err;
    }

    // Non-finite numbers anywhere are malformed fields, with the line.
    for (const char* text :
         {"core a nan 1 0 0 0\n", "core a 1 inf 0 0 0\n",
          "core a 1 1 0 0 0\ncore b 1 1 0 0 0\nflow a b nan 1 req\n",
          "core a 1 1 0 0 0\ncore b 1 1 0 0 0\nflow a b 1e999 1 req\n",
          "core a 1 1 0 0 0\ncore b 1 1 0 0 0\nflow a b 0x20 1 req\n"}) {
        const std::string err = error_of(text);
        EXPECT_NE(err.find("line "), std::string::npos) << text;
        EXPECT_NE(err.find("malformed"), std::string::npos)
            << text << " -> " << err;
    }
}

TEST(Parser, EmptyInputIsValid) {
    std::istringstream is("\n# nothing\n");
    const auto r = parse_design(is);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.spec.cores.num_cores(), 0);
}

}  // namespace
}  // namespace sunfloor
