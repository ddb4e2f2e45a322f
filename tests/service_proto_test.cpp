// Wire-protocol input validation: every malformed frame is rejected
// with an error naming the offending field, byte, or limit — these
// strings are part of the protocol surface, so the tests pin them.
// Also covers the client frame builders (round-trip through
// parse_request) and build_job_request's spec-error passthrough.
#include <gtest/gtest.h>

#include <string>

#include "sunfloor/service/protocol.h"
#include "sunfloor/service/transport.h"
#include "sunfloor/spec/benchmarks.h"
#include "sunfloor/spec/parser.h"

namespace sunfloor::service {
namespace {

constexpr long long kNoLimit = 0;

// A minimal valid two-core spec for frames that must get past the spec
// parser.
const char kTinySpec[] =
    "core a 1.0 1.0 0 0 0\n"
    "core b 1.0 1.0 1 0 0\n"
    "flow a b 100 1000 req\n";

std::string parse_error(const std::string& frame,
                        long long max_bytes = kNoLimit) {
    Request req;
    std::string error;
    EXPECT_FALSE(parse_request(frame, max_bytes, req, error)) << frame;
    return error;
}

Request parse_ok(const std::string& frame) {
    Request req;
    std::string error;
    EXPECT_TRUE(parse_request(frame, kNoLimit, req, error)) << error;
    return req;
}

std::string submit_frame(const std::string& config_json,
                         const char* kind = "synth") {
    std::string f = "{\"op\":\"submit\",\"kind\":\"";
    f += kind;
    f += "\",\"spec\":\"core a 1 1 0 0 0\\n\"";
    if (!config_json.empty()) f += ",\"config\":" + config_json;
    return f + "}";
}

// ----------------------------------------------------- frame-level checks

TEST(ServiceProto, OversizedFrameNamesBothSizes) {
    const std::string frame(100, ' ');
    EXPECT_EQ(parse_error(frame, 64),
              "frame of 100 bytes exceeds the 64 byte limit");
}

TEST(ServiceProto, MalformedJsonCarriesByteOffset) {
    const std::string err = parse_error("{\"op\":");
    EXPECT_EQ(err.rfind("malformed JSON: ", 0), 0u) << err;
    EXPECT_NE(err.find("at byte"), std::string::npos) << err;
}

TEST(ServiceProto, DuplicateKeysRejected) {
    const std::string err =
        parse_error("{\"op\":\"stats\",\"op\":\"stats\"}");
    EXPECT_NE(err.find("duplicate object key \"op\""), std::string::npos)
        << err;
}

TEST(ServiceProto, NonObjectFrameRejected) {
    EXPECT_EQ(parse_error("[1,2,3]"),
              "request frame must be a JSON object");
}

TEST(ServiceProto, MissingOrBadOp) {
    EXPECT_EQ(parse_error("{}"), "request missing required field \"op\"");
    EXPECT_EQ(parse_error("{\"op\":7}"),
              "bad \"op\" value: expected a string");
    EXPECT_EQ(parse_error("{\"op\":\"frobnicate\"}"),
              "unknown op \"frobnicate\" (expected "
              "submit|status|result|stats|shutdown)");
}

// ------------------------------------------------------- submit validation

TEST(ServiceProto, SubmitRequiresSpec) {
    EXPECT_EQ(parse_error("{\"op\":\"submit\"}"),
              "submit request missing required field \"spec\"");
    EXPECT_EQ(parse_error("{\"op\":\"submit\",\"spec\":\"\"}"),
              "bad \"spec\" value: expected a non-empty string");
}

TEST(ServiceProto, SubmitUnknownTopLevelFieldNamed) {
    EXPECT_EQ(
        parse_error(
            "{\"op\":\"submit\",\"spec\":\"x\",\"frobnicate\":1}"),
        "unknown field \"frobnicate\" in submit request");
}

TEST(ServiceProto, UnknownConfigFieldNamed) {
    EXPECT_EQ(parse_error(submit_frame("{\"frobnicate\":1}")),
              "unknown field \"config.frobnicate\"");
}

TEST(ServiceProto, NonFiniteFrequencyRejectedByTheJsonLayer) {
    // "1e999" overflows to inf; the strict parser refuses it before the
    // field validator ever sees a value.
    const std::string err =
        parse_error(submit_frame("{\"freq_mhz\":1e999}"));
    EXPECT_NE(err.find("malformed or non-finite number"),
              std::string::npos)
        << err;
}

TEST(ServiceProto, NumericKnobDomainsAreChecked) {
    EXPECT_EQ(parse_error(submit_frame("{\"freq_mhz\":0}")),
              "bad \"config.freq_mhz\" value: expected a finite number "
              "> 0");
    EXPECT_EQ(parse_error(submit_frame("{\"freq_mhz\":\"fast\"}")),
              "bad \"config.freq_mhz\" value: expected a finite number "
              "> 0");
    EXPECT_EQ(parse_error(submit_frame("{\"max_tsvs\":0}")),
              "bad \"config.max_tsvs\" value: expected an integer >= 1");
    EXPECT_EQ(parse_error(submit_frame("{\"max_tsvs\":2.5}")),
              "bad \"config.max_tsvs\" value: expected an integer >= 1");
    EXPECT_EQ(parse_error(submit_frame("{\"alpha\":1.5}")),
              "bad \"config.alpha\" value: expected a number in [0, 1]");
    EXPECT_EQ(parse_error(submit_frame("{\"seed\":-1}")),
              "bad \"config.seed\" value: expected a non-negative "
              "integer");
    EXPECT_EQ(parse_error(submit_frame("{\"floorplan\":1}")),
              "bad \"config.floorplan\" value: expected a bool");
}

TEST(ServiceProto, BadEnumValuesListTheChoices) {
    const std::string phase_err =
        parse_error(submit_frame("{\"phase\":\"phase9\"}"));
    EXPECT_EQ(phase_err.rfind("bad \"config.phase\" value", 0), 0u)
        << phase_err;
    const std::string routing_err =
        parse_error(submit_frame("{\"routing\":\"zigzag\"}"));
    EXPECT_EQ(routing_err.rfind("bad \"config.routing\" value", 0), 0u)
        << routing_err;
    const std::string kind_err = parse_error(
        "{\"op\":\"submit\",\"spec\":\"x\",\"kind\":\"dream\"}");
    EXPECT_EQ(kind_err, "bad \"kind\" value (expected synth|explore)");
}

TEST(ServiceProto, EmptyAxisArrayRejected) {
    EXPECT_EQ(parse_error(submit_frame("{\"freq_mhz\":[]}")),
              "field \"config.freq_mhz\" must not be an empty array");
}

TEST(ServiceProto, SynthJobsRejectMultiValuedAxes) {
    EXPECT_EQ(parse_error(submit_frame("{\"freq_mhz\":[400,600]}")),
              "field \"config.freq_mhz\" must be a single value for "
              "synth jobs");
    // The same frame is a legal explore job.
    const Request req =
        parse_ok(submit_frame("{\"freq_mhz\":[400,600]}", "explore"));
    EXPECT_EQ(req.submit.kind, JobKind::Explore);
    ASSERT_EQ(req.submit.params.freq_mhz.size(), 2u);
}

TEST(ServiceProto, SynthJobsRejectExploreOnlyAxes) {
    EXPECT_EQ(parse_error(submit_frame("{\"theta\":0.5}")),
              "field \"config.theta\" is only valid for explore jobs");
    EXPECT_EQ(parse_error(submit_frame("{\"width_bits\":32}")),
              "field \"config.width_bits\" is only valid for explore "
              "jobs");
    const Request req =
        parse_ok(submit_frame("{\"theta\":0.5}", "explore"));
    ASSERT_EQ(req.submit.params.thetas.size(), 1u);
    EXPECT_DOUBLE_EQ(req.submit.params.thetas[0], 0.5);
}

TEST(ServiceProto, ScalarAxesParseAsOneElementVectors) {
    const Request req = parse_ok(submit_frame(
        "{\"freq_mhz\":500,\"max_tsvs\":12,\"phase\":\"1\","
        "\"routing\":\"up-down\",\"alpha\":0.25,\"seed\":7,"
        "\"floorplan\":false}"));
    const JobParams& p = req.submit.params;
    ASSERT_EQ(p.freq_mhz.size(), 1u);
    EXPECT_DOUBLE_EQ(p.freq_mhz[0], 500.0);
    ASSERT_EQ(p.max_tsvs.size(), 1u);
    EXPECT_EQ(p.max_tsvs[0], 12);
    ASSERT_EQ(p.phases.size(), 1u);
    EXPECT_EQ(p.phases[0], SynthesisPhase::Phase1);
    ASSERT_EQ(p.routings.size(), 1u);
    EXPECT_DOUBLE_EQ(p.alpha, 0.25);
    EXPECT_EQ(p.seed, 7);
    EXPECT_FALSE(p.floorplan);
}

// --------------------------------------------------- status/result/stats

TEST(ServiceProto, IdRequestsRequireAnId) {
    EXPECT_EQ(parse_error("{\"op\":\"status\"}"),
              "status request missing required field \"id\"");
    EXPECT_EQ(parse_error("{\"op\":\"result\"}"),
              "result request missing required field \"id\"");
    EXPECT_EQ(parse_error("{\"op\":\"status\",\"id\":-3}"),
              "bad \"id\" value: expected a non-negative integer");
    EXPECT_EQ(parse_error("{\"op\":\"status\",\"id\":1.5}"),
              "bad \"id\" value: expected a non-negative integer");
}

TEST(ServiceProto, StatusDoesNotAcceptWait) {
    EXPECT_EQ(parse_error("{\"op\":\"status\",\"id\":1,\"wait\":true}"),
              "unknown field \"wait\" in status request");
    const Request req =
        parse_ok("{\"op\":\"result\",\"id\":1,\"wait\":true}");
    EXPECT_EQ(req.op, Request::Op::Result);
    EXPECT_TRUE(req.wait);
}

TEST(ServiceProto, StatsAndShutdownRejectExtraFields) {
    EXPECT_EQ(parse_error("{\"op\":\"stats\",\"id\":1}"),
              "unknown field \"id\" in stats request");
    EXPECT_EQ(parse_error("{\"op\":\"shutdown\",\"force\":true}"),
              "unknown field \"force\" in shutdown request");
}

// ------------------------------------------------- frame builders round-trip

TEST(ServiceProto, SubmitFrameRoundTripsThroughParseRequest) {
    SubmitRequest sr;
    sr.client = "ci \"quoted\"";
    sr.kind = JobKind::Explore;
    sr.spec_name = "tiny";
    sr.spec_text = kTinySpec;
    sr.params.freq_mhz = {400.0, 612.5};
    sr.params.max_tsvs = {10, 25};
    sr.params.width_bits = {16, 32};
    sr.params.thetas = {0.25, 0.75};
    sr.params.phases = {SynthesisPhase::Phase1, SynthesisPhase::Phase2};
    sr.params.alpha = 0.375;
    sr.params.seed = 1234567;
    sr.params.floorplan = false;
    sr.wait = true;

    const Request req = parse_ok(make_submit_frame(sr));
    EXPECT_EQ(req.op, Request::Op::Submit);
    EXPECT_EQ(req.submit.client, sr.client);
    EXPECT_EQ(req.submit.kind, JobKind::Explore);
    EXPECT_EQ(req.submit.spec_name, "tiny");
    EXPECT_EQ(req.submit.spec_text, sr.spec_text);
    EXPECT_EQ(req.submit.params.freq_mhz, sr.params.freq_mhz);
    EXPECT_EQ(req.submit.params.max_tsvs, sr.params.max_tsvs);
    EXPECT_EQ(req.submit.params.width_bits, sr.params.width_bits);
    EXPECT_EQ(req.submit.params.thetas, sr.params.thetas);
    EXPECT_EQ(req.submit.params.phases, sr.params.phases);
    EXPECT_DOUBLE_EQ(req.submit.params.alpha, 0.375);
    EXPECT_EQ(req.submit.params.seed, 1234567);
    EXPECT_FALSE(req.submit.params.floorplan);
    EXPECT_TRUE(req.submit.wait);
}

TEST(ServiceProto, IdAndNullaryFramesRoundTrip) {
    Request req = parse_ok(make_status_frame(42));
    EXPECT_EQ(req.op, Request::Op::Status);
    EXPECT_EQ(req.id, 42u);
    req = parse_ok(make_result_frame(7, true));
    EXPECT_EQ(req.op, Request::Op::Result);
    EXPECT_EQ(req.id, 7u);
    EXPECT_TRUE(req.wait);
    EXPECT_EQ(parse_ok(make_stats_frame()).op, Request::Op::Stats);
    EXPECT_EQ(parse_ok(make_shutdown_frame()).op, Request::Op::Shutdown);
}

// ------------------------------------------------------ build_job_request

TEST(ServiceProto, BuildJobRequestParsesTheSpecText) {
    SubmitRequest sr;
    sr.spec_text = kTinySpec;
    sr.spec_name = "tiny";
    JobRequest jr;
    std::string error;
    ASSERT_TRUE(build_job_request(sr, jr, error)) << error;
    EXPECT_EQ(jr.spec.name, "tiny");
    EXPECT_EQ(jr.spec.cores.num_cores(), 2);
    EXPECT_EQ(jr.spec_text, sr.spec_text);
}

TEST(ServiceProto, BuildJobRequestPassesSpecErrorsThroughPrefixed) {
    SubmitRequest sr;
    sr.spec_text = "core a 1 1 0 0 0\nbogus line here\n";
    JobRequest jr;
    std::string error;
    EXPECT_FALSE(build_job_request(sr, jr, error));
    EXPECT_EQ(error.rfind("spec: ", 0), 0u) << error;
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;

    // A core outside the first quadrant is a spec error too.
    sr.spec_text = "core a 1 1 0 0 0\ncore b 1 1 -2 0 0\n";
    EXPECT_FALSE(build_job_request(sr, jr, error));
    EXPECT_EQ(error.rfind("spec: line 2: ", 0), 0u) << error;
    EXPECT_NE(error.find("non-negative"), std::string::npos) << error;
}

// ------------------------------------------------------- address parsing

TEST(ServiceProto, ParseAddressClassifiesUnixAndTcp) {
    Address a;
    std::string error;
    ASSERT_TRUE(parse_address("/tmp/sunfloord.sock", a, error));
    EXPECT_TRUE(a.is_unix);
    EXPECT_EQ(a.path, "/tmp/sunfloord.sock");
    ASSERT_TRUE(parse_address("127.0.0.1:7070", a, error));
    EXPECT_FALSE(a.is_unix);
    EXPECT_EQ(a.host, "127.0.0.1");
    EXPECT_EQ(a.port, 7070);
    EXPECT_FALSE(parse_address("", a, error));
    EXPECT_EQ(error, "empty address");
    EXPECT_FALSE(parse_address("localhost", a, error));
    EXPECT_NE(error.find("expected host:port"), std::string::npos);
    EXPECT_FALSE(parse_address("localhost:0", a, error));
    EXPECT_EQ(error, "bad port in address \"localhost:0\"");
}

}  // namespace
}  // namespace sunfloor::service
