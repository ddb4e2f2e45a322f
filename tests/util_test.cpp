// Unit tests for the util substrate: geometry, RNG, strings, tables.
#include <gtest/gtest.h>

#include <sstream>

#include "oracle/placement_checks.h"
#include "sunfloor/util/csv.h"
#include "sunfloor/util/geometry.h"
#include "sunfloor/util/json.h"
#include "sunfloor/util/rng.h"
#include "sunfloor/util/strings.h"

namespace sunfloor {
namespace {

TEST(Geometry, Manhattan) {
    EXPECT_DOUBLE_EQ(manhattan({0, 0}, {3, 4}), 7.0);
    EXPECT_DOUBLE_EQ(manhattan({-1, 2}, {-1, 2}), 0.0);
}

TEST(Geometry, RectBasics) {
    const Rect r{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(r.right(), 4.0);
    EXPECT_DOUBLE_EQ(r.top(), 6.0);
    EXPECT_DOUBLE_EQ(r.area(), 12.0);
    EXPECT_EQ(r.center(), (Point{2.5, 4.0}));
}

TEST(Geometry, OverlapDetection) {
    const Rect a{0, 0, 2, 2};
    const Rect b{1, 1, 2, 2};
    const Rect c{2, 0, 2, 2};  // abutting, not overlapping
    EXPECT_TRUE(a.overlaps(b));
    EXPECT_FALSE(a.overlaps(c));
}

TEST(Geometry, ContainsAndUnion) {
    const Rect a{0, 0, 4, 4};
    EXPECT_TRUE(a.contains(Point{4, 4}));
    EXPECT_FALSE(a.contains(Point{4.1, 4}));
    const Rect u = a.united({5, 5, 1, 1});
    EXPECT_DOUBLE_EQ(u.right(), 6.0);
    EXPECT_DOUBLE_EQ(u.top(), 6.0);
}

TEST(Geometry, BoundingBoxAndTotalOverlap) {
    std::vector<Rect> rects{{0, 0, 1, 1}, {2, 2, 1, 1}};
    const Rect bb = bounding_box(rects);
    EXPECT_DOUBLE_EQ(bb.area(), 9.0);
    // The oracle the floorplan suites check legality with.
    EXPECT_DOUBLE_EQ(oracle::total_overlap(rects), 0.0);
    rects.push_back({0.5, 0.5, 1, 1});
    EXPECT_DOUBLE_EQ(oracle::total_overlap(rects), 0.25);
    EXPECT_TRUE(bounding_box({}).area() == 0.0);
}

TEST(Rng, Deterministic) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
    EXPECT_LT(same, 4);
}

TEST(Rng, RangesRespected) {
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double d = r.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        const int v = r.next_int(-3, 5);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 5);
        EXPECT_LT(r.next_below(10), 10u);
    }
}

TEST(Rng, NextBelowCoversAllValues) {
    Rng r(11);
    std::vector<int> seen(5, 0);
    for (int i = 0; i < 500; ++i)
        ++seen[static_cast<std::size_t>(r.next_below(5))];
    for (int count : seen) EXPECT_GT(count, 0);
}

TEST(Rng, ShufflePreservesElements) {
    Rng r(3);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Strings, Trim) {
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("abc"), "abc");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(Strings, Split) {
    const auto parts = split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitWs) {
    const auto parts = split_ws("  core  arm0\t1.2  ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "core");
    EXPECT_EQ(parts[1], "arm0");
    EXPECT_EQ(parts[2], "1.2");
    EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, Format) {
    EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(format("%.2f", 1.5), "1.50");
}

TEST(Strings, ParseDouble) {
    double d = 0.0;
    EXPECT_TRUE(parse_double("3.5", d));
    EXPECT_DOUBLE_EQ(d, 3.5);
    EXPECT_TRUE(parse_double(" -2e3 ", d));
    EXPECT_DOUBLE_EQ(d, -2000.0);
    EXPECT_FALSE(parse_double("abc", d));
    EXPECT_FALSE(parse_double("1.5x", d));
    EXPECT_FALSE(parse_double("", d));
}

TEST(Strings, ParseDoubleRejectsNonFiniteTokens) {
    // "inf"/"nan" parse as numbers under strtod but poison every
    // downstream `< 0`-style validity check (NaN compares false), so
    // parse_double only accepts finite values.
    double d = 1.0;
    EXPECT_FALSE(parse_double("inf", d));
    EXPECT_FALSE(parse_double("-inf", d));
    EXPECT_FALSE(parse_double("infinity", d));
    EXPECT_FALSE(parse_double("nan", d));
    EXPECT_FALSE(parse_double("NaN", d));
    EXPECT_FALSE(parse_double("nan(0x1)", d));
    EXPECT_EQ(d, 1.0);  // output untouched on failure
}

TEST(Strings, ParseDoubleRejectsHexFloats) {
    // The spec grammar is decimal; strtod's hex-float extension is not
    // part of it.
    double d = 1.0;
    EXPECT_FALSE(parse_double("0x10", d));
    EXPECT_FALSE(parse_double("0x1.8p1", d));
    EXPECT_FALSE(parse_double("0X2", d));
}

TEST(Strings, ParseDoubleRejectsOverflowKeepsUnderflow) {
    double d = 1.0;
    EXPECT_FALSE(parse_double("1e999", d));   // overflow to +HUGE_VAL
    EXPECT_FALSE(parse_double("-1e999", d));  // overflow to -HUGE_VAL
    EXPECT_EQ(d, 1.0);
    // Gradual underflow keeps the nearest representable value.
    EXPECT_TRUE(parse_double("1e-320", d));
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1e-300);
    EXPECT_TRUE(parse_double("1e-999", d));
    EXPECT_EQ(d, 0.0);
}

TEST(Strings, ParseInt) {
    int v = 0;
    EXPECT_TRUE(parse_int("42", v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parse_int("-7", v));
    EXPECT_EQ(v, -7);
    EXPECT_FALSE(parse_int("4.2", v));
    EXPECT_FALSE(parse_int("", v));
}

TEST(Strings, ParseIntRejectsOutOfRange) {
    // 2^31 used to come back silently truncated through the long->int
    // cast; out-of-range input is now a parse failure.
    int v = 123;
    EXPECT_FALSE(parse_int("2147483648", v));
    EXPECT_FALSE(parse_int("-2147483649", v));
    EXPECT_FALSE(parse_int("99999999999999999999", v));  // beyond long too
    EXPECT_EQ(v, 123);  // output untouched on failure
    EXPECT_TRUE(parse_int("2147483647", v));
    EXPECT_EQ(v, 2147483647);
    EXPECT_TRUE(parse_int("-2147483648", v));
    EXPECT_EQ(v, -2147483648);
}

TEST(Strings, ParseInt64) {
    long long v = 0;
    EXPECT_TRUE(parse_int64("3000000000", v));  // beyond 32-bit range
    EXPECT_EQ(v, 3000000000LL);
    EXPECT_TRUE(parse_int64(" -9 ", v));
    EXPECT_EQ(v, -9);
    EXPECT_FALSE(parse_int64("4.2", v));
    EXPECT_FALSE(parse_int64("", v));
}

TEST(Strings, ParseInt64RejectsOutOfRange) {
    long long v = 5;
    EXPECT_FALSE(parse_int64("9223372036854775808", v));   // 2^63
    EXPECT_FALSE(parse_int64("-9223372036854775809", v));  // -(2^63)-1
    EXPECT_EQ(v, 5);
    EXPECT_TRUE(parse_int64("9223372036854775807", v));
    EXPECT_EQ(v, 9223372036854775807LL);
}

TEST(ParseJson, AcceptsWellFormedDocuments) {
    for (const char* text :
         {"{}", "[]", "null", "true", "false", "42", "-0.5", "1e9", "0",
          "-0", "2.5E+3", "\"str\"",
          "{\"a\": [1, 2.5, -3e-2], \"b\": {\"c\": null}}",
          "\"esc \\\" \\\\ \\n \\u00e9\"", "[[[[1]]]]", " [ 1 ,2 ] "}) {
        const JsonParseResult r = parse_json(text);
        EXPECT_TRUE(r.ok) << text << ": " << r.error;
    }
}

TEST(ParseJson, RejectsMalformedDocuments) {
    for (const char* text :
         {"", "{", "}", "{\"a\": }", "{\"a\" 1}", "[1, ]", "[1 2]",
          "{} extra", "nul", "+1", "-", "1.", ".5", "01", "1e", "1e+",
          "\"unterminated", "\"bad \\x escape\"", "\"ctrl \n char\"",
          "{'a': 1}", "{\"a\": 1,}", "{\"a\": 1, \"a\": 2}", "1e999",
          "NaN"}) {
        const JsonParseResult r = parse_json(text);
        EXPECT_FALSE(r.ok) << text;
        EXPECT_FALSE(r.error.empty()) << text;
    }
}

TEST(ParseJson, RejectsExcessiveNesting) {
    // Nesting is bounded at 64 levels.
    std::string deep(80, '[');
    deep += std::string(80, ']');
    EXPECT_FALSE(parse_json(deep).ok);
    std::string ok(64, '[');
    ok += std::string(64, ']');
    EXPECT_TRUE(parse_json(ok).ok);
}

TEST(Table, ArityChecked) {
    Table t({"a", "b"});
    EXPECT_THROW(t.add_row({Cell{std::string("x")}}), std::invalid_argument);
    t.add_row({std::string("x"), 1.5});
    EXPECT_EQ(t.num_rows(), 1u);
}

TEST(Table, CsvEscaping) {
    Table t({"name", "v"});
    t.add_row({std::string("a,b"), static_cast<long long>(1)});
    t.add_row({std::string("q\"q"), static_cast<long long>(2)});
    std::ostringstream os;
    t.write_csv(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"a,b\""), std::string::npos);
    EXPECT_NE(out.find("\"q\"\"q\""), std::string::npos);
}

TEST(Table, PrettyAligned) {
    Table t({"col", "value"});
    t.add_row({std::string("x"), 12.5});
    std::ostringstream os;
    t.write_pretty(os);
    EXPECT_NE(os.str().find("col"), std::string::npos);
    EXPECT_NE(os.str().find("12.5"), std::string::npos);
}

}  // namespace
}  // namespace sunfloor
