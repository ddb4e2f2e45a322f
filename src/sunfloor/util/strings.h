// Small string helpers used by the spec parsers and report writers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sunfloor {

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view s);

/// Split on a delimiter; empty fields are kept. split("a,,b", ',') ->
/// {"a", "", "b"}.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on arbitrary whitespace runs; no empty fields are produced.
std::vector<std::string> split_ws(std::string_view s);

/// True when `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// ASCII case-insensitive equality (the enum codecs parse "AUTO" and
/// "auto" alike; no locale involved).
bool iequals(std::string_view a, std::string_view b);

/// Exact textual form of a double: the hex of its bit pattern. Grid
/// point and job keys use this so values differing in the last ulp stay
/// distinct.
std::string double_bits(double v);

/// Append the 16 lowercase hex digits of `v`, zero-padded (the bytes
/// "%016llx" prints), to `out`.
void append_hex64(std::string& out, std::uint64_t v);

/// FNV-1a over `s`, continuing from `h`. Its values are pinned: the spec
/// prefix of every CAS address and the explorer's per-point seeds come
/// from it (CAS object names and checksums use cas::hash64).
std::uint64_t fnv1a64(std::string_view s,
                      std::uint64_t h = 0xcbf29ce484222325ULL);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Parse a *finite* double, returning false on malformed input instead of
/// throwing. Rejects "inf"/"nan"/hex-float tokens and decimal overflow;
/// gradual underflow to a denormal (or zero) is accepted.
bool parse_double(std::string_view s, double& out);

/// Parse an integer, returning false on malformed or out-of-int-range
/// input (no silent truncation).
bool parse_int(std::string_view s, int& out);

/// Parse a 64-bit integer, returning false on malformed or out-of-range
/// input.
bool parse_int64(std::string_view s, long long& out);

}  // namespace sunfloor
