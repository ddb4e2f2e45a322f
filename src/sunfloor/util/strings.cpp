#include "sunfloor/util/strings.h"

#include <bit>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace sunfloor {

std::string_view trim(std::string_view s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char delim) {
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == delim) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::vector<std::string> split_ws(std::string_view s) {
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        std::size_t start = i;
        while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        if (i > start) out.emplace_back(s.substr(start, i - start));
    }
    return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
    return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string double_bits(double v) {
    std::string out;
    append_hex64(out, std::bit_cast<std::uint64_t>(v));
    return out;
}

void append_hex64(std::string& out, std::uint64_t v) {
    static constexpr char kDigits[] = "0123456789abcdef";
    char buf[16];
    for (int i = 15; i >= 0; --i) {
        buf[i] = kDigits[v & 0xf];
        v >>= 4;
    }
    out.append(buf, sizeof buf);
}

std::uint64_t fnv1a64(std::string_view s, std::uint64_t h) {
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

bool iequals(std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto ca = static_cast<unsigned char>(a[i]);
        const auto cb = static_cast<unsigned char>(b[i]);
        if (std::tolower(ca) != std::tolower(cb)) return false;
    }
    return true;
}

std::string format(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    va_list args2;
    va_copy(args2, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<std::size_t>(n));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
    }
    va_end(args2);
    return out;
}

bool parse_double(std::string_view s, double& out) {
    const std::string buf(trim(s));
    if (buf.empty()) return false;
    // strtod accepts hex floats ("0x1.8p1"); the spec grammar does not.
    for (char c : buf)
        if (c == 'x' || c == 'X') return false;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size()) return false;
    // Overflow saturates to +-HUGE_VAL with ERANGE; underflow (a denormal
    // or zero result, also ERANGE) is kept — it is the nearest value.
    if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) return false;
    // "inf"/"nan" tokens parse but poison every downstream comparison
    // (NaN slips through `< 0` validity checks), so only finite values
    // count as numbers here.
    if (!std::isfinite(v)) return false;
    out = v;
    return true;
}

bool parse_int(std::string_view s, int& out) {
    const std::string buf(trim(s));
    if (buf.empty()) return false;
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(buf.c_str(), &end, 10);
    if (end != buf.c_str() + buf.size()) return false;
    // Out-of-range input saturates with ERANGE; anything beyond int would
    // otherwise be truncated silently by the narrowing cast.
    if (errno == ERANGE || v < INT_MIN || v > INT_MAX) return false;
    out = static_cast<int>(v);
    return true;
}

bool parse_int64(std::string_view s, long long& out) {
    const std::string buf(trim(s));
    if (buf.empty()) return false;
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(buf.c_str(), &end, 10);
    if (end != buf.c_str() + buf.size()) return false;
    if (errno == ERANGE) return false;
    out = v;
    return true;
}

}  // namespace sunfloor
