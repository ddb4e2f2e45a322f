// Little-endian binary encode/decode primitives shared by the CAS artifact
// codec (cas/codec.cpp) and the distributed-shard wire format
// (dist/protocol.cpp).
//
// Enc appends bytes to a string; Dec consumes a string_view with sticky
// failure (any short read poisons the decoder — callers check ok()/done()
// once at the end instead of after every field). Doubles travel as their
// raw bit patterns, so encode/decode round-trips are bit-exact on any
// platform. All integers are little-endian regardless of host order.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sunfloor::cas {

class Enc {
  public:
    void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    void i32(int v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(long long v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void str(std::string_view s) {
        u32(static_cast<std::uint32_t>(s.size()));
        out_.append(s);
    }
    void ints(std::span<const int> v) {
        u32(static_cast<std::uint32_t>(v.size()));
        for (int x : v) i32(x);
    }
    void doubles(const std::vector<double>& v) {
        u32(static_cast<std::uint32_t>(v.size()));
        for (double x : v) f64(x);
    }
    std::string take() { return std::move(out_); }

  private:
    std::string out_;
};

class Dec {
  public:
    explicit Dec(std::string_view in) : in_(in) {}

    bool ok() const { return ok_; }
    /// A complete decode consumed every byte; trailing garbage is corrupt.
    bool done() const { return ok_ && pos_ == in_.size(); }

    std::uint8_t u8() {
        if (!need(1)) return 0;
        return static_cast<std::uint8_t>(in_[pos_++]);
    }
    std::uint32_t u32() {
        if (!need(4)) return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(in_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }
    std::uint64_t u64() {
        if (!need(8)) return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(in_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }
    int i32() { return static_cast<int>(u32()); }
    long long i64() { return static_cast<long long>(u64()); }
    double f64() { return std::bit_cast<double>(u64()); }
    std::string str() {
        const std::uint32_t n = u32();
        if (!need(n)) return {};
        std::string s(in_.substr(pos_, n));
        pos_ += n;
        return s;
    }
    std::vector<int> ints() {
        const std::uint32_t n = u32();
        if (!need(static_cast<std::size_t>(n) * 4)) return {};
        std::vector<int> v(n);
        for (auto& x : v) x = i32();
        return v;
    }
    std::vector<double> doubles() {
        const std::uint32_t n = u32();
        if (!need(static_cast<std::size_t>(n) * 8)) return {};
        std::vector<double> v(n);
        for (auto& x : v) x = f64();
        return v;
    }

  private:
    bool need(std::size_t n) {
        if (!ok_ || in_.size() - pos_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    std::string_view in_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

}  // namespace sunfloor::cas
