// Little-endian binary encode/decode primitives shared by the CAS artifact
// codec (cas/codec.cpp), the pipeline's stage-key store addresses
// (pipeline/session.cpp) and the distributed-shard wire format
// (dist/protocol.cpp).
//
// Enc appends bytes to a string; Dec consumes a string_view with sticky
// failure (any short read poisons the decoder — callers check ok()/done()
// once at the end instead of after every field). Doubles travel as their
// raw bit patterns, so encode/decode round-trips are bit-exact on any
// platform. All integers are little-endian regardless of host order.
//
// Each fixed-width word, and each ints/doubles array, moves with one
// std::memcpy: the bytes carry no alignment, so nothing is loaded through
// a cast pointer, and a big-endian host byte-swaps every word so the
// layout is the same everywhere (cas_test pins it byte for byte). A
// length prefix larger than the bytes left poisons the decoder before
// anything is allocated for it.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sunfloor::cas {

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "bincode supports little- and big-endian hosts");

/// `v` with its bytes in little-endian order (the identity on a
/// little-endian host; an involution, so it also converts back).
template <typename U>
constexpr U little_endian(U v) {
    if constexpr (std::endian::native == std::endian::little) {
        return v;
    } else {
        U r = 0;
        for (std::size_t i = 0; i < sizeof(U); ++i) {
            r = static_cast<U>((r << 8) | (v & 0xff));
            v = static_cast<U>(v >> 8);
        }
        return r;
    }
}

class Enc {
  public:
    void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v) { word(v); }
    void u64(std::uint64_t v) { word(v); }
    void i32(int v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(long long v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void str(std::string_view s) {
        u32(static_cast<std::uint32_t>(s.size()));
        out_.append(s);
    }
    void ints(std::span<const int> v) { words<std::uint32_t>(v); }
    void doubles(std::span<const double> v) { words<std::uint64_t>(v); }
    /// Bytes another Enc wrote, as they are (no length prefix; Dec::expect
    /// reads them back).
    void raw(std::string_view bytes) { out_.append(bytes); }

    /// The bytes written so far.
    std::string_view view() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    template <typename U>
    void word(U v) {
        v = little_endian(v);
        char bytes[sizeof(U)];
        std::memcpy(bytes, &v, sizeof(U));
        out_.append(bytes, sizeof(U));
    }

    /// A u32 count, then the elements as U words.
    template <typename U, typename T>
    void words(std::span<const T> v) {
        static_assert(sizeof(T) == sizeof(U));
        u32(static_cast<std::uint32_t>(v.size()));
        if constexpr (std::endian::native == std::endian::little) {
            if (v.empty()) return;
            const std::size_t at = out_.size();
            out_.resize(at + v.size_bytes());
            std::memcpy(out_.data() + at, v.data(), v.size_bytes());
        } else {
            for (const T x : v) word(std::bit_cast<U>(x));
        }
    }

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
    std::uint32_t u32() { return word<std::uint32_t>(); }
    std::uint64_t u64() { return word<std::uint64_t>(); }
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
    /// Read an ints array into `out`, reusing its storage (empty when the
    /// read fails).
    void ints(std::vector<int>& out) { words<std::uint32_t>(out); }
    std::vector<int> ints() {
        std::vector<int> v;
        ints(v);
        return v;
    }
    std::vector<double> doubles() {
        std::vector<double> v;
        words<std::uint64_t>(v);
        return v;
    }
    /// Consume `bytes` if the input continues with exactly them; otherwise
    /// poison the decoder.
    bool expect(std::string_view bytes) {
        if (!need(bytes.size()) || in_.substr(pos_, bytes.size()) != bytes) {
            ok_ = false;
            return false;
        }
        pos_ += bytes.size();
        return true;
    }

  private:
    bool need(std::size_t n) {
        if (!ok_ || in_.size() - pos_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    template <typename U>
    U word() {
        if (!need(sizeof(U))) return 0;
        U v;
        std::memcpy(&v, in_.data() + pos_, sizeof(U));
        pos_ += sizeof(U);
        return little_endian(v);
    }

    /// A u32 count, then that many U words into `out`. The count is
    /// checked against the bytes left (without overflow) before `out` is
    /// sized by it.
    template <typename U, typename T>
    void words(std::vector<T>& out) {
        static_assert(sizeof(T) == sizeof(U));
        out.clear();
        const std::uint32_t n = u32();
        if (!ok_ || n > (in_.size() - pos_) / sizeof(T)) {
            ok_ = false;
            return;
        }
        if (n == 0) return;
        out.resize(n);
        std::memcpy(out.data(), in_.data() + pos_, n * sizeof(T));
        pos_ += n * sizeof(T);
        if constexpr (std::endian::native == std::endian::big)
            for (T& x : out)
                x = std::bit_cast<T>(little_endian(std::bit_cast<U>(x)));
    }

    std::string_view in_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

}  // namespace sunfloor::cas
