// Deterministic pseudo-random number generation.
//
// All stochastic components of the tool (partitioner multi-start, simulated
// annealing) take an explicit Rng so that every synthesis run is exactly
// reproducible from a seed.
#pragma once

#include <cstdint>
#include <vector>

namespace sunfloor {

/// One splitmix64 step: mix(x + golden gamma). Pure; used to expand Rng
/// seeds into state and to derive independent per-task seed streams
/// (repeat with x + 0x9e3779b97f4a7c15 to walk the sequence).
std::uint64_t splitmix64(std::uint64_t x);

/// Snapshot of an Rng's full state. Value type: two generators with equal
/// states produce identical streams forever, which is what lets the
/// pipeline cache key stochastic stages on "the RNG as it was handed to
/// the stage" and replay cached results bit-for-bit.
struct RngState {
    std::uint64_t s[4] = {0, 0, 0, 0};

    friend bool operator==(const RngState&, const RngState&) = default;
};

/// xoshiro256** generator. Small, fast, and with a well-understood state
/// space; we avoid std::mt19937 so that results are identical across
/// standard-library implementations.
class Rng {
  public:
    explicit Rng(std::uint64_t seed = kDefaultSeed);

    /// Resume a generator exactly where a previous one left off.
    explicit Rng(const RngState& state);

    /// Default seed used across the tool when the caller does not care.
    static constexpr std::uint64_t kDefaultSeed = 0x5f3d5f3d2009ULL;

    /// Snapshot the full generator state.
    RngState state() const;

    /// Restore a snapshot taken with state().
    void set_state(const RngState& state);

    /// Uniform 64-bit value. Inline: the flit simulator draws one value
    /// per flow per cycle, so the xoshiro step must not cost a call.
    std::uint64_t next_u64() {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /// Uniform integer in [0, n). Precondition: n > 0.
    std::uint64_t next_below(std::uint64_t n);

    /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
    int next_int(int lo, int hi);

    /// Uniform double in [0, 1).
    double next_double() {
        return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    }

    /// Bernoulli trial with probability p.
    bool next_bool(double p = 0.5) { return next_double() < p; }

    /// Fisher-Yates shuffle.
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            const std::size_t j = static_cast<std::size_t>(next_below(i));
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    static std::uint64_t rotl(std::uint64_t x, int k) {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

}  // namespace sunfloor
