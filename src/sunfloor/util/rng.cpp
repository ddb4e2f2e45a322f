#include "sunfloor/util/rng.h"

namespace sunfloor {

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

Rng::Rng(const RngState& state) { set_state(state); }

RngState Rng::state() const {
    RngState st;
    for (int i = 0; i < 4; ++i) st.s[i] = s_[i];
    return st;
}

void Rng::set_state(const RngState& state) {
    for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
}

Rng::Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : s_) {
        s = splitmix64(sm);
        sm += 0x9e3779b97f4a7c15ULL;
    }
    // A state of all zeros is the one fixed point of xoshiro; splitmix64
    // cannot produce four consecutive zeros, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_below(std::uint64_t n) {
    // Lemire-style rejection to avoid modulo bias.
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
        const std::uint64_t r = next_u64();
        if (r >= threshold) return r % n;
    }
}

int Rng::next_int(int lo, int hi) {
    return lo + static_cast<int>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
}

}  // namespace sunfloor
