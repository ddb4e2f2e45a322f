#include "sunfloor/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "sunfloor/obs/metrics.h"
#include "sunfloor/obs/trace.h"

namespace sunfloor::sim {

namespace {

// ------------------------------------------------------------------ bits
// Active-link sets as word bitsets. Iteration (lowest bit first) walks
// links in ascending id — exactly the order the old full-scan loops
// visited them, which the report's floating-point summation order and
// the round-robin arbitration depend on.

inline void bs_set(std::vector<std::uint64_t>& bs, int i) {
    bs[static_cast<std::size_t>(i) >> 6] |= 1ULL << (i & 63);
}

inline void bs_clear(std::vector<std::uint64_t>& bs, int i) {
    bs[static_cast<std::size_t>(i) >> 6] &= ~(1ULL << (i & 63));
}

inline std::uint32_t pow2ceil(std::uint32_t v) {
    std::uint32_t c = 1;
    while (c < v) c <<= 1;
    return c;
}

constexpr std::uint8_t kHead = 1;
constexpr std::uint8_t kTail = 2;
constexpr std::uint8_t kMeasured = 4;

// Per-link kind byte (static, derived from the index once): lets the
// per-visit dispatch of consider() branch on one byte load instead of
// two parallel-array loads.
constexpr std::uint8_t kSrcCore = 1;
constexpr std::uint8_t kIntoSwitch = 2;

// Packed flit identity and metadata: one 64-bit word each instead of
// five parallel arrays, so every flit move touches two cache lines of
// flit state instead of five — and the wormhole ownership test becomes
// a single integer compare. pid = flow(24) | seq(40): 2^40 packets per
// flow per run is unreachable (years of wall clock at simulator speed);
// the flow width is checked at construction. meta = state(32) | hop(24)
// | flags(8) — the flag bits sit in the low byte, so kHead/kTail tests
// apply to the packed word directly.
inline std::uint64_t pack_pid(int flow, long long seq) {
    return (static_cast<std::uint64_t>(flow) << 40) |
           static_cast<std::uint64_t>(seq);
}
inline int pid_flow(std::uint64_t pid) {
    return static_cast<int>(pid >> 40);
}
inline long long pid_seq(std::uint64_t pid) {
    return static_cast<long long>(pid & ((1ULL << 40) - 1));
}
inline std::uint64_t pack_meta(int hop, int state, std::uint8_t flags) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(state))
            << 32) |
           (static_cast<std::uint64_t>(hop) << 8) | flags;
}
inline int meta_hop(std::uint64_t meta) {
    return static_cast<int>((meta >> 8) & 0xffffff);
}
inline int meta_state(std::uint64_t meta) {
    return static_cast<int>(meta >> 32);
}
inline std::uint8_t meta_flags(std::uint64_t meta) {
    return static_cast<std::uint8_t>(meta & 0xff);
}

/// The cycle machine. All static lookups go through one immutable
/// SimIndex; all flit state lives as SoA fields in per-link ring
/// buffers carved out of shared arenas sized once at construction, so
/// the steady state allocates nothing (the only growable store is the
/// per-link injection queue, which is unbounded under overload).
///
/// Each link owns one ring of capacity-2^k slots over the arena:
///
///   [head, head+nbuf)      flits buffered in the downstream input FIFO
///   [head+nbuf, head+ntot) flits in flight on the wire (each with the
///                          cycle `when` it lands)
///
/// ntot is exactly the old engine's credit count occ_ (buffered plus
/// in-flight). Landing a flit is just ++nbuf — the boundary moves, no
/// flit is copied. Ejection links (dst = core) keep nbuf == 0 and pop
/// straight out of the in-flight segment.
///
/// Three bitsets keep cycles proportional to *active* links only:
///   arrive_    links with a nonempty in-flight segment (begin_cycle)
///   buffered_  links with a nonempty FIFO (adaptive preference pass)
///   endwork_   links that may act in end_cycle: core-source links with
///              a waiting injection (set when the first packet enters
///              an empty queue), links owned by an in-transit packet
///              (the bit set when ownership was taken simply stays),
///              and the outputs requested by this cycle's waiting head
///              flits — compute_requests runs before the scan and sets
///              the bit for every requested output, so a free link is
///              visited exactly in the cycles something wants it and
///              cleared the first time nothing does. No work-creating
///              transition can be missed while a bit is off: new
///              injections and new requests set it, and ownership is
///              only taken in a cycle the link acted.
class Engine {
  public:
    Engine(const SimIndex& idx, int depth, bool use_routes)
        : idx_(idx), depth_(depth), use_routes_(use_routes) {
        if (depth_ < 1)
            throw std::invalid_argument("buffer_depth_flits must be >= 1");
        const int L = idx.num_links;
        const int F = idx.num_flows;
        ring_off_.resize(static_cast<std::size_t>(L));
        ring_mask_.resize(static_cast<std::size_t>(L));
        std::size_t total = 0;
        for (int l = 0; l < L; ++l) {
            const auto ul = static_cast<std::size_t>(l);
            // Capacity bounds follow from the credit discipline: a
            // switch-bound link never holds more than `depth` flits
            // (buffered + in-flight <= occ <= depth); an ejection link
            // holds at most `extra` (one departure per cycle, each on
            // the wire for `extra` cycles — with extra == 0 it delivers
            // in the departure cycle and the ring is never used).
            std::uint32_t cap = 0;
            if (idx.into_switch[ul])
                cap = pow2ceil(static_cast<std::uint32_t>(depth_));
            else if (idx.extra[ul] > 0)
                cap = pow2ceil(static_cast<std::uint32_t>(idx.extra[ul]));
            ring_off_[ul] = total;
            ring_mask_[ul] = cap ? cap - 1 : 0;
            total += cap;
        }
        if (F >= (1 << 24))
            throw std::invalid_argument(
                "flow count exceeds the packed flit id width (2^24)");
        r_when_.resize(total);
        r_pid_.resize(total);
        r_meta_.resize(total);
        r_gen_.resize(total);
        head_.resize(static_cast<std::size_t>(L));
        nbuf_.resize(static_cast<std::size_t>(L));
        ntot_.resize(static_cast<std::size_t>(L));
        inj_ring_.resize(static_cast<std::size_t>(L));
        inj_head_.resize(static_cast<std::size_t>(L));
        inj_len_.resize(static_cast<std::size_t>(L));
        inj_sent_.resize(static_cast<std::size_t>(L));
        inj_flits_.resize(static_cast<std::size_t>(L));
        owner_active_.resize(static_cast<std::size_t>(L));
        owner_pid_.resize(static_cast<std::size_t>(L));
        owner_input_.resize(static_cast<std::size_t>(L));
        rr_.resize(static_cast<std::size_t>(L));
        pref_link_.resize(static_cast<std::size_t>(L));
        pref_state_.resize(static_cast<std::size_t>(L));
        req_link_.resize(static_cast<std::size_t>(L));
        req_stamp_.resize(static_cast<std::size_t>(L));
        req_cnt_.resize(static_cast<std::size_t>(L));
        req_sum_.resize(static_cast<std::size_t>(L));
        kind_.resize(static_cast<std::size_t>(L));
        for (int l = 0; l < L; ++l)
            kind_[static_cast<std::size_t>(l)] = static_cast<std::uint8_t>(
                (idx.src_is_core[static_cast<std::size_t>(l)] ? kSrcCore
                                                              : 0) |
                (idx.into_switch[static_cast<std::size_t>(l)] ? kIntoSwitch
                                                              : 0));
        const std::size_t words = (static_cast<std::size_t>(L) + 63) / 64;
        arrive_.resize(words);
        endwork_.resize(words);
        buffered_.resize(words);
        packet_seq_.resize(static_cast<std::size_t>(F));
        flow_lat_sum_.resize(static_cast<std::size_t>(F));
        flow_lat_count_.resize(static_cast<std::size_t>(F));
        link_departures_.resize(static_cast<std::size_t>(L));
        reset(use_routes);
    }

    int depth() const { return depth_; }

    /// Return to the empty-network state, keeping every allocation. A
    /// reset engine is bit-identical to a freshly constructed one.
    void reset(bool use_routes) {
        use_routes_ = use_routes;
        std::fill(head_.begin(), head_.end(), 0u);
        std::fill(nbuf_.begin(), nbuf_.end(), 0);
        std::fill(ntot_.begin(), ntot_.end(), 0);
        std::fill(inj_head_.begin(), inj_head_.end(), 0u);
        std::fill(inj_len_.begin(), inj_len_.end(), 0);
        std::fill(inj_sent_.begin(), inj_sent_.end(), 0);
        std::fill(inj_flits_.begin(), inj_flits_.end(), 0LL);
        std::fill(owner_active_.begin(), owner_active_.end(), 0);
        std::fill(owner_pid_.begin(), owner_pid_.end(), 0ULL);
        std::fill(owner_input_.begin(), owner_input_.end(), -1);
        std::fill(rr_.begin(), rr_.end(), 0);
        std::fill(req_link_.begin(), req_link_.end(), -1);
        std::fill(req_stamp_.begin(), req_stamp_.end(), -1LL);
        std::fill(req_cnt_.begin(), req_cnt_.end(), 0);
        std::fill(req_sum_.begin(), req_sum_.end(), 0);
        touched_.clear();
        std::fill(arrive_.begin(), arrive_.end(), 0ULL);
        std::fill(endwork_.begin(), endwork_.end(), 0ULL);
        std::fill(buffered_.begin(), buffered_.end(), 0ULL);
        std::fill(packet_seq_.begin(), packet_seq_.end(), 0LL);
        std::fill(flow_lat_sum_.begin(), flow_lat_sum_.end(), 0.0);
        std::fill(flow_lat_count_.begin(), flow_lat_count_.end(), 0LL);
        std::fill(link_departures_.begin(), link_departures_.end(), 0LL);
        latencies_.clear();
        decisions_.clear();
        injected_packets_ = injected_flits_ = 0;
        received_packets_ = received_flits_ = 0;
        head_lat_sum_ = 0.0;
        head_count_ = 0;
        window_ejected_flits_ = 0;
        flits_in_network_ = 0;
        win_begin_ = win_end_ = 0;
        obs_ = {};
    }

    /// Measurement window [begin, end): ejected flits and link
    /// departures inside it feed the throughput/utilization counters.
    void set_window(long long begin, long long end) {
        win_begin_ = begin;
        win_end_ = end;
    }

    /// Generate one `length`-flit packet of `flow` at cycle `now` into
    /// the source NI queue of the flow's first link. The queue stores
    /// packets, not flits — the flits of one packet differ only in
    /// their head/tail flags, which are reconstituted on departure.
    void inject_packet(int flow, int length, long long now, bool measured) {
        const auto uf = static_cast<std::size_t>(flow);
        const int first =
            idx_.path_link[static_cast<std::size_t>(idx_.path_off[uf])];
        const auto ul = static_cast<std::size_t>(first);
        auto& ring = inj_ring_[ul];
        if (inj_len_[ul] == static_cast<int>(ring.size())) grow_inj(ul);
        const std::uint32_t mask =
            static_cast<std::uint32_t>(ring.size()) - 1;
        ring[(inj_head_[ul] + static_cast<std::uint32_t>(inj_len_[ul])) &
             mask] = {packet_seq_[uf], now, flow, length, measured};
        if (inj_len_[ul]++ == 0) bs_set(endwork_, first);
        inj_flits_[ul] += length;
        ++packet_seq_[uf];
        flits_in_network_ += length;
        if (measured) {
            ++injected_packets_;
            injected_flits_ += length;
        }
    }

    /// Phase 1 of a cycle: land the flits whose link traversal
    /// completes at T (into the downstream FIFO, or ejected at a core).
    void begin_cycle(long long T) {
        for (std::size_t w = 0; w < arrive_.size(); ++w) {
            std::uint64_t bits = arrive_[w];
            while (bits) {
                const int l = static_cast<int>(w << 6) +
                              std::countr_zero(bits);
                bits &= bits - 1;
                land(l, T);
            }
        }
    }

    /// Phase 2: every link picks at most one flit to send this cycle —
    /// decisions first, from the post-arrival state, then all moves at
    /// once (so a slot freed at T is only visible upstream at T+1, a
    /// one-cycle credit loop).
    void end_cycle(long long T) {
        decisions_.clear();
        if (use_routes_) {
            // Adaptive preferences depend on this cycle's credit state, so
            // the requests must be re-announced from scratch every cycle.
            // Baked requests are maintained incrementally (update_request)
            // and are already current here.
            compute_preferences();
            compute_requests(T);
        }
        for (std::size_t w = 0; w < endwork_.size(); ++w) {
            std::uint64_t bits = endwork_[w];
            while (bits) {
                const int l = static_cast<int>(w << 6) +
                              std::countr_zero(bits);
                bits &= bits - 1;
                consider(l, T);
            }
        }
        const bool in_window = T >= win_begin_ && T < win_end_;
        for (const Decision& d : decisions_) apply(d, T, in_window);
        for (int l : touched_) {  // adaptive: discard this cycle's requests
            req_cnt_[static_cast<std::size_t>(l)] = 0;
            req_sum_[static_cast<std::size_t>(l)] = 0;
        }
        touched_.clear();
    }

    long long flits_in_network() const { return flits_in_network_; }

    /// Instrumentation-only accounting, pushed into the global metrics
    /// registry by the driver after the run. Plain fields: one engine is
    /// always driven by one thread, and nothing here feeds the SimReport.
    struct ObsCounters {
        long long backpressure_stall_cycles = 0;
        long long arbitration_conflicts = 0;
    };
    ObsCounters obs_;

    /// Observe every switch-input FIFO's occupancy and the total
    /// injection-queue depth (called by the driver every 64 cycles).
    void sample_occupancy(obs::Histogram& occ_h, obs::Histogram& inj_h) {
        const int L = idx_.num_links;
        long long depth = 0;
        for (int l = 0; l < L; ++l) {
            const auto ul = static_cast<std::size_t>(l);
            if (idx_.into_switch[ul])
                occ_h.observe(static_cast<double>(ntot_[ul]));
            depth += inj_flits_[ul];
        }
        inj_h.observe(static_cast<double>(depth));
    }

    // --- counters the drivers fold into the SimReport --------------------
    long long injected_packets_ = 0;  ///< measured population
    long long injected_flits_ = 0;
    long long received_packets_ = 0;
    long long received_flits_ = 0;
    std::vector<double> latencies_;   ///< per measured packet (tail)
    double head_lat_sum_ = 0.0;
    long long head_count_ = 0;
    std::vector<double> flow_lat_sum_;
    std::vector<long long> flow_lat_count_;
    long long window_ejected_flits_ = 0;  ///< all traffic, window only
    std::vector<long long> link_departures_;  ///< window only

  private:
    struct Decision {
        int link;      ///< output link that sends
        int input;     ///< source input link; -1 = injection queue
        int rr_pos;    ///< arbiter position of `input`; -1 = not an arb win
    };

    /// One queued packet; its flits exist only as (seq, position) pairs
    /// until they depart.
    struct Packet {
        long long seq;
        long long gen;
        int flow;
        int len;
        bool measured;
    };

    std::size_t slot(std::size_t l, std::uint32_t pos) const {
        return ring_off_[l] + (pos & ring_mask_[l]);
    }

    void grow_inj(std::size_t l) {
        auto& ring = inj_ring_[l];
        const std::uint32_t old_cap =
            static_cast<std::uint32_t>(ring.size());
        std::vector<Packet> bigger(old_cap ? old_cap * 2 : 8);
        for (int i = 0; i < inj_len_[l]; ++i)
            bigger[static_cast<std::size_t>(i)] =
                ring[(inj_head_[l] + static_cast<std::uint32_t>(i)) &
                     (old_cap - 1)];
        ring = std::move(bigger);
        inj_head_[l] = 0;
    }

    void land(int l, long long T) {
        const auto ul = static_cast<std::size_t>(l);
        if (idx_.into_switch[ul]) {
            // Landing into the FIFO only moves the buffered/in-flight
            // boundary; occupancy (ntot_) is unchanged, as before.
            int landed = 0;
            while (nbuf_[ul] < ntot_[ul]) {
                const std::size_t s = slot(
                    ul, head_[ul] + static_cast<std::uint32_t>(nbuf_[ul]));
                if (r_when_[s] > T) break;
                ++nbuf_[ul];
                ++landed;
            }
            if (landed) {
                bs_set(buffered_, l);
                // FIFO was empty: a new front exists; announce its demand.
                if (!use_routes_ && nbuf_[ul] == landed) update_request(ul);
            }
            if (nbuf_[ul] == ntot_[ul]) bs_clear(arrive_, l);
        } else {
            while (ntot_[ul] > 0) {
                const std::size_t s = slot(ul, head_[ul]);
                if (r_when_[s] > T) break;
                eject(pid_flow(r_pid_[s]), r_gen_[s],
                      meta_flags(r_meta_[s]), T);
                ++head_[ul];
                --ntot_[ul];
            }
            if (ntot_[ul] == 0) bs_clear(arrive_, l);
        }
    }

    /// Adaptive mode, once per cycle: every buffered head flit announces
    /// the output link it prefers this cycle. This inverts the old
    /// engine's arbitration — instead of every free output scanning
    /// every input port every cycle, work is proportional to the
    /// nonempty FIFOs; consider() then reads the per-output contender
    /// counts in O(1). The request predicate (nonempty FIFO, head flit
    /// at the front, admissible output) is exactly the old scan's
    /// eligibility test, so the contender counts — and with them the
    /// arbitration-conflict metric — are bit-identical. req_stamp_
    /// guards against stale entries: an adaptive request is only valid
    /// for the cycle that wrote it (end_cycle resets the touched
    /// counters afterwards).
    void compute_requests(long long T) {
        for (std::size_t w = 0; w < buffered_.size(); ++w) {
            std::uint64_t bits = buffered_[w];
            while (bits) {
                const auto in = static_cast<std::size_t>(
                    static_cast<int>(w << 6) + std::countr_zero(bits));
                bits &= bits - 1;
                const std::size_t s = slot(in, head_[in]);
                if (!(r_meta_[s] & kHead)) continue;
                const int l = pref_link_[in];
                if (l < 0) continue;  // no admissible output free
                req_link_[in] = l;
                req_stamp_[in] = T;
                const auto ulk = static_cast<std::size_t>(l);
                req_sum_[ulk] += static_cast<int>(in);
                if (req_cnt_[ulk]++ == 0) {
                    touched_.push_back(l);
                    bs_set(endwork_, l);  // wake the requested output
                }
            }
        }
    }

    /// Baked mode: recompute input FIFO `in`'s standing request after
    /// its front changed (a flit landed into the empty FIFO, or the
    /// front was popped). A baked head's routed output is a pure
    /// function of the front flit, so the per-output demand counts only
    /// change on those transitions — maintaining them incrementally
    /// makes arbitration demand O(flit movements) instead of
    /// O(waiting heads) per cycle. The counts seen by consider() are
    /// identical to what a full per-cycle announce would produce: lands
    /// precede and pops follow the decision scan within each cycle.
    void update_request(std::size_t in) {
        int l = -1;
        if (nbuf_[in] > 0) {
            const std::size_t s = slot(in, head_[in]);
            const std::uint64_t meta = r_meta_[s];
            if (meta & kHead)
                l = idx_.path_link[static_cast<std::size_t>(
                    idx_.path_off[static_cast<std::size_t>(
                        pid_flow(r_pid_[s]))] +
                    meta_hop(meta))];
        }
        const int old = req_link_[in];
        if (old == l) return;
        if (old >= 0) {
            --req_cnt_[static_cast<std::size_t>(old)];
            req_sum_[static_cast<std::size_t>(old)] -= static_cast<int>(in);
        }
        if (l >= 0) {
            ++req_cnt_[static_cast<std::size_t>(l)];
            req_sum_[static_cast<std::size_t>(l)] += static_cast<int>(in);
            bs_set(endwork_, l);  // wake the requested output
        }
        req_link_[in] = l;
    }

    void consider(int l, long long T) {
        const auto ul = static_cast<std::size_t>(l);
        const std::uint8_t kind = kind_[ul];
        if (kind & kSrcCore) {
            if (inj_len_[ul] == 0) {
                bs_clear(endwork_, l);  // idle until the next injection
                return;
            }
            if ((kind & kIntoSwitch) && ntot_[ul] >= depth_) {
                ++obs_.backpressure_stall_cycles;  // waiting injection
                return;
            }
            decisions_.push_back({l, -1, -1});
            return;
        }
        if ((kind & kIntoSwitch) && ntot_[ul] >= depth_) {  // no credit
            // Backpressure accounting: count the stalled cycle only when
            // the link had a flit ready (a wormhole continuation; free-
            // link head demand is not scanned — that would cost an
            // arbitration pass).
            if (owner_active_[ul]) ++obs_.backpressure_stall_cycles;
            return;
        }
        if (owner_active_[ul]) {
            // Wormhole continuation: only the owning packet's next flit
            // may use the link, and it can only be at the head of the
            // input FIFO its head flit came through.
            const auto in = static_cast<std::size_t>(owner_input_[ul]);
            if (nbuf_[in] > 0) {
                const std::size_t s = slot(in, head_[in]);
                if (r_pid_[s] == owner_pid_[ul])
                    decisions_.push_back({l, owner_input_[ul], -1});
            }
            return;
        }
        // Free link: the contenders were counted by compute_requests.
        // One requester wins outright (its arbiter port number is
        // precomputed); with several, the first in round-robin order
        // after the last winner takes the link — exactly the old
        // full-scan arbitration, now only run on actual conflicts.
        const int contenders = req_cnt_[ul];
        if (contenders == 0) {
            bs_clear(endwork_, l);  // idle until the next request
            return;
        }
        int in, pos;
        if (contenders == 1) {
            // The one requester is the requesting-input id sum.
            in = req_sum_[ul];
            pos = idx_.port_pos[static_cast<std::size_t>(in)];
        } else {
            const auto sw = static_cast<std::size_t>(idx_.src_switch[ul]);
            const int ib = idx_.sw_in_off[sw];
            const int n = idx_.sw_in_off[sw + 1] - ib;
            pos = rr_[ul];
            for (;;) {
                pos = pos + 1 == n ? 0 : pos + 1;
                in = idx_.sw_in_link[static_cast<std::size_t>(ib + pos)];
                const auto uin = static_cast<std::size_t>(in);
                if (req_link_[uin] == l &&
                    (!use_routes_ || req_stamp_[uin] == T))
                    break;
            }
            obs_.arbitration_conflicts += contenders - 1;
        }
        decisions_.push_back({l, in, pos});
    }

    /// Adaptive mode: pick each waiting head flit's preferred output for
    /// this cycle among its route set's admissible next links. Most free
    /// downstream credits wins (ejection links count as always free);
    /// ties prefer the baked path's link, then the smallest link id (the
    /// options come sorted by id). Links currently allocated to another
    /// packet or out of credit are not candidates; -1 means the head
    /// waits. Reads only cycle-start state, so the later per-output
    /// arbitration sees one consistent preference per input.
    void compute_preferences() {
        const std::size_t nsw = static_cast<std::size_t>(idx_.num_switches);
        const std::size_t S = static_cast<std::size_t>(idx_.num_states);
        for (std::size_t w = 0; w < buffered_.size(); ++w) {
            std::uint64_t bits = buffered_[w];
            while (bits) {
                const auto in = static_cast<std::size_t>(
                    static_cast<int>(w << 6) + std::countr_zero(bits));
                bits &= bits - 1;
                pref_link_[in] = -1;
                const std::size_t s = slot(in, head_[in]);
                const std::uint64_t meta = r_meta_[s];
                if (!(meta & kHead)) continue;
                const std::size_t node =
                    (static_cast<std::size_t>(pid_flow(r_pid_[s])) * nsw +
                     static_cast<std::size_t>(idx_.dst_switch[in])) *
                        S +
                    static_cast<std::size_t>(meta_state(meta));
                const int baked = idx_.baked[node];
                int best_credits = 0;
                bool best_baked = false;
                for (int oi = idx_.opt_off[node];
                     oi < idx_.opt_off[node + 1]; ++oi) {
                    const int link =
                        idx_.opt_link[static_cast<std::size_t>(oi)];
                    const auto ulk = static_cast<std::size_t>(link);
                    if (owner_active_[ulk]) continue;  // held by a packet
                    int credits = depth_ + 1;          // ejection: free
                    if (idx_.into_switch[ulk]) {
                        credits = depth_ - ntot_[ulk];
                        if (credits <= 0) continue;  // not a candidate
                    }
                    const bool is_baked = link == baked;
                    if (credits > best_credits ||
                        (credits == best_credits && is_baked &&
                         !best_baked)) {
                        pref_link_[in] = link;
                        pref_state_[in] =
                            idx_.opt_state[static_cast<std::size_t>(oi)];
                        best_credits = credits;
                        best_baked = is_baked;
                    }
                }
            }
        }
    }

    void apply(const Decision& d, long long T, bool in_window) {
        const auto ul = static_cast<std::size_t>(d.link);
        int flow, hop, state;
        long long seq, gen;
        std::uint8_t flags;
        if (d.input < 0) {
            const auto& ring = inj_ring_[ul];
            const Packet& p =
                ring[inj_head_[ul] &
                     (static_cast<std::uint32_t>(ring.size()) - 1)];
            const int k = inj_sent_[ul];
            flow = p.flow;
            seq = p.seq;
            gen = p.gen;
            hop = 0;
            state = use_routes_ ? idx_.initial_state : 0;
            flags = static_cast<std::uint8_t>(
                (k == 0 ? kHead : 0) | (k == p.len - 1 ? kTail : 0) |
                (p.measured ? kMeasured : 0));
            if (k == p.len - 1) {
                ++inj_head_[ul];
                --inj_len_[ul];
                inj_sent_[ul] = 0;
                // Queue drained: retire the link from the active set now
                // instead of paying one more scan visit to find it idle.
                if (inj_len_[ul] == 0) bs_clear(endwork_, d.link);
            } else {
                ++inj_sent_[ul];
            }
            --inj_flits_[ul];
        } else {
            const auto in = static_cast<std::size_t>(d.input);
            const std::size_t s = slot(in, head_[in]);
            const std::uint64_t pid = r_pid_[s];
            const std::uint64_t meta = r_meta_[s];
            flow = pid_flow(pid);
            seq = pid_seq(pid);
            hop = meta_hop(meta);
            state = meta_state(meta);
            gen = r_gen_[s];
            flags = meta_flags(meta);
            ++head_[in];
            --nbuf_[in];
            --ntot_[in];  // credit returned upstream next cycle
            if (nbuf_[in] == 0) bs_clear(buffered_, d.input);
            // Baked: the popped front carried this FIFO's standing
            // request; re-announce for whatever is at the front now.
            if (!use_routes_) update_request(in);
            // Adaptive: the head's automaton advances with the hop it
            // won (body flits follow through the output allocation).
            if (use_routes_ && (flags & kHead)) state = pref_state_[in];
            if (owner_active_[ul]) {
                if (flags & kTail) {
                    owner_active_[ul] = 0;
                    // No standing request either: retire eagerly (any
                    // later request sets the bit again).
                    if (req_cnt_[ul] == 0) bs_clear(endwork_, d.link);
                }
            } else {
                rr_[ul] = d.rr_pos;
                if (!(flags & kTail)) {
                    owner_active_[ul] = 1;
                    owner_pid_[ul] = pack_pid(flow, seq);
                    owner_input_[ul] = d.input;
                } else if (req_cnt_[ul] == 0) {
                    bs_clear(endwork_, d.link);  // single-flit packet
                }
            }
        }
        if (in_window) ++link_departures_[ul];
        ++hop;
        if (idx_.into_switch[ul]) {
            // Arrive ready to leave the switch one cycle later: the +1
            // is the switch traversal of the analytic model.
            push_ring(ul, T + idx_.extra[ul] + 1, flow, seq, hop, state,
                      gen, flags);
            bs_set(arrive_, d.link);
        } else {
            // Ejection: entering the destination NI is free, so a short
            // link delivers in the departure cycle itself.
            const long long when = T + idx_.extra[ul];
            if (when <= T) {
                eject(flow, gen, flags, T);
            } else {
                push_ring(ul, when, flow, seq, hop, state, gen, flags);
                bs_set(arrive_, d.link);
            }
        }
    }

    void push_ring(std::size_t l, long long when, int flow, long long seq,
                   int hop, int state, long long gen, std::uint8_t flags) {
        const std::size_t s =
            slot(l, head_[l] + static_cast<std::uint32_t>(ntot_[l]));
        r_when_[s] = when;
        r_pid_[s] = pack_pid(flow, seq);
        r_meta_[s] = pack_meta(hop, state, flags);
        r_gen_[s] = gen;
        ++ntot_[l];
    }

    void eject(int flow, long long gen, std::uint8_t flags, long long T) {
        --flits_in_network_;
        if (T >= win_begin_ && T < win_end_) ++window_ejected_flits_;
        if (!(flags & kMeasured)) return;
        if (flags & kHead) {
            head_lat_sum_ += static_cast<double>(T - gen);
            ++head_count_;
        }
        ++received_flits_;
        if (flags & kTail) {
            const double lat = static_cast<double>(T - gen);
            latencies_.push_back(lat);
            flow_lat_sum_[static_cast<std::size_t>(flow)] += lat;
            ++flow_lat_count_[static_cast<std::size_t>(flow)];
            ++received_packets_;
        }
    }

    const SimIndex& idx_;
    int depth_;
    bool use_routes_;  ///< adaptive per-hop selection vs baked replay

    // Ring geometry (per link) over the shared SoA arenas below.
    std::vector<std::size_t> ring_off_;
    std::vector<std::uint32_t> ring_mask_;
    std::vector<std::uint32_t> head_;
    std::vector<int> nbuf_;  ///< buffered prefix length
    std::vector<int> ntot_;  ///< buffered + in-flight (the credit count)

    // SoA flit fields, one slot per arena position (see pack_pid /
    // pack_meta for the two packed words).
    std::vector<long long> r_when_;       ///< landing cycle
    std::vector<std::uint64_t> r_pid_;    ///< packet id: flow | seq
    std::vector<std::uint64_t> r_meta_;   ///< state | hop | flags
    std::vector<long long> r_gen_;        ///< generation cycle

    // Source NI queues: per-packet rings (grow by doubling; the one
    // store that can grow, since overload backlogs are unbounded).
    std::vector<std::vector<Packet>> inj_ring_;
    std::vector<std::uint32_t> inj_head_;
    std::vector<int> inj_len_;    ///< queued packets
    std::vector<int> inj_sent_;   ///< flits of the front packet sent
    std::vector<long long> inj_flits_;  ///< queued flits (sampling)

    std::vector<char> owner_active_;  ///< wormhole output allocation
    std::vector<std::uint64_t> owner_pid_;
    std::vector<int> owner_input_;
    std::vector<int> rr_;             ///< round-robin arbiter state
    std::vector<int> pref_link_;      ///< adaptive: per-input preference
    std::vector<int> pref_state_;     ///< ... and the state after taking it

    // Per-cycle output requests (see compute_requests).
    std::vector<int> req_link_;        ///< per input: requested output
    std::vector<long long> req_stamp_; ///< adaptive: cycle written
    std::vector<int> req_cnt_;         ///< per output: contender count
    std::vector<int> req_sum_;         ///< per output: requester id sum
    std::vector<int> touched_;         ///< outputs with req_cnt_ != 0

    std::vector<std::uint8_t> kind_;  ///< kSrcCore | kIntoSwitch per link

    std::vector<std::uint64_t> arrive_;
    std::vector<std::uint64_t> endwork_;
    std::vector<std::uint64_t> buffered_;

    std::vector<long long> packet_seq_;
    std::vector<Decision> decisions_;
    long long flits_in_network_ = 0;
    long long win_begin_ = 0;
    long long win_end_ = 0;
};

void validate_params(const SimIndex& idx, const SimParams& params) {
    if (!idx.all_flows_routed)
        throw std::invalid_argument(
            "simulate: every flow must be routed (topology incomplete)");
    if (params.warmup_cycles < 0 || params.measure_cycles < 1 ||
        params.drain_max_cycles < 0)
        throw std::invalid_argument("simulate: bad phase lengths");
}

double percentile99(std::vector<double> v) {
    if (v.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(std::max(
        0.0, std::ceil(0.99 * static_cast<double>(v.size())) - 1.0));
    const auto k = std::min(idx, v.size() - 1);
    // Selects the identical order statistic a full sort would, in O(n):
    // the report only needs this one element, not the sorted vector.
    std::nth_element(v.begin(),
                     v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
    return v[k];
}

/// Fold the engine counters into the report's latency/packet fields.
void fill_latency_stats(const Engine& eng, int num_flows, SimReport& rep) {
    rep.injected_packets = eng.injected_packets_;
    rep.received_packets = eng.received_packets_;
    rep.injected_flits = eng.injected_flits_;
    rep.received_flits = eng.received_flits_;
    double sum = 0.0;
    for (double l : eng.latencies_) {
        sum += l;
        rep.max_latency_cycles = std::max(rep.max_latency_cycles, l);
    }
    if (!eng.latencies_.empty())
        rep.avg_latency_cycles =
            sum / static_cast<double>(eng.latencies_.size());
    rep.p99_latency_cycles = percentile99(eng.latencies_);
    if (eng.head_count_ > 0)
        rep.avg_head_latency_cycles =
            eng.head_lat_sum_ / static_cast<double>(eng.head_count_);
    rep.flow_avg_latency_cycles.assign(static_cast<std::size_t>(num_flows),
                                       -1.0);
    for (int f = 0; f < num_flows; ++f) {
        const auto uf = static_cast<std::size_t>(f);
        if (eng.flow_lat_count_[uf] > 0)
            rep.flow_avg_latency_cycles[uf] =
                eng.flow_lat_sum_[uf] /
                static_cast<double>(eng.flow_lat_count_[uf]);
    }
}

/// The warmup -> measure -> drain driver over a ready (reset) engine.
SimReport run_phases(Engine& eng, const SimIndex& idx,
                     const DesignSpec& spec, const EvalParams& eval,
                     const SimParams& params) {
    InjectionState inj(spec, params.inject, eval);
    if (inj.num_flows() != idx.num_flows)
        throw std::invalid_argument(
            "simulate: spec flow count does not match the simulator's "
            "index");
    Rng rng(params.seed);

    const long long wb = params.warmup_cycles;
    const long long we = wb + params.measure_cycles;
    eng.set_window(wb, we);

    auto& reg = obs::Registry::global();
    obs::Histogram& occ_hist = reg.histogram(
        "sim.buffer_occupancy_flits", {0.0, 1.0, 2.0, 4.0, 8.0, 16.0});
    obs::Histogram& injq_hist = reg.histogram(
        "sim.injection_queue_depth_flits",
        {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0});

    std::vector<int> hits(static_cast<std::size_t>(idx.num_flows));
    long long T = 0;
    const auto step = [&](long long now) {
        eng.begin_cycle(now);
        const int nh = inj.draw_cycle(rng, hits.data());
        for (int i = 0; i < nh; ++i)
            eng.inject_packet(hits[static_cast<std::size_t>(i)],
                              params.inject.packet_length_flits, now,
                              now >= wb);
        eng.end_cycle(now);
        if ((now & 63) == 0) eng.sample_occupancy(occ_hist, injq_hist);
    };
    {
        obs::ScopedSpan span("sim.warmup", "cycles", wb);
        for (; T < wb; ++T) step(T);
    }
    {
        obs::ScopedSpan span("sim.measure", "cycles", params.measure_cycles);
        for (; T < we; ++T) step(T);
    }
    // Injection stopped; run the network empty. Measured packets still in
    // flight keep being recorded as they land.
    const long long drain_end = we + params.drain_max_cycles;
    {
        obs::ScopedSpan span("sim.drain");
        while (eng.flits_in_network() > 0 && T < drain_end) {
            eng.begin_cycle(T);
            eng.end_cycle(T);
            ++T;
        }
    }

    SimReport rep;
    fill_latency_stats(eng, idx.num_flows, rep);
    rep.offered_flits_per_cycle = inj.offered_flits_per_cycle();
    rep.accepted_flits_per_cycle =
        static_cast<double>(eng.window_ejected_flits_) /
        static_cast<double>(params.measure_cycles);
    rep.link_utilization.resize(static_cast<std::size_t>(idx.num_links));
    for (int l = 0; l < idx.num_links; ++l)
        rep.link_utilization[static_cast<std::size_t>(l)] =
            static_cast<double>(
                eng.link_departures_[static_cast<std::size_t>(l)]) /
            static_cast<double>(params.measure_cycles);
    rep.drained = eng.flits_in_network() == 0;
    rep.cycles_run = T;
    rep.in_flight_flits_at_end = eng.flits_in_network();

    // Push the run's instrumentation into the registry — after the report
    // is assembled, so metrics can never feed back into results.
    reg.counter("sim.runs").add(1);
    reg.counter("sim.cycles").add(T);
    reg.counter("sim.backpressure_stall_cycles")
        .add(eng.obs_.backpressure_stall_cycles);
    reg.counter("sim.arbitration_conflicts")
        .add(eng.obs_.arbitration_conflicts);
    reg.counter("sim.injected_flits").add(eng.injected_flits_);
    reg.counter("sim.received_flits").add(eng.received_flits_);
    obs::Histogram& util_hist = reg.histogram(
        "sim.link_utilization",
        {0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0});
    for (double u : rep.link_utilization) util_hist.observe(u);
    return rep;
}

/// The per-flow isolation probe of Simulator::run_zero_load over a ready
/// engine. Always replays the baked paths: at zero load every candidate
/// link has full credit, so adaptive selection's credit comparison
/// always ties and its tie-break picks the baked link — the replay is
/// exact, not an approximation (pinned by sim_routing tests).
SimReport run_zero_load_phases(Engine& eng, const SimIndex& idx,
                               const SimParams& params) {
    SimReport rep;
    rep.flow_avg_latency_cycles.assign(
        static_cast<std::size_t>(idx.num_flows), -1.0);
    rep.drained = true;
    // Each flow probes an otherwise idle network: its packet can never
    // contend, so its latency is the simulator's zero-load number.
    const long long limit = std::max<long long>(params.drain_max_cycles, 1);
    std::vector<double> all_lat;
    double head_sum = 0.0;
    long long head_count = 0;
    for (int f = 0; f < idx.num_flows; ++f) {
        const auto uf = static_cast<std::size_t>(f);
        if (idx.path_off[uf] == idx.path_off[uf + 1]) continue;  // unrouted
        eng.reset(false);
        eng.set_window(0, limit);
        long long T = 0;
        eng.begin_cycle(T);
        eng.inject_packet(f, params.inject.packet_length_flits, T, true);
        eng.end_cycle(T);
        ++T;
        while (eng.flits_in_network() > 0 && T < limit) {
            eng.begin_cycle(T);
            eng.end_cycle(T);
            ++T;
        }
        rep.injected_packets += eng.injected_packets_;
        rep.received_packets += eng.received_packets_;
        rep.injected_flits += eng.injected_flits_;
        rep.received_flits += eng.received_flits_;
        rep.cycles_run += T;
        if (eng.flits_in_network() > 0) rep.drained = false;
        rep.in_flight_flits_at_end += eng.flits_in_network();
        if (eng.flow_lat_count_[uf] > 0) {
            const double lat = eng.flow_lat_sum_[uf] /
                               static_cast<double>(eng.flow_lat_count_[uf]);
            rep.flow_avg_latency_cycles[uf] = lat;
            all_lat.push_back(lat);
            rep.max_latency_cycles = std::max(rep.max_latency_cycles, lat);
        }
        head_sum += eng.head_lat_sum_;
        head_count += eng.head_count_;
    }
    if (!all_lat.empty()) {
        double sum = 0.0;
        for (double l : all_lat) sum += l;
        rep.avg_latency_cycles = sum / static_cast<double>(all_lat.size());
    }
    rep.p99_latency_cycles = percentile99(all_lat);
    if (head_count > 0)
        rep.avg_head_latency_cycles =
            head_sum / static_cast<double>(head_count);
    return rep;
}

}  // namespace

struct Simulator::Impl {
    std::shared_ptr<const SimIndex> index;
    std::unique_ptr<Engine> engine;  ///< rebuilt when the depth changes

    Engine& engine_for(int depth, bool use_routes) {
        if (!engine || engine->depth() != depth)
            engine = std::make_unique<Engine>(*index, depth, use_routes);
        else
            engine->reset(use_routes);
        return *engine;
    }
};

Simulator::Simulator(const Topology& topo, const DesignSpec& spec,
                     const EvalParams& eval,
                     routing::RoutingPolicyId routing)
    : Simulator(std::make_shared<const SimIndex>(
          build_sim_index(topo, spec, eval, routing))) {}

Simulator::Simulator(std::shared_ptr<const SimIndex> index)
    : impl_(std::make_unique<Impl>()) {
    if (!index) throw std::invalid_argument("Simulator: null index");
    impl_->index = std::move(index);
}

Simulator::Simulator(Simulator&&) noexcept = default;
Simulator& Simulator::operator=(Simulator&&) noexcept = default;
Simulator::~Simulator() = default;

namespace {

void check_routing_matches(const SimIndex& idx,
                           routing::RoutingPolicyId routing) {
    if (routing != idx.routing)
        throw std::invalid_argument(
            std::string("Simulator: params.routing (") +
            routing::routing_to_string(routing) +
            ") does not match the policy the index was built for (" +
            routing::routing_to_string(idx.routing) + ")");
}

}  // namespace

SimReport Simulator::run(const DesignSpec& spec, const EvalParams& eval,
                         const SimParams& params) {
    const SimIndex& idx = *impl_->index;
    check_routing_matches(idx, params.routing);
    validate_params(idx, params);
    Engine& eng =
        impl_->engine_for(params.buffer_depth_flits, idx.adaptive);
    return run_phases(eng, idx, spec, eval, params);
}

SimReport Simulator::run_zero_load(SimParams params) {
    const SimIndex& idx = *impl_->index;
    check_routing_matches(idx, params.routing);
    if (params.inject.packet_length_flits < 1)
        throw std::invalid_argument("packet_length_flits must be positive");
    Engine& eng = impl_->engine_for(params.buffer_depth_flits, false);
    return run_zero_load_phases(eng, idx, params);
}

}  // namespace sunfloor::sim
