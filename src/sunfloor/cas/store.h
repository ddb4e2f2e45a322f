// Content-addressed on-disk artifact store, format 2.
//
// Objects are keyed by byte strings — in practice a pipeline stage key's
// bytes (cas::Enc bytes of *exactly* the inputs a stage consumed; see
// pipeline/session.h) after a spec prefix, the fnv1a64 of the owning
// spec's cas::enc_spec bytes — and live as single files under one
// directory:
//
//   <dir>/<16 hex digits of hash64(key)>
//
// An object file is a 28-byte header, the key echo and the payload
// (integers little-endian):
//
//   [0,8)   magic "SFCAS002" (the format version is part of the magic)
//   [8,12)  u32 key length
//   [12,20) u64 payload length
//   [20,28) u64 hash64(payload)
//   [28,..) key bytes, then payload bytes
//
// Every load re-validates all of it: the lengths against the bytes read
// (without overflow, before anything is viewed or allocated by them),
// the checksum, then the key echo byte for byte, which guards against
// name collisions. A truncated, bit-flipped or mis-sized file is a *miss*
// (and is unlinked as debris), never served — the store trusts nothing it
// did not just verify. A load is four syscalls: open, one read (an object
// larger than that read takes more), futimens and close.
//
// hash64 reads its input as little-endian 8-byte words, the last one
// zero-padded, into four lanes (word i into lane i mod 4), seeding lane 0
// with the length. Each step h = (h ^ w) * K; h ^= h >> 29 (K odd) is a
// bijection of its lane for a fixed word and of the word for a fixed lane;
// the lanes are summed through distinct odd multipliers (a bijection of
// any one lane while the others stay fixed), then mixed by a bijective
// xorshift-multiply. So two inputs of one length that differ inside a
// single word always hash apart (every single-bit flip does), and so do
// two whose padded words agree but whose lengths differ;
// any other pair collides about once in 2^64. An older format's objects
// sit under names no lookup builds: clean misses that `cas gc
// --max-bytes` reaps by age.
//
// Writes are crash-safe by construction: the blob is written to a unique
// `<name>.tmp.<pid>.<seq>` sibling and rename(2)d into place, so readers
// only ever see complete objects and a killed writer leaves at most a
// `.tmp` file for gc() to reap.
//
// Concurrency: any number of processes and threads may put/get/gc the same
// directory concurrently. Loads read an object in one open; POSIX unlink
// semantics keep an object readable through its fd even while gc() evicts
// it, so eviction never corrupts an in-flight load. The store holds no
// mutex at all — every member is immutable after construction (opts_,
// resolved metric handles), writes synchronize through O_EXCL tmp files
// plus rename(2), and the only process-shared mutable in-memory state is
// the tmp-name sequence counter, a single std::atomic in put(). There is
// deliberately nothing here for the thread-safety capability analysis to
// annotate (audited for the static-analysis pass; see
// util/annotations.h).
//
// Eviction is gc(max_bytes)'s alone, and only `sunfloor_cli cas gc
// --max-bytes` calls it: put() never evicts, so a store grows until an
// operator bounds it. gc is size-bounded and age-ordered: successful
// loads bump the object's timestamps, and when the store exceeds the
// bound the least-recently-used objects go first. A load bumps them with
// futimens on the descriptor it read, once the bytes have validated, so
// the refresh lands on the object served: a newer object renamed over
// the name meanwhile keeps its own timestamps. Stale `.tmp` debris (older
// than a minute) is reaped on the way.
//
// Metrics land in obs::Registry::global() under cas.{hits,misses,stores,
// evictions,corrupt}; `sunfloor_cli cas stats|gc` is the operator surface.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sunfloor/util/strings.h"

namespace sunfloor::obs {
class Counter;
}

namespace sunfloor::cas {

/// The hash of the spec prefix every address starts with (util/strings.h).
using sunfloor::fnv1a64;

/// The format-2 hash of object names and payload checksums (see above):
/// 64 bits, the same on any host.
std::uint64_t hash64(std::string_view bytes);

struct StoreOptions {
    /// Object directory; created (one level) if missing.
    std::string dir;
};

/// Directory census (stats subcommand); computed by scanning, so it is
/// exact at the instant of the scan.
struct StoreStats {
    std::uint64_t objects = 0;
    std::uint64_t object_bytes = 0;
    std::uint64_t tmp_files = 0;
    std::uint64_t tmp_bytes = 0;
};

struct GcResult {
    std::uint64_t evicted_objects = 0;
    std::uint64_t evicted_bytes = 0;
    std::uint64_t removed_tmp = 0;
};

class Store {
  public:
    /// Opens (creating if needed) the object directory. Throws
    /// std::runtime_error when the directory cannot be created or is not a
    /// directory.
    explicit Store(StoreOptions opts);

    /// Store `payload` under `key` (tmp+rename, atomic). Overwrites any
    /// existing object of the same key. Returns false on I/O failure —
    /// callers treat that as "not cached", never as an error.
    bool put(std::string_view key, std::string_view payload);

    /// Load the payload stored under `key`. Returns false on miss; a
    /// corrupt object (bad magic, lengths that disagree with the file's
    /// size, a bad checksum) counts as a miss, is unlinked, and bumps
    /// cas.corrupt. A successful load refreshes the
    /// timestamps of the file it read (the gc() recency order), through
    /// its descriptor and after validation.
    bool get(std::string_view key, std::string& payload_out);

    StoreStats stats() const;

    /// Reap stale `.tmp` debris, then evict least-recently-used objects
    /// until the store fits `max_bytes` (0 = unbounded: reap only).
    GcResult gc(std::uint64_t max_bytes);

    /// Object file name for a key: 16 hex digits of hash64(key).
    static std::string object_name(std::string_view key);

  private:
    std::string object_path(std::string_view key) const;

    StoreOptions opts_;
    obs::Counter* hits_;
    obs::Counter* misses_;
    obs::Counter* stores_;
    obs::Counter* evictions_;
    obs::Counter* corrupt_;
};

}  // namespace sunfloor::cas
