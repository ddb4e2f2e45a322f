// Content-addressed on-disk artifact store.
//
// Objects are keyed by strings — in practice the text form of the
// pipeline's stage keys (which serialize *exactly* the inputs a stage
// consumed; see pipeline/session.h) prefixed with a fingerprint of the
// owning spec — and live as single files under one directory:
//
//   <dir>/<16-hex fnv1a64 of key>
//
// Each object file carries a fixed header (magic + format version, key
// length, payload length, payload hash) followed by the full key echo and
// the payload. Every load re-validates all of it: a truncated, bit-flipped
// or mis-renamed file is a *miss* (and is unlinked as debris), never served
// — the store trusts nothing it did not just verify.
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
// Eviction (gc) is size-bounded and age-ordered: successful loads bump the
// object's timestamps, and when the store exceeds max_bytes the
// least-recently-used objects go first. Stale `.tmp` debris older than
// tmp_min_age_sec is reaped on the way.
//
// Metrics land in obs::Registry::global() under cas.{hits,misses,stores,
// evictions,corrupt}; `sunfloor_cli cas stats|gc` is the operator surface.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sunfloor::obs {
class Counter;
}

namespace sunfloor::cas {

/// FNV-1a over `s`, continuing from `h`. The store's one hash: object
/// names, payload checksums and key fingerprints all use it.
std::uint64_t fnv1a64(std::string_view s,
                      std::uint64_t h = 0xcbf29ce484222325ULL);

struct StoreOptions {
    /// Object directory; created (one level) if missing.
    std::string dir;
    /// Soft size bound enforced by gc(); 0 = unbounded.
    std::uint64_t max_bytes = 0;
    /// gc() reaps `.tmp` debris older than this (a live writer's tmp file
    /// is seconds old; anything older is a crashed writer's leftovers).
    double tmp_min_age_sec = 60.0;
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
    /// corrupt object (bad magic/lengths/checksum) counts as a miss, is
    /// unlinked, and bumps cas.corrupt. A successful load refreshes the
    /// object's timestamps (the gc() recency order).
    bool get(std::string_view key, std::string& payload_out);

    StoreStats stats() const;

    /// Reap stale `.tmp` debris, then evict least-recently-used objects
    /// until the store fits max_bytes (no-op when max_bytes == 0).
    GcResult gc();

    /// Object file name for a key: 16 hex digits of fnv1a64(key).
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
