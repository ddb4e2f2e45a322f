#include "sunfloor/cas/store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "sunfloor/cas/bincode.h"
#include "sunfloor/obs/metrics.h"
#include "sunfloor/util/strings.h"

namespace sunfloor::cas {

namespace {

// The object file layout is in store.h.
constexpr char kMagic[8] = {'S', 'F', 'C', 'A', 'S', '0', '0', '2'};
constexpr std::size_t kHeaderSize = 28;

// A load reads into a stack buffer this large: an object smaller than it
// takes one read() and no allocation but its payload's.
constexpr std::size_t kFirstRead = 65536;

// gc() reaps `.tmp` debris older than this: a live writer's tmp file is
// seconds old, anything older is a crashed writer's leftovers.
constexpr double kTmpMinAgeSec = 60.0;

template <typename U>
void put_le(std::string& out, U v) {
    v = little_endian(v);
    char bytes[sizeof(U)];
    std::memcpy(bytes, &v, sizeof(U));
    out.append(bytes, sizeof(U));
}

template <typename U>
U load_le(const char* p) {
    U v;
    std::memcpy(&v, p, sizeof(U));
    return little_endian(v);
}

/// Reads the file behind `fd` to its end: into `stack` with one read()
/// when the file is smaller, else on into `heap`, which doubles while
/// reads fill it, so its size follows the bytes read, never a length the
/// file claims. read() on a regular file returns less than asked only at
/// the file's end, so a short read ends it (anywhere else it would make
/// the object look truncated: a miss that recomputes it, never a wrong
/// payload).
std::optional<std::string_view> read_file(int fd, std::span<char> stack,
                                          std::unique_ptr<char[]>& heap) {
    char* buf = stack.data();
    std::size_t cap = stack.size();
    std::size_t size = 0;
    for (;;) {
        const ssize_t n = ::read(fd, buf + size, cap - size);
        if (n < 0) {
            if (errno == EINTR) continue;
            return std::nullopt;
        }
        size += static_cast<std::size_t>(n);
        if (size < cap) return std::string_view(buf, size);
        auto grown = std::make_unique_for_overwrite<char[]>(2 * cap);
        std::memcpy(grown.get(), buf, size);
        heap = std::move(grown);
        buf = heap.get();
        cap *= 2;
    }
}

bool write_all_fd(int fd, const char* p, std::size_t n) {
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w >= 0) {
            p += w;
            n -= static_cast<std::size_t>(w);
            continue;
        }
        if (errno == EINTR) continue;
        return false;
    }
    return true;
}

bool is_object_file_name(std::string_view name) {
    if (name.size() != 16) return false;
    for (const char c : name)
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
    return true;
}

bool is_tmp_file_name(std::string_view name) {
    return name.find(".tmp.") != std::string_view::npos;
}

enum class Verdict {
    Intact,
    Corrupt,  ///< structurally broken: debris
    Miss,     ///< not debris: another key's intact object (a name
              ///< collision), or a file that could not be read
};

/// Validate an object file's bytes against the key it should hold; an
/// intact object's payload is left in `payload` (a view into `blob`).
Verdict validate_blob(std::string_view blob, std::string_view key,
                      std::string_view& payload) {
    if (blob.size() < kHeaderSize ||
        std::memcmp(blob.data(), kMagic, sizeof kMagic) != 0)
        return Verdict::Corrupt;
    const std::uint64_t key_len = load_le<std::uint32_t>(blob.data() + 8);
    const std::uint64_t pay_len = load_le<std::uint64_t>(blob.data() + 12);
    // Both lengths against the bytes read, with no sum that can wrap.
    const std::uint64_t body = blob.size() - kHeaderSize;
    if (key_len > body || pay_len != body - key_len) return Verdict::Corrupt;
    const std::string_view stored_key = blob.substr(kHeaderSize, key_len);
    payload = blob.substr(kHeaderSize + key_len);
    if (hash64(payload) != load_le<std::uint64_t>(blob.data() + 20))
        return Verdict::Corrupt;
    return stored_key == key ? Verdict::Intact : Verdict::Miss;
}

}  // namespace

std::uint64_t hash64(std::string_view bytes) {
    constexpr std::uint64_t kK = 0x9E3779B97F4A7C15ULL;
    const auto step = [](std::uint64_t h, std::uint64_t w) {
        h = (h ^ w) * kK;
        return h ^ (h >> 29);
    };
    const char* p = bytes.data();
    const std::size_t n = bytes.size();
    std::uint64_t lane[4] = {0x243F6A8885A308D3ULL ^ (n * kK),
                             0x13198A2E03707344ULL, 0xA4093822299F31D0ULL,
                             0x082EFA98EC4E6C89ULL};
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        lane[0] = step(lane[0], load_le<std::uint64_t>(p + i));
        lane[1] = step(lane[1], load_le<std::uint64_t>(p + i + 8));
        lane[2] = step(lane[2], load_le<std::uint64_t>(p + i + 16));
        lane[3] = step(lane[3], load_le<std::uint64_t>(p + i + 24));
    }
    std::size_t k = 0;  // word i goes to lane i mod 4
    for (; i + 8 <= n; i += 8, ++k)
        lane[k] = step(lane[k], load_le<std::uint64_t>(p + i));
    if (i < n) {
        char tail[8] = {};
        std::memcpy(tail, p + i, n - i);
        lane[k] = step(lane[k], load_le<std::uint64_t>(tail));
    }
    std::uint64_t h = lane[0] * 0x9E3779B185EBCA87ULL +
                      lane[1] * 0xC2B2AE3D27D4EB4FULL +
                      lane[2] * 0x165667B19E3779F9ULL +
                      lane[3] * 0x85EBCA77C2B2AE63ULL;
    h ^= h >> 32;
    h *= kK;
    return h ^ (h >> 29);
}

Store::Store(StoreOptions opts) : opts_(std::move(opts)) {
    if (opts_.dir.empty())
        throw std::runtime_error("cas::Store: empty directory");
    if (::mkdir(opts_.dir.c_str(), 0777) != 0 && errno != EEXIST)
        throw std::runtime_error(
            format("cas::Store: cannot create %s: %s", opts_.dir.c_str(),
                   std::strerror(errno)));
    struct stat st{};
    if (::stat(opts_.dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        throw std::runtime_error(
            format("cas::Store: %s is not a directory", opts_.dir.c_str()));
    auto& reg = obs::Registry::global();
    hits_ = &reg.counter("cas.hits");
    misses_ = &reg.counter("cas.misses");
    stores_ = &reg.counter("cas.stores");
    evictions_ = &reg.counter("cas.evictions");
    corrupt_ = &reg.counter("cas.corrupt");
}

std::string Store::object_name(std::string_view key) {
    std::string name;
    append_hex64(name, hash64(key));
    return name;
}

std::string Store::object_path(std::string_view key) const {
    return opts_.dir + "/" + object_name(key);
}

bool Store::put(std::string_view key, std::string_view payload) {
    std::string blob;
    blob.reserve(kHeaderSize + key.size() + payload.size());
    blob.append(kMagic, sizeof kMagic);
    put_le(blob, static_cast<std::uint32_t>(key.size()));
    put_le(blob, static_cast<std::uint64_t>(payload.size()));
    put_le(blob, hash64(payload));
    blob.append(key);
    blob.append(payload);

    // Unique tmp sibling: pid guards against other processes, the counter
    // against other threads of this one.
    static std::atomic<unsigned long long> seq{0};
    const std::string path = object_path(key);
    const std::string tmp =
        format("%s.tmp.%d.%llu", path.c_str(), static_cast<int>(::getpid()),
               seq.fetch_add(1, std::memory_order_relaxed));
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd < 0) return false;
    const bool wrote = write_all_fd(fd, blob.data(), blob.size());
    ::close(fd);
    if (!wrote || ::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    stores_->add();
    return true;
}

bool Store::get(std::string_view key, std::string& payload_out) {
    const std::string path = object_path(key);
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        misses_->add();
        return false;
    }
    char stack[kFirstRead];
    std::unique_ptr<char[]> heap;
    const std::optional<std::string_view> blob = read_file(fd, stack, heap);
    std::string_view payload;
    const Verdict v =
        blob ? validate_blob(*blob, key, payload) : Verdict::Miss;
    // Refresh both timestamps of the file just validated, through its
    // descriptor: gc()'s LRU order keys on mtime so it works on
    // noatime/relatime mounts too, and a newer object renamed over the
    // name meanwhile keeps its own. A concurrent eviction racing this is
    // benign (the object is already fully read).
    if (v == Verdict::Intact) ::futimens(fd, nullptr);
    ::close(fd);
    if (v != Verdict::Intact) {
        if (v == Verdict::Corrupt) {
            // Truncated, bit-flipped or mis-sized: debris, recompute and
            // replace.
            corrupt_->add();
            ::unlink(path.c_str());
        }
        misses_->add();
        return false;
    }
    payload_out.assign(payload);
    hits_->add();
    return true;
}

StoreStats Store::stats() const {
    StoreStats s;
    DIR* d = ::opendir(opts_.dir.c_str());
    if (!d) return s;
    while (const dirent* e = ::readdir(d)) {
        const std::string_view name(e->d_name);
        if (name == "." || name == "..") continue;
        struct stat st{};
        const std::string path = opts_.dir + "/" + std::string(name);
        if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
        if (is_tmp_file_name(name)) {
            ++s.tmp_files;
            s.tmp_bytes += static_cast<std::uint64_t>(st.st_size);
        } else if (is_object_file_name(name)) {
            ++s.objects;
            s.object_bytes += static_cast<std::uint64_t>(st.st_size);
        }
    }
    ::closedir(d);
    return s;
}

GcResult Store::gc(std::uint64_t max_bytes) {
    GcResult r;
    struct Entry {
        std::string name;
        std::uint64_t bytes;
        struct timespec mtime;
    };
    std::vector<Entry> objects;

    struct timespec now{};
    ::clock_gettime(CLOCK_REALTIME, &now);

    DIR* d = ::opendir(opts_.dir.c_str());
    if (!d) return r;
    while (const dirent* e = ::readdir(d)) {
        const std::string name(e->d_name);
        if (name == "." || name == "..") continue;
        const std::string path = opts_.dir + "/" + name;
        struct stat st{};
        if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
        if (is_tmp_file_name(name)) {
            const double age =
                static_cast<double>(now.tv_sec - st.st_mtim.tv_sec) +
                1e-9 * static_cast<double>(now.tv_nsec - st.st_mtim.tv_nsec);
            if (age >= kTmpMinAgeSec && ::unlink(path.c_str()) == 0)
                ++r.removed_tmp;
        } else if (is_object_file_name(name)) {
            objects.push_back(
                {name, static_cast<std::uint64_t>(st.st_size), st.st_mtim});
        }
    }
    ::closedir(d);

    if (max_bytes == 0) return r;
    std::uint64_t total = 0;
    for (const Entry& o : objects) total += o.bytes;
    if (total <= max_bytes) return r;

    // Oldest first; the name tiebreak makes eviction order deterministic
    // on filesystems with coarse timestamps.
    std::sort(objects.begin(), objects.end(), [](const Entry& a,
                                                 const Entry& b) {
        if (a.mtime.tv_sec != b.mtime.tv_sec)
            return a.mtime.tv_sec < b.mtime.tv_sec;
        if (a.mtime.tv_nsec != b.mtime.tv_nsec)
            return a.mtime.tv_nsec < b.mtime.tv_nsec;
        return a.name < b.name;
    });
    for (const Entry& o : objects) {
        if (total <= max_bytes) break;
        // unlink only removes the name: a reader holding the object open
        // (or one that already read it) is unaffected.
        if (::unlink((opts_.dir + "/" + o.name).c_str()) != 0) continue;
        total -= o.bytes;
        ++r.evicted_objects;
        r.evicted_bytes += o.bytes;
        evictions_->add();
    }
    return r;
}

}  // namespace sunfloor::cas
