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
#include <stdexcept>
#include <vector>

#include "sunfloor/obs/metrics.h"
#include "sunfloor/util/strings.h"

namespace sunfloor::cas {

namespace {

// Object file layout (all integers little-endian):
//   [0,8)   magic "SFCAS001" (the version is part of the magic — a future
//           layout change bumps it and old objects become clean misses)
//   [8,12)  u32 key length
//   [12,20) u64 payload length
//   [20,28) u64 fnv1a64(payload)
//   [28,..) key bytes, then payload bytes
constexpr char kMagic[8] = {'S', 'F', 'C', 'A', 'S', '0', '0', '1'};
constexpr std::size_t kHeaderSize = 28;

// gc() reaps `.tmp` debris older than this: a live writer's tmp file is
// seconds old, anything older is a crashed writer's leftovers.
constexpr double kTmpMinAgeSec = 60.0;

void put_u32(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t get_u32(const unsigned char* p) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t get_u64(const unsigned char* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/// Read `fd` to its end into `out`.
bool read_all_fd(int fd, std::string& out) {
    out.clear();
    char buf[65536];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n > 0) {
            out.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) return true;
        if (errno != EINTR) return false;
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

/// Validate a raw object blob against the key it should hold. 0 = intact
/// (payload bounds returned), 1 = structurally corrupt, 2 = intact but for
/// another key (a name collision — not our object, not debris).
int validate_blob(const std::string& blob, std::string_view key,
                  std::size_t& payload_off, std::size_t& payload_len) {
    if (blob.size() < kHeaderSize) return 1;
    const auto* p = reinterpret_cast<const unsigned char*>(blob.data());
    if (std::memcmp(blob.data(), kMagic, sizeof kMagic) != 0) return 1;
    const std::uint64_t key_len = get_u32(p + 8);
    const std::uint64_t pay_len = get_u64(p + 12);
    const std::uint64_t pay_hash = get_u64(p + 20);
    if (key_len + pay_len + kHeaderSize != blob.size()) return 1;
    const std::string_view stored_key(blob.data() + kHeaderSize,
                                      static_cast<std::size_t>(key_len));
    const std::string_view payload(
        blob.data() + kHeaderSize + static_cast<std::size_t>(key_len),
        static_cast<std::size_t>(pay_len));
    if (fnv1a64(payload) != pay_hash) return 1;
    if (stored_key != key) return 2;
    payload_off = kHeaderSize + static_cast<std::size_t>(key_len);
    payload_len = static_cast<std::size_t>(pay_len);
    return 0;
}

}  // namespace

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
    append_hex64(name, fnv1a64(key));
    return name;
}

std::string Store::object_path(std::string_view key) const {
    return opts_.dir + "/" + object_name(key);
}

bool Store::put(std::string_view key, std::string_view payload) {
    std::string blob;
    blob.reserve(kHeaderSize + key.size() + payload.size());
    blob.append(kMagic, sizeof kMagic);
    put_u32(blob, static_cast<std::uint32_t>(key.size()));
    put_u64(blob, payload.size());
    put_u64(blob, fnv1a64(payload));
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
    std::string blob;
    if (fd < 0 || !read_all_fd(fd, blob)) {
        if (fd >= 0) ::close(fd);
        misses_->add();
        return false;
    }
    std::size_t off = 0, len = 0;
    const int v = validate_blob(blob, key, off, len);
    // Refresh both timestamps of the file just validated, through its
    // descriptor: gc()'s LRU order keys on mtime so it works on
    // noatime/relatime mounts too, and a newer object renamed over the
    // name meanwhile keeps its own. A concurrent eviction racing this is
    // benign (the object is already fully read).
    if (v == 0) ::futimens(fd, nullptr);
    ::close(fd);
    if (v != 0) {
        if (v == 1) {
            // Truncated or bit-flipped: debris, recompute and replace.
            corrupt_->add();
            ::unlink(path.c_str());
        }
        misses_->add();
        return false;
    }
    payload_out.assign(blob, off, len);
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
