// Fixture: correct lock discipline through the util::Mutex shim. Must
// compile cleanly under `clang -fsyntax-only -Werror=thread-safety`
// (annotations_compile_test asserts it does).
#include "sunfloor/util/mutex.h"

namespace {

class Counter {
public:
    void add(int delta) SF_EXCLUDES(mu_) {
        sunfloor::util::MutexLock lock(mu_);
        n_ += delta;
    }

    int wait_nonzero() SF_EXCLUDES(mu_) {
        sunfloor::util::UniqueLock lock(mu_);
        while (n_ == 0) cv_.wait(lock);
        return n_;
    }

    void bump_locked() SF_REQUIRES(mu_) { ++n_; }

    void bump() SF_EXCLUDES(mu_) {
        sunfloor::util::MutexLock lock(mu_);
        bump_locked();
        cv_.notify_all();
    }

private:
    mutable sunfloor::util::Mutex mu_;
    sunfloor::util::CondVar cv_;
    int n_ SF_GUARDED_BY(mu_) = 0;
};

// Readers share the lock; a writer holds it exclusively.
class Table {
public:
    int load() const SF_EXCLUDES(mu_) {
        sunfloor::util::ReaderLock lock(mu_);
        return n_;
    }

    void store(int v) SF_EXCLUDES(mu_) {
        sunfloor::util::WriterLock lock(mu_);
        n_ = v;
    }

private:
    mutable sunfloor::util::SharedMutex mu_;
    int n_ SF_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
    Counter c;
    c.add(1);
    c.bump();
    Table t;
    t.store(c.wait_nonzero());
    return t.load();
}
