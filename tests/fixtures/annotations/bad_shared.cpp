// Fixture: a write under a shared lock. annotations_compile_test asserts
// this file FAILS to compile under `clang -fsyntax-only
// -Werror=thread-safety`: a util::ReaderLock grants reads of the data a
// util::SharedMutex guards, never writes.
#include "sunfloor/util/mutex.h"

namespace {

class Table {
public:
    // Writes a guarded member holding the mutex only shared.
    void racy_store(int v) SF_EXCLUDES(mu_) {
        sunfloor::util::ReaderLock lock(mu_);
        n_ = v;
    }

private:
    sunfloor::util::SharedMutex mu_;
    int n_ SF_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
    Table t;
    t.racy_store(1);
    return 0;
}
