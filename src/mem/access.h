// Memory access policies. Every core algorithm in src/algo is written once,
// templated on one of these:
//
//   DirectMemory     — plain loads/stores; compiles to the raw algorithm
//                      (used for wall-clock benchmarks and production use).
//   SimulatedMemory  — routes every load/store through a MemoryHierarchy,
//                      producing the exact L1/L2/TLB miss counts that the
//                      paper obtained from R10000 hardware counters.
//
// This is the substitution that makes the paper's counter-based evaluation
// reproducible on any host (see README.md, "Memory layer").
#ifndef CCDB_MEM_ACCESS_H_
#define CCDB_MEM_ACCESS_H_

#include "mem/hierarchy.h"
#include "util/logging.h"

namespace ccdb {

/// Zero-overhead pass-through policy.
struct DirectMemory {
  template <typename T>
  CCDB_ALWAYS_INLINE T Load(const T* p) const {
    return *p;
  }
  template <typename T>
  CCDB_ALWAYS_INLINE void Store(T* p, const T& v) const {
    *p = v;
  }
  /// Read-modify-write convenience (e.g. histogram increments): one access.
  template <typename T>
  CCDB_ALWAYS_INLINE void Update(T* p, const T& delta) const {
    *p += delta;
  }
};

/// Counting policy: every Load/Store/Update is one simulated access of
/// sizeof(T) bytes.
class SimulatedMemory {
 public:
  explicit SimulatedMemory(MemoryHierarchy* hierarchy)
      : hierarchy_(hierarchy) {
    CCDB_CHECK(hierarchy != nullptr);
  }

  template <typename T>
  T Load(const T* p) const {
    hierarchy_->Access(p, sizeof(T), /*write=*/false);
    return *p;
  }
  template <typename T>
  void Store(T* p, const T& v) const {
    hierarchy_->Access(p, sizeof(T), /*write=*/true);
    *p = v;
  }
  template <typename T>
  void Update(T* p, const T& delta) const {
    // Counted once: the store hits the line the load just brought in, so a
    // line-granularity counter sees a single event.
    hierarchy_->Access(p, sizeof(T), /*write=*/true);
    *p += delta;
  }

  MemoryHierarchy* hierarchy() const { return hierarchy_; }

 private:
  MemoryHierarchy* hierarchy_;
};

}  // namespace ccdb

#endif  // CCDB_MEM_ACCESS_H_
