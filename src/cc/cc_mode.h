// Concurrency-control scheme selector shared by both tiers.
//
// The simulated softcore tier (src/core + src/index) consults a per-partition
// cc::CcUnit configured with one of these modes; the software baseline tier
// (src/baseline) maps the same taxonomy onto CcSchemeKind. Keeping the enum in
// a leaf header lets EngineOptions and bench flag parsing name a scheme
// without pulling in the CC unit implementation.
#ifndef BIONICDB_CC_CC_MODE_H_
#define BIONICDB_CC_CC_MODE_H_

#include <cstdint>

namespace bionicdb::cc {

enum class CcMode : uint8_t {
  /// Single-version timestamp ordering (paper section 4.7), the default.
  /// Dirty accesses are blindly rejected, or parked first when
  /// EngineOptions::dirty_wait_cycles grants a wait budget.
  kTimestamp,
  /// Online serialization-graph testing: accesses record dependency edges
  /// between in-flight transactions; an access is refused only when adding
  /// its edges would close a cycle, so there are no false-negative aborts.
  kSgt,
  /// Timestamp-ordered multi-version reads (MVTO): writers snapshot the
  /// pre-image into a version chain before going dirty, so readers whose
  /// timestamp predates the latest committed write can still be served from
  /// an older version instead of aborting.
  kMvcc,
};

}  // namespace bionicdb::cc

#endif  // BIONICDB_CC_CC_MODE_H_
