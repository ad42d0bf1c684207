// On-DRAM skiplist structure (one instance per partition per table).
//
// A Pugh skiplist whose towers embed the tuple (paper section 4.4.2). The
// head tower has the maximum height and an empty key, which sorts before
// every real key under lexicographic comparison. Tower heights follow the
// classic geometric distribution drawn from a deterministic per-index RNG,
// so simulations replay identically.
//
// Like HashTableLayout, this is the functional structure view: bulk-load
// insert, exact find, lower-bound and scan used by the host loader and as
// the oracle for pipeline tests. The hardware skiplist pipeline performs
// the same traversal split across level-range stages.
#ifndef BIONICDB_DB_SKIPLIST_LAYOUT_H_
#define BIONICDB_DB_SKIPLIST_LAYOUT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.h"
#include "db/tuple.h"
#include "db/types.h"
#include "sim/memory.h"

namespace bionicdb::db {

/// Maximum tower height (paper section 5.5 sets it to 20).
constexpr uint8_t kSkiplistMaxHeight = 20;

class SkiplistLayout {
 public:
  /// Allocates the head tower in `partition`'s arena, where Insert
  /// allocates its towers too.
  SkiplistLayout(sim::DramMemory* dram, uint32_t partition,
                 uint64_t height_seed);

  sim::Addr head() const { return head_; }
  uint8_t max_height() const { return kSkiplistMaxHeight; }

  /// Geometric(1/2) tower height in [1, kSkiplistMaxHeight]; deterministic.
  uint8_t NextHeight();

  // --- Functional whole operations --------------------------------------

  /// Inserts a tuple; duplicates are allowed and the newer tuple lands
  /// before the older one at the bottom level. Returns the tower address.
  sim::Addr Insert(const uint8_t* key, uint16_t key_len,
                   const uint8_t* payload, uint32_t payload_len,
                   Timestamp write_ts, uint8_t flags = 0);

  /// Exact match, or kNullAddr.
  sim::Addr Find(const uint8_t* key, uint16_t key_len) const;

  /// First tower with key >= probe (scan entry point), or kNullAddr.
  sim::Addr LowerBound(const uint8_t* key, uint16_t key_len) const;

  /// Walks the bottom level from LowerBound(key) visiting up to `count`
  /// towers for which `fn` returns true (fn returning false skips the tower
  /// without consuming the count — this models visibility filtering).
  void Scan(const uint8_t* key, uint16_t key_len, uint32_t count,
            const std::function<bool(TupleAccessor)>& fn) const;

  /// Fills `preds` with the rightmost tower at each level whose key is
  /// strictly less than the probe key (the "insert path"). preds must hold
  /// kSkiplistMaxHeight entries. Used by the pipeline and functionally.
  void FindPredecessors(const uint8_t* key, uint16_t key_len,
                        sim::Addr preds[kSkiplistMaxHeight]) const;

  /// Visits every tower at the bottom level in key order; `fn` returns
  /// false to stop early.
  void ForEach(const std::function<bool(TupleAccessor)>& fn) const;

  /// Structural invariants: per-level sorted order, every tower reachable
  /// at level 0, level memberships nested. Returns false on violation.
  bool CheckInvariants() const;

  sim::DramMemory* dram() const { return dram_; }

 private:
  /// Key of `tower` compared against probe; head compares below everything.
  int CompareProbe(const uint8_t* key, uint16_t key_len,
                   sim::Addr tower) const;

  sim::DramMemory* dram_;
  uint32_t partition_;
  sim::Addr head_;
  Rng height_rng_;
};

}  // namespace bionicdb::db

#endif  // BIONICDB_DB_SKIPLIST_LAYOUT_H_
