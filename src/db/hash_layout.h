// On-DRAM hash table structure (one instance per partition per table).
//
// Layout: a contiguous bucket array of 8-byte head pointers; collisions are
// chained through the tuples' next links, newest first (the Install stage
// "appends a new tuple to the entry" by prepending it at the head, exactly
// the behaviour Figure 6 depicts).
//
// This class is the *functional* view of the structure: bucket addressing,
// whole-operation insert/search used for bulk loading and as a test oracle.
// The hardware hash pipeline performs the same steps split across stages,
// charging DRAM timing per access.
#ifndef BIONICDB_DB_HASH_LAYOUT_H_
#define BIONICDB_DB_HASH_LAYOUT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "db/tuple.h"
#include "db/types.h"
#include "sim/memory.h"

namespace bionicdb::db {

class HashTableLayout {
 public:
  /// Allocates the bucket array (zero-initialised = empty chains) in
  /// `partition`'s arena, where Insert allocates its tuples too.
  /// `n_buckets` (at most kMaxHashBuckets) is rounded up to a power of two.
  HashTableLayout(sim::DramMemory* dram, uint32_t partition,
                  uint32_t n_buckets);

  /// DRAM address of the bucket-head slot for a hash value.
  sim::Addr BucketSlot(uint64_t hash) const {
    return bucket_base_ + 8 * BucketIndex(hash);
  }
  /// Bucket selection: Sdbm's low bits mix the high key bytes poorly
  /// (structured integer keys would land `lo + 63*hi` apart under a
  /// power-of-two mask and chain ~4 deep), so a Fibonacci multiply-shift
  /// finalizer spreads them — a single DSP multiply in hardware, still no
  /// lookup table and no modulo (the paper's stated constraints).
  uint64_t BucketIndex(uint64_t hash) const {
    if (shift_ >= 64) return 0;  // single-bucket table (tests)
    return (hash * 0x9e3779b97f4a7c15ULL) >> shift_;
  }
  uint32_t n_buckets() const { return mask_ + 1; }

  /// Computes the hash the hardware Hash stage would compute (Sdbm).
  static uint64_t HashKey(const uint8_t* key, uint16_t key_len);

  // --- Functional whole operations (bulk load / test oracle) -----------

  /// Allocates a tuple and prepends it to its chain. Returns the address.
  sim::Addr Insert(const uint8_t* key, uint16_t key_len,
                   const uint8_t* payload, uint32_t payload_len,
                   Timestamp write_ts, uint8_t flags = 0);

  /// First chain node with a matching key, or kNullAddr.
  sim::Addr Find(const uint8_t* key, uint16_t key_len) const;

  /// Visits every tuple; `fn` returns false to stop early.
  void ForEach(const std::function<bool(TupleAccessor)>& fn) const;

  /// Length of the chain holding `hash` (diagnostics / Traverse sizing).
  uint32_t ChainLength(uint64_t hash) const;

  sim::DramMemory* dram() const { return dram_; }

 private:
  sim::DramMemory* dram_;
  uint32_t partition_;
  sim::Addr bucket_base_;
  uint64_t mask_;
  uint32_t shift_;  // 64 - log2(n_buckets)
};

}  // namespace bionicdb::db

#endif  // BIONICDB_DB_HASH_LAYOUT_H_
