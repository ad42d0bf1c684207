#include "db/hash_layout.h"

#include <cassert>

#include "common/hash.h"
#include "db/schema.h"

namespace bionicdb::db {

namespace {
uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

HashTableLayout::HashTableLayout(sim::DramMemory* dram, uint32_t partition,
                                 uint32_t n_buckets)
    : dram_(dram), partition_(partition) {
  // Past 2^31 the doubling in RoundUpPow2 wraps to 0 and never ends.
  assert(n_buckets <= kMaxHashBuckets);
  uint32_t n = RoundUpPow2(n_buckets == 0 ? 1 : n_buckets);
  mask_ = n - 1;
  shift_ = 64;
  for (uint32_t v = n; v > 1; v >>= 1) --shift_;
  // No zero-fill: AllocateIn never hands out an address twice and memory
  // nobody wrote reads as zero, so every bucket of a fresh table already
  // reads kNullAddr (an empty chain).
  bucket_base_ = dram_->AllocateIn(partition_, 8ull * n);
}

uint64_t HashTableLayout::HashKey(const uint8_t* key, uint16_t key_len) {
  return SdbmHash(key, key_len);
}

sim::Addr HashTableLayout::Insert(const uint8_t* key, uint16_t key_len,
                                  const uint8_t* payload,
                                  uint32_t payload_len, Timestamp write_ts,
                                  uint8_t flags) {
  sim::Addr tuple = AllocateTuple(dram_, partition_, /*height=*/0, key,
                                  key_len, payload, payload_len, write_ts,
                                  flags);
  sim::Addr slot = BucketSlot(HashKey(key, key_len));
  sim::Addr old_head = dram_->Read64(slot);
  TupleAccessor(dram_, tuple).set_next(0, old_head);
  dram_->Write64(slot, tuple);
  return tuple;
}

sim::Addr HashTableLayout::Find(const uint8_t* key, uint16_t key_len) const {
  sim::Addr cur = dram_->Read64(BucketSlot(HashKey(key, key_len)));
  while (cur != sim::kNullAddr) {
    TupleAccessor t(dram_, cur);
    if (CompareKeyToTuple(*dram_, key, key_len, t) == 0) return cur;
    cur = t.next(0);
  }
  return sim::kNullAddr;
}

void HashTableLayout::ForEach(
    const std::function<bool(TupleAccessor)>& fn) const {
  for (uint64_t b = 0; b <= mask_; ++b) {
    sim::Addr cur = dram_->Read64(bucket_base_ + 8 * b);
    while (cur != sim::kNullAddr) {
      TupleAccessor t(dram_, cur);
      sim::Addr next = t.next(0);
      if (!fn(t)) return;
      cur = next;
    }
  }
}

uint32_t HashTableLayout::ChainLength(uint64_t hash) const {
  uint32_t n = 0;
  sim::Addr cur = dram_->Read64(BucketSlot(hash));
  while (cur != sim::kNullAddr) {
    ++n;
    cur = TupleAccessor(dram_, cur).next(0);
  }
  return n;
}

}  // namespace bionicdb::db
