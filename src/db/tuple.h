// On-DRAM tuple layout shared by the hash index and the skiplist.
//
// Both index structures embed the tuple in the index node (the paper's hash
// chains link tuples directly and skiplist "towers include a tuple"). The
// first 24 bytes are a common header so that the concurrency-control
// visibility check is identical for both:
//
//   offset  0  write_ts   (8)   latest committed writer timestamp
//   offset  8  read_ts    (8)   latest reader timestamp
//   offset 16  flags      (1)   dirty / tombstone
//   offset 17  height     (1)   skiplist tower height; 0 for hash nodes
//   offset 18  key_len    (2)
//   offset 20  payload_len(4)
//   offset 24  next[]     (8 x n_ptrs)   hash: 1 chain link; skiplist: height
//   ...        key bytes, padded to 8
//   ...        payload bytes
#ifndef BIONICDB_DB_TUPLE_H_
#define BIONICDB_DB_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/types.h"
#include "sim/memory.h"

namespace bionicdb::db {

constexpr uint64_t kTupleHeaderSize = 24;

inline uint64_t PadTo8(uint64_t n) { return (n + 7) & ~uint64_t(7); }

/// Typed view over a tuple stored in simulated DRAM. Cheap to construct;
/// every accessor is a direct functional DRAM access (timing for these
/// accesses is charged by whichever pipeline stage performs them).
class TupleAccessor {
 public:
  TupleAccessor(sim::DramMemory* dram, sim::Addr addr)
      : dram_(dram), addr_(addr) {}

  sim::Addr addr() const { return addr_; }
  bool null() const { return addr_ == sim::kNullAddr; }

  Timestamp write_ts() const { return dram_->Read64(addr_ + 0); }
  void set_write_ts(Timestamp ts) { dram_->Write64(addr_ + 0, ts); }

  Timestamp read_ts() const { return dram_->Read64(addr_ + 8); }
  void set_read_ts(Timestamp ts) { dram_->Write64(addr_ + 8, ts); }

  uint8_t flags() const { return dram_->Read8(addr_ + 16); }
  void set_flags(uint8_t f) { dram_->Write8(addr_ + 16, f); }
  bool dirty() const { return flags() & kFlagDirty; }
  bool tombstone() const { return flags() & kFlagTombstone; }
  void SetFlag(uint8_t bit) { set_flags(flags() | bit); }
  void ClearFlag(uint8_t bit) { set_flags(flags() & ~bit); }

  uint8_t height() const { return dram_->Read8(addr_ + 17); }
  uint16_t key_len() const {
    uint16_t v;
    dram_->ReadBytes(addr_ + 18, &v, 2);
    return v;
  }
  uint32_t payload_len() const { return dram_->Read32(addr_ + 20); }

  /// Number of next-pointer slots: 1 for hash nodes, height for towers.
  uint32_t num_links() const {
    uint8_t h = height();
    return h == 0 ? 1 : h;
  }

  sim::Addr next(uint32_t level = 0) const {
    return dram_->Read64(addr_ + kTupleHeaderSize + 8 * level);
  }
  void set_next(uint32_t level, sim::Addr a) {
    dram_->Write64(addr_ + kTupleHeaderSize + 8 * level, a);
  }
  /// DRAM address of the link slot itself (what a pipeline stage reads).
  sim::Addr link_addr(uint32_t level = 0) const {
    return addr_ + kTupleHeaderSize + 8 * level;
  }

  sim::Addr key_addr() const {
    return addr_ + kTupleHeaderSize + 8 * num_links();
  }
  sim::Addr payload_addr() const {
    return key_addr() + PadTo8(key_len());
  }

  std::vector<uint8_t> key_bytes() const;
  std::vector<uint8_t> payload_bytes() const;

  /// Fixed-width 8-byte integer key convenience (little-endian).
  uint64_t key_u64() const;

 private:
  sim::DramMemory* dram_;
  sim::Addr addr_;
};

/// Allocates and initialises a tuple in `partition`'s DRAM arena (see
/// DramMemory::AllocateIn). `height` is 0 for a hash node. Links are
/// initialised to null; timestamps/flags to the arguments. Returns the
/// tuple address.
sim::Addr AllocateTuple(sim::DramMemory* dram, uint32_t partition,
                        uint8_t height,
                        const uint8_t* key, uint16_t key_len,
                        const uint8_t* payload, uint32_t payload_len,
                        Timestamp write_ts, uint8_t flags);

/// Total footprint of a tuple with the given shape.
uint64_t TupleFootprint(uint8_t height, uint16_t key_len,
                        uint32_t payload_len);

/// Lexicographic compare of a probe key against the tuple's stored key
/// (shorter key that is a prefix sorts first). Returns <0, 0, >0.
int CompareKeyToTuple(const sim::DramMemory& dram, const uint8_t* key,
                      uint16_t key_len, const TupleAccessor& tuple);

/// Encodes a uint64 as an 8-byte big-endian key so that lexicographic byte
/// order equals numeric order (required for skiplist range scans).
void EncodeKeyU64(uint64_t v, uint8_t out[8]);
uint64_t DecodeKeyU64(const uint8_t in[8]);

}  // namespace bionicdb::db

#endif  // BIONICDB_DB_TUPLE_H_
