// Core value types shared across the BionicDB engine.
#ifndef BIONICDB_DB_TYPES_H_
#define BIONICDB_DB_TYPES_H_

#include <cstdint>

namespace bionicdb::db {

/// Hardware timestamp drawn from the global clock at transaction begin.
/// Low bits carry the worker id so timestamps are unique across partitions.
using Timestamp = uint64_t;

using TableId = uint16_t;
using PartitionId = uint32_t;
using WorkerId = uint32_t;
using TxnTypeId = uint32_t;

/// Marks "route to the local partition" in DB instructions.
constexpr int32_t kLocalPartition = -1;

/// Chip of worker `w` when consecutive worker ids group into chips of
/// `workers_per_chip` (DESIGN.md section 14); 0 means one chip.
constexpr uint32_t ChipOf(WorkerId w, uint32_t workers_per_chip) {
  return workers_per_chip > 0 ? w / workers_per_chip : 0;
}

/// Tuple header flag bits.
enum TupleFlags : uint8_t {
  kFlagDirty = 1 << 0,      // uncommitted write in progress
  kFlagTombstone = 1 << 1,  // logically deleted
};

}  // namespace bionicdb::db

#endif  // BIONICDB_DB_TYPES_H_
