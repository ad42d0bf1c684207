// The partitioned in-DRAM database.
//
// DORA-style partitioning (paper section 3.1): each partition is owned by
// exactly one worker and holds a private instance of every table's index
// (replicated tables hold a full copy in each partition). All structures
// live in the simulated FPGA-side DRAM, each partition's in its own arena.
//
// Threads: the database is single-threaded, except inside Populate, which
// runs one loader per partition on host threads (DESIGN.md section 15.5).
#ifndef BIONICDB_DB_DATABASE_H_
#define BIONICDB_DB_DATABASE_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "db/catalogue.h"
#include "db/hash_layout.h"
#include "db/schema.h"
#include "db/skiplist_layout.h"
#include "db/types.h"
#include "sim/memory.h"

namespace bionicdb::db {

class Database {
 public:
  Database(sim::DramMemory* dram, uint32_t n_partitions, uint64_t seed = 42);

  /// Registers the schema in the catalogue and materialises one index
  /// instance per partition, each in its partition's arena. A hash table
  /// with more than kMaxHashBuckets buckets is InvalidArgument.
  Status CreateTable(const TableSchema& schema);

  uint32_t n_partitions() const { return n_partitions_; }
  Catalogue& catalogue() { return catalogue_; }
  const Catalogue& catalogue() const { return catalogue_; }
  sim::DramMemory* dram() const { return dram_; }

  /// Index instance lookups; null when the table uses the other kind.
  HashTableLayout* hash_index(TableId table, PartitionId partition);
  SkiplistLayout* skiplist_index(TableId table, PartitionId partition);
  const HashTableLayout* hash_index(TableId table,
                                    PartitionId partition) const;
  const SkiplistLayout* skiplist_index(TableId table,
                                       PartitionId partition) const;

  /// Host-side population, as the paper does before measurement: runs
  /// `load(p)` for every partition p, where `load` bulk-loads partition
  /// p's rows, its copy of each replicated table included. Partitions
  /// share no arena, so the loaders run on min(partitions, hardware
  /// threads) host threads, the caller among them, and every arena ends up
  /// byte-identical to a serial load in partition order. They run serially
  /// on the caller inside another parallel loop (common/parallel.h), with
  /// a DRAM fault hook installed (its OnTupleAllocated is not
  /// thread-safe), or when partitions share an arena (an unpartitioned
  /// memory).
  ///
  /// Inside `load(p)`, loads write partition p only: a replicated row goes
  /// into p's copy through LoadOne, and a load that would write another
  /// partition (Load's replicated fan-out included) is FailedPrecondition,
  /// as is a nested Populate. Returns the lowest failing partition's
  /// status. Parallel loaders take pages from per-arena blocks
  /// (DramMemory::SetPerArenaPageBlocks).
  Status Populate(const std::function<Status(PartitionId)>& load);

  /// Bulk-loads one committed tuple, bypassing timing. For replicated
  /// tables the tuple is loaded into every partition. `write_ts` lets
  /// checkpoint restore preserve original commit timestamps.
  Status Load(TableId table, PartitionId partition, const uint8_t* key,
              uint16_t key_len, const uint8_t* payload, uint32_t payload_len,
              Timestamp write_ts = 1);

  /// Convenience for 8-byte integer keys, big-endian encoded so that byte
  /// order matches numeric order (required for skiplist tables; fine for
  /// hash tables).
  Status LoadU64(TableId table, PartitionId partition, uint64_t key,
                 const void* payload, uint32_t payload_len);

  /// Loads into exactly one partition, even for a replicated table (one
  /// copy): what a Populate loader uses for replicated rows, and checkpoint
  /// restore (the checkpoint holds one dump per partition).
  Status LoadOne(TableId table, PartitionId partition, const uint8_t* key,
                 uint16_t key_len, const uint8_t* payload,
                 uint32_t payload_len, Timestamp write_ts = 1);

  /// Little-endian (native) 8-byte keys, for hash-only tables whose keys
  /// stored procedures compute with MUL/ADD and STORE raw (e.g. TPC-C
  /// order keys derived from next_o_id).
  Status LoadU64Le(TableId table, PartitionId partition, uint64_t key,
                   const void* payload, uint32_t payload_len);

  /// Functional point lookup (test oracle / host verification).
  sim::Addr FindU64(TableId table, PartitionId partition, uint64_t key) const;
  sim::Addr FindU64Le(TableId table, PartitionId partition,
                      uint64_t key) const;

 private:
  struct PartitionIndexes {
    std::unique_ptr<HashTableLayout> hash;
    std::unique_ptr<SkiplistLayout> skiplist;
  };

  sim::DramMemory* dram_;
  uint32_t n_partitions_;
  uint64_t seed_;
  Catalogue catalogue_;
  // indexes_[table][partition]
  std::vector<std::vector<PartitionIndexes>> indexes_;
};

}  // namespace bionicdb::db

#endif  // BIONICDB_DB_DATABASE_H_
