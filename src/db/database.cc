#include "db/database.h"

#include <string>

#include "common/parallel.h"
#include "db/tuple.h"

namespace bionicdb::db {

namespace {

/// The database and partition whose Populate loader this thread is running
/// (null outside one): what keeps a loader's writes in its own arena.
thread_local const Database* loading_db = nullptr;
thread_local PartitionId loading_partition = 0;

class LoaderScope {
 public:
  LoaderScope(const Database* db, PartitionId partition) {
    loading_db = db;
    loading_partition = partition;
  }
  ~LoaderScope() { loading_db = nullptr; }
  LoaderScope(const LoaderScope&) = delete;
  LoaderScope& operator=(const LoaderScope&) = delete;
};

}  // namespace

Database::Database(sim::DramMemory* dram, uint32_t n_partitions,
                   uint64_t seed)
    : dram_(dram), n_partitions_(n_partitions), seed_(seed) {}

Status Database::CreateTable(const TableSchema& schema) {
  if (schema.index == IndexKind::kHash &&
      schema.hash_buckets > kMaxHashBuckets) {
    return Status::InvalidArgument(
        "hash table '" + schema.name + "' asks for " +
        std::to_string(schema.hash_buckets) + " buckets; at most " +
        std::to_string(kMaxHashBuckets));
  }
  BIONICDB_RETURN_IF_ERROR(catalogue_.RegisterTable(schema));
  std::vector<PartitionIndexes> per_partition(n_partitions_);
  for (uint32_t p = 0; p < n_partitions_; ++p) {
    // Each partition's index structures allocate from that partition's
    // arena so its worker owns every byte it touches at run time.
    if (schema.index == IndexKind::kHash) {
      per_partition[p].hash =
          std::make_unique<HashTableLayout>(dram_, p, schema.hash_buckets);
    } else {
      per_partition[p].skiplist = std::make_unique<SkiplistLayout>(
          dram_, p, seed_ ^ (uint64_t(schema.id) << 32) ^ p);
    }
  }
  indexes_.push_back(std::move(per_partition));
  return Status::Ok();
}

Status Database::Populate(const std::function<Status(PartitionId)>& load) {
  if (loading_db == this) {
    return Status::FailedPrecondition("Populate inside a partition loader");
  }
  // Loaders share nothing only when every partition has an arena of its
  // own; the fault hook's tuple registration is not thread-safe.
  const bool parallel = dram_->partitioned() &&
                        n_partitions_ < dram_->n_arenas() &&
                        dram_->fault_hook() == nullptr;
  std::vector<Status> results(n_partitions_);
  if (parallel) dram_->SetPerArenaPageBlocks(true);
  ParallelFor(n_partitions_, parallel ? 0 : 1, [&](size_t p) {
    LoaderScope scope(this, PartitionId(p));
    results[p] = load(PartitionId(p));
  });
  if (parallel) dram_->SetPerArenaPageBlocks(false);
  for (Status& s : results) {
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

HashTableLayout* Database::hash_index(TableId table, PartitionId partition) {
  if (table >= indexes_.size() || partition >= n_partitions_) return nullptr;
  return indexes_[table][partition].hash.get();
}
SkiplistLayout* Database::skiplist_index(TableId table,
                                         PartitionId partition) {
  if (table >= indexes_.size() || partition >= n_partitions_) return nullptr;
  return indexes_[table][partition].skiplist.get();
}
const HashTableLayout* Database::hash_index(TableId table,
                                            PartitionId partition) const {
  return const_cast<Database*>(this)->hash_index(table, partition);
}
const SkiplistLayout* Database::skiplist_index(TableId table,
                                               PartitionId partition) const {
  return const_cast<Database*>(this)->skiplist_index(table, partition);
}

Status Database::LoadOne(TableId table, PartitionId partition,
                         const uint8_t* key, uint16_t key_len,
                         const uint8_t* payload, uint32_t payload_len,
                         Timestamp write_ts) {
  const TableSchema* schema = catalogue_.FindTable(table);
  if (schema == nullptr) return Status::NotFound("no such table");
  if (partition >= n_partitions_) return Status::OutOfRange("bad partition");
  if (loading_db == this && partition != loading_partition) {
    return Status::FailedPrecondition(
        "partition " + std::to_string(loading_partition) +
        "'s loader loads into partition " + std::to_string(partition));
  }
  // Tuples loaded into a partition's index come from that partition's arena
  // (the layout's).
  if (schema->index == IndexKind::kHash) {
    indexes_[table][partition].hash->Insert(key, key_len, payload,
                                            payload_len, write_ts);
  } else {
    indexes_[table][partition].skiplist->Insert(key, key_len, payload,
                                                payload_len, write_ts);
  }
  return Status::Ok();
}

Status Database::Load(TableId table, PartitionId partition,
                      const uint8_t* key, uint16_t key_len,
                      const uint8_t* payload, uint32_t payload_len,
                      Timestamp write_ts) {
  const TableSchema* schema = catalogue_.FindTable(table);
  if (schema == nullptr) return Status::NotFound("no such table");
  if (schema->replicated) {
    if (loading_db == this) {
      return Status::FailedPrecondition(
          "replicated fan-out inside partition " +
          std::to_string(loading_partition) +
          "'s loader; load its copy with LoadOne");
    }
    for (uint32_t p = 0; p < n_partitions_; ++p) {
      BIONICDB_RETURN_IF_ERROR(
          LoadOne(table, p, key, key_len, payload, payload_len, write_ts));
    }
    return Status::Ok();
  }
  return LoadOne(table, partition, key, key_len, payload, payload_len,
                 write_ts);
}

Status Database::LoadU64(TableId table, PartitionId partition, uint64_t key,
                         const void* payload, uint32_t payload_len) {
  uint8_t kbuf[8];
  EncodeKeyU64(key, kbuf);
  return Load(table, partition, kbuf, 8,
              static_cast<const uint8_t*>(payload), payload_len);
}

Status Database::LoadU64Le(TableId table, PartitionId partition, uint64_t key,
                           const void* payload, uint32_t payload_len) {
  return Load(table, partition, reinterpret_cast<const uint8_t*>(&key), 8,
              static_cast<const uint8_t*>(payload), payload_len);
}

sim::Addr Database::FindU64Le(TableId table, PartitionId partition,
                              uint64_t key) const {
  const TableSchema* schema = catalogue_.FindTable(table);
  if (schema == nullptr) return sim::kNullAddr;
  const uint8_t* kbuf = reinterpret_cast<const uint8_t*>(&key);
  if (schema->index == IndexKind::kHash) {
    return hash_index(table, partition)->Find(kbuf, 8);
  }
  return skiplist_index(table, partition)->Find(kbuf, 8);
}

sim::Addr Database::FindU64(TableId table, PartitionId partition,
                            uint64_t key) const {
  uint8_t kbuf[8];
  EncodeKeyU64(key, kbuf);
  const TableSchema* schema = catalogue_.FindTable(table);
  if (schema == nullptr) return sim::kNullAddr;
  if (schema->index == IndexKind::kHash) {
    return hash_index(table, partition)->Find(kbuf, 8);
  }
  return skiplist_index(table, partition)->Find(kbuf, 8);
}

}  // namespace bionicdb::db
