#include "db/database.h"

#include "db/tuple.h"

namespace bionicdb::db {

Database::Database(sim::DramMemory* dram, uint32_t n_partitions,
                   uint64_t seed)
    : dram_(dram), n_partitions_(n_partitions), seed_(seed) {}

Status Database::CreateTable(const TableSchema& schema) {
  BIONICDB_RETURN_IF_ERROR(catalogue_.RegisterTable(schema));
  std::vector<PartitionIndexes> per_partition(n_partitions_);
  for (uint32_t p = 0; p < n_partitions_; ++p) {
    // Each partition's index structures allocate from that partition's
    // arena so its worker owns every byte it touches at run time.
    sim::DramMemory::PartitionScope scope(dram_, p);
    if (schema.index == IndexKind::kHash) {
      per_partition[p].hash =
          std::make_unique<HashTableLayout>(dram_, schema.hash_buckets);
    } else {
      per_partition[p].skiplist = std::make_unique<SkiplistLayout>(
          dram_, seed_ ^ (uint64_t(schema.id) << 32) ^ p);
    }
  }
  indexes_.push_back(std::move(per_partition));
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
  // Tuples loaded into a partition's index come from that partition's arena.
  sim::DramMemory::PartitionScope scope(dram_, partition);
  if (schema->index == IndexKind::kHash) {
    indexes_[table][partition].hash->Insert(key, key_len, payload,
                                            payload_len, write_ts);
  } else {
    indexes_[table][partition].skiplist->Insert(key, key_len, payload,
                                                payload_len, write_ts);
  }
  return Status::Ok();
}

Status Database::LoadOneForRestore(TableId table, PartitionId partition,
                                   const uint8_t* key, uint16_t key_len,
                                   const uint8_t* payload,
                                   uint32_t payload_len, Timestamp write_ts) {
  return LoadOne(table, partition, key, key_len, payload, payload_len,
                 write_ts);
}

Status Database::Load(TableId table, PartitionId partition,
                      const uint8_t* key, uint16_t key_len,
                      const uint8_t* payload, uint32_t payload_len,
                      Timestamp write_ts) {
  const TableSchema* schema = catalogue_.FindTable(table);
  if (schema == nullptr) return Status::NotFound("no such table");
  if (schema->replicated) {
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
