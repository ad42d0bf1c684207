// Table schemas and index kinds.
#ifndef BIONICDB_DB_SCHEMA_H_
#define BIONICDB_DB_SCHEMA_H_

#include <cstdint>
#include <string>

#include "db/types.h"

namespace bionicdb::db {

/// Which hardware index serves a table: the hash pipeline handles point
/// accesses (INSERT/SEARCH/UPDATE/REMOVE); the skiplist additionally
/// handles SCAN (paper section 4.4).
enum class IndexKind : uint8_t {
  kHash,
  kSkiplist,
};

struct TableSchema {
  TableId id = 0;
  std::string name;
  IndexKind index = IndexKind::kHash;
  uint16_t key_len = 8;       // default fixed-width 8-byte keys
  uint32_t payload_len = 8;   // fixed payload size per table
  /// True when the table is replicated read-only in every partition
  /// (the paper replicates TPC-C's Item table).
  bool replicated = false;
  /// Hash tables are sized as `hash_buckets` entries per partition, at
  /// most kMaxHashBuckets.
  uint32_t hash_buckets = 1 << 16;
};

/// Most buckets a hash table may have: Database::CreateTable rejects more.
constexpr uint32_t kMaxHashBuckets = 1u << 31;

/// A bucket count computed in 64 bits, as a TableSchema::hash_buckets
/// value: a count past uint32_t saturates instead of wrapping, so
/// CreateTable rejects it rather than building a table that is too small.
inline uint32_t HashBucketsFor(uint64_t buckets) {
  return buckets > UINT32_MAX ? UINT32_MAX : uint32_t(buckets);
}

}  // namespace bionicdb::db

#endif  // BIONICDB_DB_SCHEMA_H_
