#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "db/database.h"
#include "db/hash_layout.h"
#include "db/skiplist_layout.h"
#include "db/tuple.h"
#include "db/txn_block.h"
#include "sim/memory.h"

namespace bionicdb::db {
namespace {

sim::TimingConfig Cfg() { return sim::TimingConfig(); }

/// An unpartitioned memory's single arena.
constexpr uint32_t kHost = sim::DramMemory::kHostPartition;

TEST(Tuple, LayoutRoundTrip) {
  sim::DramMemory dram(Cfg());
  uint8_t key[8];
  EncodeKeyU64(42, key);
  uint8_t payload[16];
  for (int i = 0; i < 16; ++i) payload[i] = uint8_t(i);
  sim::Addr addr = AllocateTuple(&dram, kHost, /*height=*/0, key, 8, payload,
                                 16, /*write_ts=*/7, kFlagDirty);
  TupleAccessor t(&dram, addr);
  EXPECT_EQ(t.write_ts(), 7u);
  EXPECT_EQ(t.read_ts(), 0u);
  EXPECT_TRUE(t.dirty());
  EXPECT_FALSE(t.tombstone());
  EXPECT_EQ(t.height(), 0);
  EXPECT_EQ(t.num_links(), 1u);
  EXPECT_EQ(t.key_len(), 8);
  EXPECT_EQ(t.payload_len(), 16u);
  EXPECT_EQ(t.key_u64(), 42u);
  EXPECT_EQ(t.payload_bytes(), std::vector<uint8_t>(payload, payload + 16));
  EXPECT_EQ(t.next(0), sim::kNullAddr);
  t.ClearFlag(kFlagDirty);
  EXPECT_FALSE(t.dirty());
}

TEST(Tuple, TowerLinksIndependent) {
  sim::DramMemory dram(Cfg());
  uint8_t key[8];
  EncodeKeyU64(1, key);
  sim::Addr addr =
      AllocateTuple(&dram, kHost, /*height=*/4, key, 8, nullptr, 0, 1, 0);
  TupleAccessor t(&dram, addr);
  EXPECT_EQ(t.num_links(), 4u);
  t.set_next(2, 0xabc0);
  EXPECT_EQ(t.next(2), 0xabc0u);
  EXPECT_EQ(t.next(0), sim::kNullAddr);
  EXPECT_EQ(t.next(3), sim::kNullAddr);
}

TEST(Tuple, BigEndianKeyOrderMatchesNumeric) {
  uint8_t a[8], b[8];
  EncodeKeyU64(255, a);
  EncodeKeyU64(256, b);
  EXPECT_LT(memcmp(a, b, 8), 0);
  EXPECT_EQ(DecodeKeyU64(a), 255u);
  EXPECT_EQ(DecodeKeyU64(b), 256u);
}

TEST(HashLayout, InsertFindChain) {
  sim::DramMemory dram(Cfg());
  HashTableLayout table(&dram, kHost, 16);  // tiny: force collisions
  Rng rng(1);
  std::map<uint64_t, uint64_t> model;
  for (int i = 0; i < 200; ++i) {
    uint64_t k = rng.Next();
    uint8_t kb[8];
    EncodeKeyU64(k, kb);
    uint64_t payload = k * 3;
    table.Insert(kb, 8, reinterpret_cast<uint8_t*>(&payload), 8, 1);
    model[k] = payload;
  }
  for (const auto& [k, v] : model) {
    uint8_t kb[8];
    EncodeKeyU64(k, kb);
    sim::Addr found = table.Find(kb, 8);
    ASSERT_NE(found, sim::kNullAddr) << k;
    TupleAccessor t(&dram, found);
    uint64_t payload;
    dram.ReadBytes(t.payload_addr(), &payload, 8);
    EXPECT_EQ(payload, v);
  }
  uint8_t missing[8];
  EncodeKeyU64(0xdeadbeefdeadbeefULL, missing);
  EXPECT_EQ(table.Find(missing, 8), sim::kNullAddr);
}

TEST(HashLayout, NewestDuplicateShadowsOlder) {
  sim::DramMemory dram(Cfg());
  HashTableLayout table(&dram, kHost, 16);
  uint8_t kb[8];
  EncodeKeyU64(5, kb);
  uint64_t v1 = 100, v2 = 200;
  table.Insert(kb, 8, reinterpret_cast<uint8_t*>(&v1), 8, 1);
  table.Insert(kb, 8, reinterpret_cast<uint8_t*>(&v2), 8, 2);
  TupleAccessor t(&dram, table.Find(kb, 8));
  uint64_t got;
  dram.ReadBytes(t.payload_addr(), &got, 8);
  EXPECT_EQ(got, 200u);  // prepend: newest first
}

TEST(HashLayout, FreshTableReadsEveryBucketAsNull) {
  // The constructor writes no bucket: a new table relies on Allocate never
  // reusing an address and on unwritten memory reading zero, even after
  // another table has filled the memory allocated before it.
  sim::DramMemory dram(Cfg());
  HashTableLayout older(&dram, kHost, 64);
  for (uint64_t k = 0; k < 200; ++k) {
    uint8_t kb[8];
    EncodeKeyU64(k, kb);
    older.Insert(kb, 8, nullptr, 0, 1);
  }
  HashTableLayout fresh(&dram, kHost, 1 << 12);
  int visited = 0;
  fresh.ForEach([&](TupleAccessor) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 0);
  for (uint64_t k = 0; k < 200; ++k) {
    uint8_t kb[8];
    EncodeKeyU64(k, kb);
    EXPECT_EQ(fresh.Find(kb, 8), sim::kNullAddr) << k;
  }
}

TEST(HashLayout, ForEachVisitsAll) {
  sim::DramMemory dram(Cfg());
  HashTableLayout table(&dram, kHost, 8);
  for (uint64_t k = 0; k < 50; ++k) {
    uint8_t kb[8];
    EncodeKeyU64(k, kb);
    table.Insert(kb, 8, nullptr, 0, 1);
  }
  int n = 0;
  table.ForEach([&](TupleAccessor) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, 50);
}

TEST(SkiplistLayout, SortedInsertAndFind) {
  sim::DramMemory dram(Cfg());
  SkiplistLayout list(&dram, kHost, 99);
  Rng rng(2);
  std::set<uint64_t> keys;
  for (int i = 0; i < 500; ++i) keys.insert(rng.NextUint64(100000));
  for (uint64_t k : keys) {
    uint8_t kb[8];
    EncodeKeyU64(k, kb);
    list.Insert(kb, 8, reinterpret_cast<uint8_t*>(&k), 8, 1);
  }
  EXPECT_TRUE(list.CheckInvariants());
  for (uint64_t k : keys) {
    uint8_t kb[8];
    EncodeKeyU64(k, kb);
    EXPECT_NE(list.Find(kb, 8), sim::kNullAddr) << k;
  }
  uint8_t missing[8];
  EncodeKeyU64(200000, missing);
  EXPECT_EQ(list.Find(missing, 8), sim::kNullAddr);
}

TEST(SkiplistLayout, ScanReturnsSortedRange) {
  sim::DramMemory dram(Cfg());
  SkiplistLayout list(&dram, kHost, 7);
  for (uint64_t k = 0; k < 100; ++k) {
    uint8_t kb[8];
    EncodeKeyU64(k * 2, kb);  // even keys
    list.Insert(kb, 8, nullptr, 0, 1);
  }
  uint8_t start[8];
  EncodeKeyU64(31, start);  // between 30 and 32
  std::vector<uint64_t> seen;
  list.Scan(start, 8, 5, [&](TupleAccessor t) {
    seen.push_back(t.key_u64());
    return true;
  });
  EXPECT_EQ(seen, (std::vector<uint64_t>{32, 34, 36, 38, 40}));
}

TEST(SkiplistLayout, LowerBoundSemantics) {
  sim::DramMemory dram(Cfg());
  SkiplistLayout list(&dram, kHost, 3);
  for (uint64_t k : {10ull, 20ull, 30ull}) {
    uint8_t kb[8];
    EncodeKeyU64(k, kb);
    list.Insert(kb, 8, nullptr, 0, 1);
  }
  uint8_t probe[8];
  EncodeKeyU64(20, probe);
  EXPECT_EQ(TupleAccessor(&dram, list.LowerBound(probe, 8)).key_u64(), 20u);
  EncodeKeyU64(21, probe);
  EXPECT_EQ(TupleAccessor(&dram, list.LowerBound(probe, 8)).key_u64(), 30u);
  EncodeKeyU64(31, probe);
  EXPECT_EQ(list.LowerBound(probe, 8), sim::kNullAddr);
}

TEST(SkiplistLayout, DeterministicHeightsFromSeed) {
  sim::DramMemory d1(Cfg()), d2(Cfg());
  SkiplistLayout a(&d1, kHost, 42), b(&d2, kHost, 42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextHeight(), b.NextHeight());
}

TEST(TxnBlock, HeaderAndDataAccess) {
  sim::DramMemory dram(Cfg());
  TxnBlock block = TxnBlock::Allocate(&dram, /*type=*/9, /*data_size=*/64);
  EXPECT_EQ(block.txn_type(), 9u);
  EXPECT_EQ(block.state(), TxnState::kPending);
  block.WriteU64(0, 777);
  EXPECT_EQ(block.ReadU64(0), 777u);
  block.WriteKeyU64(8, 1234);
  EXPECT_EQ(block.ReadKeyU64(8), 1234u);
  block.set_state(TxnState::kCommitted);
  block.set_commit_ts(555);
  EXPECT_EQ(block.state(), TxnState::kCommitted);
  EXPECT_EQ(block.commit_ts(), 555u);
}

TEST(Database, TablesAndPartitions) {
  sim::DramMemory dram(Cfg());
  Database database(&dram, 4);
  TableSchema hash;
  hash.id = 0;
  hash.index = IndexKind::kHash;
  ASSERT_TRUE(database.CreateTable(hash).ok());
  TableSchema skip;
  skip.id = 1;
  skip.index = IndexKind::kSkiplist;
  ASSERT_TRUE(database.CreateTable(skip).ok());

  EXPECT_NE(database.hash_index(0, 0), nullptr);
  EXPECT_EQ(database.skiplist_index(0, 0), nullptr);
  EXPECT_NE(database.skiplist_index(1, 3), nullptr);
  EXPECT_EQ(database.hash_index(1, 3), nullptr);
  EXPECT_EQ(database.hash_index(0, 4), nullptr);  // bad partition

  uint64_t payload = 9;
  ASSERT_TRUE(database.LoadU64(0, 2, 100, &payload, 8).ok());
  EXPECT_NE(database.FindU64(0, 2, 100), sim::kNullAddr);
  EXPECT_EQ(database.FindU64(0, 1, 100), sim::kNullAddr);  // other partition
}

TEST(Database, ReplicatedTableLoadsEverywhere) {
  sim::DramMemory dram(Cfg());
  Database database(&dram, 3);
  TableSchema item;
  item.id = 0;
  item.replicated = true;
  ASSERT_TRUE(database.CreateTable(item).ok());
  uint64_t payload = 1;
  ASSERT_TRUE(database.LoadU64(0, 0, 55, &payload, 8).ok());
  for (uint32_t p = 0; p < 3; ++p) {
    EXPECT_NE(database.FindU64(0, p, 55), sim::kNullAddr) << p;
  }
}

TEST(Database, CreateTableRejectsMoreThan2To31Buckets) {
  // Past 2^31 the layout's power-of-two rounding wraps to 0 and never
  // ends; CreateTable refuses such a schema before building any layout.
  sim::DramMemory dram(Cfg());
  Database database(&dram, 2);
  for (uint32_t buckets : {kMaxHashBuckets + 1, uint32_t(UINT32_MAX)}) {
    TableSchema t;
    t.id = 0;
    t.hash_buckets = buckets;
    EXPECT_EQ(database.CreateTable(t).code(), StatusCode::kInvalidArgument)
        << buckets;
    EXPECT_EQ(database.catalogue().FindTable(0), nullptr);
  }
  EXPECT_EQ(dram.allocated_bytes(), 0u);
  TableSchema largest;
  largest.id = 0;
  largest.hash_buckets = kMaxHashBuckets;
  ASSERT_TRUE(database.CreateTable(largest).ok());
  EXPECT_EQ(database.hash_index(0, 1)->n_buckets(), kMaxHashBuckets);
  // Workloads size tables in 64 bits; a count past uint32_t saturates, so
  // CreateTable rejects it instead of building a wrapped, tiny table.
  EXPECT_EQ(HashBucketsFor(uint64_t(1) << 32), UINT32_MAX);
  EXPECT_EQ(HashBucketsFor(1000), 1000u);
}

TEST(Database, PopulateLoadersWriteOnlyTheirOwnPartition) {
  constexpr uint32_t kParts = 4;
  sim::DramMemory dram(Cfg());
  dram.ConfigurePartitions(kParts);
  Database database(&dram, kParts);
  TableSchema rows;
  rows.id = 0;
  TableSchema item;
  item.id = 1;
  item.replicated = true;
  ASSERT_TRUE(database.CreateTable(rows).ok());
  ASSERT_TRUE(database.CreateTable(item).ok());
  const uint64_t payload = 7;
  const auto* payload_bytes = reinterpret_cast<const uint8_t*>(&payload);
  uint8_t item_key[8];
  EncodeKeyU64(55, item_key);
  ASSERT_TRUE(database
                  .Populate([&](PartitionId p) {
                    BIONICDB_RETURN_IF_ERROR(
                        database.LoadU64(0, p, 100 + p, &payload, 8));
                    return database.LoadOne(1, p, item_key, 8, payload_bytes,
                                            8);
                  })
                  .ok());
  for (uint32_t p = 0; p < kParts; ++p) {
    EXPECT_NE(database.FindU64(0, p, 100 + p), sim::kNullAddr) << p;
    EXPECT_EQ(database.FindU64(0, p, 100 + (p + 1) % kParts), sim::kNullAddr);
    EXPECT_NE(database.FindU64(1, p, 55), sim::kNullAddr) << p;
  }

  // A load that would write another partition's arena fails instead of
  // racing with that partition's loader, and so does a nested Populate.
  const uint64_t loaded = dram.allocated_bytes();
  const Status fan_out = database.Populate([&](PartitionId p) {
    return database.LoadU64(1, p, 56, &payload, 8);
  });
  EXPECT_EQ(fan_out.code(), StatusCode::kFailedPrecondition);
  const Status foreign = database.Populate([&](PartitionId p) {
    return database.LoadU64(0, (p + 1) % kParts, 200, &payload, 8);
  });
  EXPECT_EQ(foreign.code(), StatusCode::kFailedPrecondition);
  const Status nested = database.Populate([&](PartitionId) {
    return database.Populate([](PartitionId) { return Status::Ok(); });
  });
  EXPECT_EQ(nested.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(dram.allocated_bytes(), loaded);
  // Outside a loader the replicated fan-out works as before.
  ASSERT_TRUE(database.LoadU64(1, 0, 57, &payload, 8).ok());
  for (uint32_t p = 0; p < kParts; ++p) {
    EXPECT_NE(database.FindU64(1, p, 57), sim::kNullAddr) << p;
  }
}

TEST(Database, DenseTableIdsEnforced) {
  sim::DramMemory dram(Cfg());
  Database database(&dram, 1);
  TableSchema t;
  t.id = 5;  // not dense
  EXPECT_FALSE(database.CreateTable(t).ok());
}

}  // namespace
}  // namespace bionicdb::db
