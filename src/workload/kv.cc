#include "workload/kv.h"

#include "common/hash.h"
#include "isa/program.h"

namespace bionicdb::workload {

namespace {

isa::Program BulkSearchProgram(uint32_t n, bool framed) {
  isa::ProgramBuilder b;
  b.Logic();
  if (framed) b.BeginBatch();
  for (uint32_t i = 0; i < n; ++i) {
    b.Search({.table_id = KvBench::kTable,
              .cp = isa::Reg(i),
              .key_offset = int32_t(8 * i)});
  }
  if (framed) b.EndBatch();
  b.Yield();
  b.Commit();
  for (uint32_t i = 0; i < n; ++i) b.Ret(1, isa::Reg(i));
  b.CommitTxn();
  b.Abort().AbortTxn();
  return b.Build().value();
}

// Layout: keys at [0, 8n); payloads at [8n, 8n + n*payload_len).
isa::Program BulkInsertProgram(uint32_t n, uint32_t payload_len) {
  isa::ProgramBuilder b;
  b.Logic();
  for (uint32_t i = 0; i < n; ++i) {
    b.Insert({.table_id = KvBench::kTable,
              .cp = isa::Reg(i),
              .key_offset = int32_t(8 * i),
              .aux_offset = int32_t(8 * n + payload_len * i)});
  }
  b.Yield();
  b.Commit();
  for (uint32_t i = 0; i < n; ++i) b.Ret(1, isa::Reg(i));
  b.CommitTxn();
  b.Abort().AbortTxn();
  return b.Build().value();
}

isa::Program BulkRemoveProgram(uint32_t n, bool framed) {
  isa::ProgramBuilder b;
  b.Logic();
  if (framed) b.BeginBatch();
  for (uint32_t i = 0; i < n; ++i) {
    b.Remove({.table_id = KvBench::kTable,
              .cp = isa::Reg(i),
              .key_offset = int32_t(8 * i)});
  }
  if (framed) b.EndBatch();
  b.Yield();
  b.Commit();
  for (uint32_t i = 0; i < n; ++i) b.Ret(1, isa::Reg(i));
  b.CommitTxn();
  b.Abort().AbortTxn();
  return b.Build().value();
}

}  // namespace

KvBench::KvBench(core::BionicDb* engine, const KvOptions& options)
    : engine_(engine),
      options_(options),
      next_fresh_key_(engine->database().n_partitions()) {
  // Fresh-key ranges start far above the preloaded keyspace, striped per
  // worker so concurrent inserts never collide across partitions.
  for (uint32_t w = 0; w < next_fresh_key_.size(); ++w) {
    next_fresh_key_[w] = (1ull << 40) + (uint64_t(w) << 32);
  }
}

Status KvBench::Setup() {
  db::TableSchema schema;
  schema.id = kTable;
  schema.name = "kv";
  schema.index = options_.index;
  schema.key_len = 8;
  schema.payload_len = options_.payload_len;
  // Oversized (~4x) to keep conflict chains — and hence the Traverse
  // stage — rare, as the paper recommends (section 4.4.1).
  schema.hash_buckets =
      db::HashBucketsFor(options_.preload_per_partition * 4 + 1024);
  BIONICDB_RETURN_IF_ERROR(engine_->database().CreateTable(schema));

  const uint32_t n = options_.ops_per_txn;
  BIONICDB_RETURN_IF_ERROR(engine_->RegisterProcedure(
      kSearchTxn, BulkSearchProgram(n, options_.batch_framing), 8ull * n));
  BIONICDB_RETURN_IF_ERROR(engine_->RegisterProcedure(
      kInsertTxn, BulkInsertProgram(n, options_.payload_len),
      8ull * n + uint64_t(options_.payload_len) * n));
  BIONICDB_RETURN_IF_ERROR(engine_->RegisterProcedure(
      kRemoveTxn, BulkRemoveProgram(n, options_.batch_framing), 8ull * n));

  std::vector<uint8_t> payload(options_.payload_len, 0xab);
  const uint64_t r = options_.preload_per_partition;
  db::Database& database = engine_->database();
  return database.Populate([&](db::PartitionId p) {
    for (uint64_t k = 0; k < r; ++k) {
      BIONICDB_RETURN_IF_ERROR(database.LoadU64(
          kTable, p, p * r + k, payload.data(), uint32_t(payload.size())));
    }
    return Status::Ok();
  });
}

sim::Addr KvBench::MakeSearchTxn(Rng* rng, db::WorkerId worker) {
  db::TxnBlock block = engine_->AllocateBlock(kSearchTxn);
  const uint64_t r = options_.preload_per_partition;
  const uint64_t base = uint64_t(worker) * r;
  if (options_.dense) {
    const uint32_t n = options_.ops_per_txn;
    const uint64_t start = rng->NextUint64(r > n ? r - n + 1 : 1);
    for (uint32_t i = 0; i < n; ++i) {
      block.WriteKeyU64(int64_t(8 * i), base + start + i);
    }
    return block.base();
  }
  for (uint32_t i = 0; i < options_.ops_per_txn; ++i) {
    block.WriteKeyU64(int64_t(8 * i), base + rng->NextUint64(r));
  }
  return block.base();
}

sim::Addr KvBench::MakeInsertTxn(db::WorkerId worker, bool sequential) {
  db::TxnBlock block = engine_->AllocateBlock(kInsertTxn);
  const uint32_t n = options_.ops_per_txn;
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t raw = next_fresh_key_[worker]++;
    uint64_t key = sequential ? raw : Fnv1aHash64(raw) | (1ull << 63);
    block.WriteKeyU64(int64_t(8 * i), key);
    block.WriteU64(int64_t(8 * n + options_.payload_len * i), raw);
  }
  return block.base();
}

sim::Addr KvBench::MakeRemoveTxn(const std::vector<uint64_t>& keys) {
  db::TxnBlock block = engine_->AllocateBlock(kRemoveTxn);
  for (uint32_t i = 0; i < options_.ops_per_txn; ++i) {
    block.WriteKeyU64(int64_t(8 * i), keys[i]);
  }
  return block.base();
}

std::function<sim::Addr(db::WorkerId)> KvBench::Factory(Rng* rng) {
  return [this, rng](db::WorkerId w) { return MakeSearchTxn(rng, w); };
}

}  // namespace bionicdb::workload
