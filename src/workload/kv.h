// Non-transactional key-value microbenchmark (paper Figures 10a, 11a, 11b).
//
// The paper measures peak index throughput with "a single transaction
// [that] repeated issuing 60 insert/search instructions in bulk": maximal
// intra-transaction index parallelism, no data dependencies. The same
// harness drives the skiplist's sequential-load and point-query curves.
#ifndef BIONICDB_WORKLOAD_KV_H_
#define BIONICDB_WORKLOAD_KV_H_

#include <cstdint>
#include <functional>

#include "common/random.h"
#include "common/status.h"
#include "core/engine.h"
#include "db/schema.h"

namespace bionicdb::workload {

struct KvOptions {
  db::IndexKind index = db::IndexKind::kHash;
  uint32_t ops_per_txn = 60;
  uint32_t payload_len = 8;
  /// Tuples bulk-loaded per partition before measuring searches.
  uint64_t preload_per_partition = 100'000;
  /// Wraps the search/remove op groups in BeginBatch()/EndBatch() so a
  /// kBatched index pipeline flushes on the group end (inserts never
  /// batch, so the insert procedure is left unframed).
  bool batch_framing = false;
  /// Dense probes: every search transaction reads `ops_per_txn`
  /// SEQUENTIAL preloaded keys from a random start (the UCSB batch-get
  /// shape). Adjacent keys share nearly their whole skiplist descent, so
  /// a batched pipeline fetches each shared tower once per batch; false
  /// keeps independent uniform keys.
  bool dense = false;
};

class KvBench {
 public:
  static constexpr db::TableId kTable = 0;
  static constexpr db::TxnTypeId kSearchTxn = 200;
  static constexpr db::TxnTypeId kInsertTxn = 201;
  static constexpr db::TxnTypeId kRemoveTxn = 202;

  KvBench(core::BionicDb* engine, const KvOptions& options);

  /// Creates the table, registers bulk search/insert procedures, preloads.
  Status Setup();

  /// A transaction of `ops_per_txn` searches over preloaded keys.
  sim::Addr MakeSearchTxn(Rng* rng, db::WorkerId worker);

  /// A transaction of `ops_per_txn` inserts of fresh keys. Sequential
  /// ascending keys when `sequential` (the paper's skiplist load pattern),
  /// otherwise pseudo-random unique keys.
  sim::Addr MakeInsertTxn(db::WorkerId worker, bool sequential);

  /// A transaction of `ops_per_txn` REMOVEs of the given keys (churn /
  /// tombstone exercise). `keys` must hold ops_per_txn entries.
  sim::Addr MakeRemoveTxn(const std::vector<uint64_t>& keys);

  /// On-demand search-transaction generator in the host driver's
  /// TxnFactory shape. `rng` and this workload must outlive the returned
  /// function.
  std::function<sim::Addr(db::WorkerId)> Factory(Rng* rng);

  const KvOptions& options() const { return options_; }

 private:
  core::BionicDb* engine_;
  KvOptions options_;
  std::vector<uint64_t> next_fresh_key_;  // per worker
};

}  // namespace bionicdb::workload

#endif  // BIONICDB_WORKLOAD_KV_H_
