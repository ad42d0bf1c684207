// BionicDb: the top-level engine — the library's primary public API.
//
// Wires together the cycle simulator, simulated DRAM, the partitioned
// database, the on-chip communication fabric and one partition worker per
// partition. Typical use:
//
//   core::EngineOptions opts;
//   opts.n_workers = 4;
//   core::BionicDb db(opts);
//   db.database().CreateTable(schema);
//   db.RegisterProcedure(kMyTxn, program, block_size);
//   ... bulk-load via db.database().LoadU64(...) ...
//   auto block = db.AllocateBlock(kMyTxn);
//   block.WriteKeyU64(0, key);
//   db.Submit(/*worker=*/0, block.base());
//   db.Drain();
//   double tps = db.Throughput();
#ifndef BIONICDB_CORE_ENGINE_H_
#define BIONICDB_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cc/cc_mode.h"
#include "cc/cc_unit.h"
#include "comm/channels.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/worker.h"
#include "db/database.h"
#include "db/txn_block.h"
#include "sim/simulator.h"

namespace bionicdb::core {

struct EngineOptions {
  /// Partition workers (= partitions). The paper fits 4 on a Virtex-5;
  /// datacenter-grade chips fit tens to hundreds (the scaling ablation).
  uint32_t n_workers = 4;
  sim::TimingConfig timing;
  Softcore::Config softcore;
  index::IndexCoprocessor::Config coproc;
  comm::Topology topology = comm::Topology::kCrossbar;
  /// Multi-chip deployment (DESIGN.md section 14): consecutive worker ids
  /// group into chips of this many workers. The fabric routes
  /// chip-crossing packets over the inter-chip tier, and commits that
  /// write a foreign chip run two-phase commit. 0, or a value that leaves
  /// a single chip, is the plain one-chip engine.
  uint32_t workers_per_chip = 0;
  /// Channel delivery guarantees (ack/retransmit/dedup). Off by default:
  /// the paper's channels are lossless and pay no protocol overhead.
  comm::ReliabilityConfig reliability;
  /// Concurrency-control scheme for the simulated tier (cc/cc_unit.h).
  /// Every partition gets its own CC unit in this mode, wired into that
  /// worker's softcore and index pipelines; kTimestamp is the paper's T/O.
  cc::CcMode cc_mode = cc::CcMode::kTimestamp;
  /// Wait-on-dirty CC extension (the paper's section 4.7 CC "blindly
  /// rejects" any access to a dirty tuple, which abort-storms hot rows
  /// like TPC-C Payment's warehouse). When non-zero, an op hitting a dirty
  /// tuple parks for up to this many cycles, re-polling the header; a
  /// timeout falls back to the blind reject (which also breaks
  /// cross-transaction wait cycles). 0 = paper behaviour, except under
  /// kSgt, which then parks for cc::CcUnit::kDefaultDirtyWaitCycles.
  uint32_t dirty_wait_cycles = 0;
  uint64_t seed = 42;
};

class BionicDb {
 public:
  explicit BionicDb(const EngineOptions& options);

  db::Database& database() { return *database_; }
  sim::Simulator& simulator() { return *sim_; }
  const EngineOptions& options() const { return options_; }
  PartitionWorker& worker(uint32_t i) { return *workers_[i]; }
  /// Partition i's CC unit.
  const cc::CcUnit& cc_unit(uint32_t i) const { return *cc_units_[i]; }
  comm::CommFabric& fabric() { return *fabric_; }

  /// Chips the workers group into (EngineOptions::workers_per_chip); 1 on
  /// a one-chip engine.
  uint32_t n_chips() const { return fabric_->n_chips(); }
  /// Chip of worker `w`; 0 on a one-chip engine.
  uint32_t ChipOf(db::WorkerId w) const { return fabric_->ChipOf(w); }

  /// Uploads a pre-compiled stored procedure to every worker's catalogue.
  Status RegisterProcedure(db::TxnTypeId type, isa::Program program,
                           uint64_t block_data_size);

  /// Allocates a transaction block sized for `type` in simulated DRAM.
  db::TxnBlock AllocateBlock(db::TxnTypeId type);

  /// Enqueues a transaction block on a worker's input queue.
  void Submit(db::WorkerId worker, sim::Addr block);

  /// Runs the simulation until all submitted transactions complete (or the
  /// cycle budget runs out). Returns cycles elapsed during this call.
  uint64_t Drain(uint64_t max_cycles = 4ull << 30);

  /// Steps the simulation a fixed number of cycles.
  void Step(uint64_t cycles) { sim_->Step(cycles); }

  // --- Aggregate statistics --------------------------------------------
  uint64_t TotalCommitted() const;
  uint64_t TotalAborted() const;
  uint64_t now() const { return sim_->now(); }
  /// Committed transactions per second over the engine's whole lifetime.
  double Throughput() const {
    return options_.timing.Throughput(TotalCommitted(), sim_->now());
  }

  /// Dumps the full engine statistics tree into `registry`:
  ///   sim/...       cycles, per-component busy/idle, DRAM channels
  ///   fabric/...    on-chip message counters
  ///   workers/<id>/ cycle breakdown, RTT, softcore + coprocessor stats
  void CollectStats(StatsRegistry* registry) const;

 private:
  EngineOptions options_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<db::Database> database_;
  std::unique_ptr<comm::CommFabric> fabric_;
  /// One CC unit per partition. Owned here and injected into each
  /// worker's softcore and coprocessor configs by pointer; units hold only
  /// partition-local state touched from the owning worker's tick path.
  std::vector<std::unique_ptr<cc::CcUnit>> cc_units_;
  std::vector<std::unique_ptr<PartitionWorker>> workers_;
};

}  // namespace bionicdb::core

#endif  // BIONICDB_CORE_ENGINE_H_
