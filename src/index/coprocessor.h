// The per-worker index coprocessor (paper Fig. 2).
//
// One instance sits beside every partition worker's softcore. It owns a
// hash pipeline and a skiplist pipeline over the worker's partition, routes
// each DB instruction to the right pipeline by table schema, and enforces
// the global in-flight request cap (the knob swept in Figures 10/11).
// Foreground requests (local softcore) and background requests (remote
// workers, via the on-chip channels) overlap freely inside the pipelines.
// Each pipeline owns an access stage (index/access_stage.h) holding its
// slot pool and terminal CC step (and, for the skiplist, the batch
// collector); the coprocessor reaches admission, in-flight counts and
// stall flags through it.
#ifndef BIONICDB_INDEX_COPROCESSOR_H_
#define BIONICDB_INDEX_COPROCESSOR_H_

#include <algorithm>
#include <cstdint>
#include <memory>

#include "db/database.h"
#include "index/db_op.h"
#include "index/hash_pipeline.h"
#include "index/skiplist_pipeline.h"
#include "sim/component.h"
#include "sim/config.h"

namespace bionicdb::index {

class IndexCoprocessor : public sim::Component {
 public:
  struct Config {
    /// Partition-local CC unit (engine-owned, required). Both pipelines'
    /// terminal visibility checks go through cc::CcUnit::CheckAccess.
    cc::CcUnit* cc_unit = nullptr;
    uint32_t max_inflight = 16;
    HashPipeline::Config hash;
    SkiplistPipeline::Config skiplist;
  };

  IndexCoprocessor(db::Database* db, db::PartitionId partition,
                   Config config);

  /// Submits a kIndexOp envelope. Returns false when the coprocessor is at
  /// its in-flight cap (the issuing port must retry next cycle).
  bool Submit(const comm::Envelope& env);

  /// Completed kIndexResult reply envelopes, ready for CP-register
  /// writeback or response routing. The worker drains this queue.
  ResultQueue& results() { return results_; }

  void Tick(uint64_t cycle) override;
  bool Idle() const override {
    return hash_->stage().Idle() && skiplist_->stage().Idle() &&
           results_.empty();
  }

  /// Earliest wake of the two pipelines. Queued results_ don't factor in:
  /// the worker (which drains them) reports its own now + 1 hint while
  /// they are pending.
  uint64_t NextWakeCycle(uint64_t now) const override {
    return std::min(hash_->NextWakeCycle(now), skiplist_->NextWakeCycle(now));
  }
  void SkipCycles(uint64_t now, uint64_t count) override {
    hash_->SkipCycles(now, count);
    skiplist_->SkipCycles(now, count);
  }

  uint32_t inflight() const {
    return hash_->stage().queued_ops() + skiplist_->stage().queued_ops();
  }
  /// The in-flight cap: Submit rejects (and counts a cap reject) while
  /// inflight() is at it.
  uint32_t max_inflight() const { return config_.max_inflight; }
  /// Bulk-charges `count` cap rejects: a dispatch retry the worker skipped
  /// because the coprocessor stayed full (PartitionWorker::SkipCycles).
  void SkipCapRejects(uint64_t count) { fc_cap_rejects_.Add(count); }

  HashPipeline& hash_pipeline() { return *hash_; }
  SkiplistPipeline& skiplist_pipeline() { return *skiplist_; }
  CounterSet& counters() { return counters_; }

  /// Per-tick stall attribution rolled up over both pipelines (valid after
  /// this coprocessor's Tick for the current cycle). The worker samples
  /// these to classify its cycle-breakdown buckets.
  bool dram_stalled() const {
    return hash_->stage().dram_stalled() || skiplist_->stage().dram_stalled();
  }
  bool hazard_stalled() const {
    return hash_->stage().hazard_stalled() ||
           skiplist_->stage().hazard_stalled();
  }

  /// Dumps coprocessor-level counters, both pipelines and the CC unit
  /// under `scope`.
  void CollectStats(StatsScope scope) const;

 private:
  db::Database* db_;
  db::PartitionId partition_;
  Config config_;
  ResultQueue results_;
  std::unique_ptr<HashPipeline> hash_;
  std::unique_ptr<SkiplistPipeline> skiplist_;
  CounterSet counters_;
  // Per-op admission counters, bumped for every accepted envelope
  // (common/stats.h FastCounter).
  FastCounter fc_foreground_ops_{&counters_, "foreground_ops"};
  FastCounter fc_background_ops_{&counters_, "background_ops"};
  // Bumped on every rejected Submit, once per cycle while a dispatch spins.
  FastCounter fc_cap_rejects_{&counters_, "cap_rejects"};
};

}  // namespace bionicdb::index

#endif  // BIONICDB_INDEX_COPROCESSOR_H_
