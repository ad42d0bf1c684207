// The access stage shared by the hash and skiplist index pipelines.
//
// In the paper the two pipelines differ only in how they reach a tuple
// (sections 4.4.1 and 4.4.2). Both finish the same way: the section 4.7
// visibility check on the matched tuple, then a result back to the
// softcore. Each pipeline owns one AccessStage holding everything that
// does not depend on the index structure:
//
//  * the op-slot pool (BRAM) with its entrance queue and the hazard lock
//    table — a freed slot releases every lock it took;
//  * result emission and posted (fire-and-forget) DRAM writes;
//  * per-tick accounting: busy cycles, occupancy and the DRAM / hazard
//    stall flags the worker samples for its cycle breakdown;
//  * the kBatched collector (DESIGN.md section 17), used by the skiplist
//    only: batch contexts, probe admission with its key read, and the
//    full / batch-end / timeout flush;
//  * the terminal CC step, FinishAccess, which asks the partition's
//    cc::CcUnit about the matched tuple and parks a dirty conflict on the
//    dirty-waiter list for as long as the unit's wait budget allows.
//
// The pipeline keeps only the walk that belongs to its structure, with its
// per-op walk state in a vector indexed by the stage's slot numbers.
#ifndef BIONICDB_INDEX_ACCESS_STAGE_H_
#define BIONICDB_INDEX_ACCESS_STAGE_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "index/db_op.h"
#include "index/lock_table.h"
#include "sim/arena.h"
#include "sim/component.h"
#include "sim/memory.h"

namespace bionicdb::cc {
class CcUnit;
}  // namespace bionicdb::cc

namespace bionicdb::index {

class AccessStage {
 public:
  /// The kBatched collector's knobs (DESIGN.md section 17). Only the
  /// skiplist pipeline batches, so only its Config carries them; the hash
  /// pipeline's stage keeps the defaults and admits every op per-op.
  struct Batching {
    /// Traversal strategy. kBatched collects every non-insert op into
    /// level-wise batches; kPerOp is the paper pipeline. Inserts always
    /// take the per-op path (they mutate the structure under hazard
    /// locks).
    TraversalMode traversal = TraversalMode::kPerOp;
    /// kBatched: probes per batch; the collector flushes when full.
    uint32_t batch_size = 8;
    /// kBatched: a partial batch flushes this many cycles after its first
    /// probe arrived. Bounds tail latency and guarantees progress when the
    /// softcore holds its commit barrier behind a collected probe.
    uint64_t batch_timeout_cycles = 128;
  };

  /// No slot / no batch.
  static constexpr uint32_t kNone = UINT32_MAX;

  /// One batch context (kBatched). Four contexts overlap so a flushed
  /// batch walks the structure while the next one collects. The skiplist
  /// pipeline keeps its walk's half of each context alongside.
  struct Batch {
    /// kWalk covers every structure level; the pipeline tracks its own
    /// position inside the walk.
    enum class Phase : uint8_t { kIdle, kCollect, kKeys, kWalk };
    Phase phase = Phase::kIdle;
    std::vector<uint32_t> members;  // slots, admission order until sorted
    uint32_t outstanding = 0;       // DRAM reads in flight for this batch
    uint32_t live = 0;              // members still in batch custody
    uint64_t flush_deadline = 0;
  };

  /// Every terminal visibility check goes through `cc_unit`, the
  /// partition-local CC unit (engine-owned, required).
  AccessStage(sim::DramMemory* dram, uint32_t pool_size, cc::CcUnit* cc_unit,
              ResultQueue* results, const Batching& batching);
  /// A per-op stage (the hash pipeline's).
  AccessStage(sim::DramMemory* dram, uint32_t pool_size, cc::CcUnit* cc_unit,
              ResultQueue* results)
      : AccessStage(dram, pool_size, cc_unit, results, Batching()) {}
  // FastCounters (here and in the owning pipeline) point into counters_.
  AccessStage(const AccessStage&) = delete;
  AccessStage& operator=(const AccessStage&) = delete;

  // --- Slot pool ------------------------------------------------------

  /// Queues a kIndexOp envelope at the entrance. False when the slot pool
  /// is exhausted and the entrance queue is as deep as the pool.
  bool Accept(const comm::Envelope& env);
  bool Idle() const { return active_ == 0 && pending_in_.empty(); }
  /// Ops in flight or queued at the entrance (for the coprocessor-level
  /// in-flight cap).
  uint32_t queued_ops() const {
    return active_ + uint32_t(pending_in_.size());
  }
  const comm::IndexOp& op(uint32_t slot) const {
    return slots_[slot].req.index_op();
  }

  /// Admits the head of the entrance queue, one op per cycle: in kPerOp
  /// every op issues its key read into `op_keys`; in kBatched inserts do
  /// the same and probes join the collecting batch, their key reads
  /// landing in `probe_keys`. Returns the new slot (kNone when nothing was
  /// admitted), whose walk state the pipeline must reset.
  uint32_t Admit(uint64_t now, sim::MemResponseQueue* op_keys,
                 sim::MemResponseQueue* probe_keys = nullptr);

  /// Hazard locks (BRAM lock table). Lock takes `key` for `slot` when it
  /// is free and records it, so FreeSlot releases it.
  const LockTable& locks() const { return locks_; }
  void Lock(uint64_t key, uint32_t slot);
  bool HoldsLock(uint32_t slot) const { return !slots_[slot].locks.empty(); }

  // --- Results and posted writes ----------------------------------------

  /// Pushes the kIndexResult reply (header echoed from the request) and
  /// frees the slot.
  void Emit(uint32_t slot, isa::CpStatus status, uint64_t payload = 0,
            cc::WriteKind kind = cc::WriteKind::kNone,
            sim::Addr tuple_addr = sim::kNullAddr);
  /// Counts `corruption_detected` and emits kCorrupted.
  void EmitCorrupted(uint32_t slot);
  /// Posted writes (bandwidth accounting only) of `bursts` consecutive
  /// 64-byte bursts starting at `addr`.
  void PostWrite(uint64_t now, sim::Addr addr, uint32_t bursts = 1);
  /// DRAM bursts needed to move `bytes` (64-byte burst granularity).
  static uint32_t Bursts(uint64_t bytes) {
    return uint32_t((bytes + 63) / 64);
  }

  // --- Terminal CC step -----------------------------------------------

  /// Visibility/CC check for the tuple `slot` matched, then the result. A
  /// dirty conflict parks on the dirty-waiter list while the CC unit's
  /// wait budget lasts; a timeout falls back to the blind reject.
  void FinishAccess(uint64_t now, uint32_t slot, sim::Addr tuple_addr);
  /// Polls parked ops: expired ones reject, woken ones retry
  /// FinishAccess. Runs first in the pipeline's tick.
  void TickDirtyWaiters(uint64_t now);

  // --- kBatched collector -----------------------------------------------

  bool batched() const {
    return batching_.traversal == TraversalMode::kBatched;
  }
  uint32_t batch_count() const { return uint32_t(batches_.size()); }
  Batch& batch(uint32_t b) { return batches_[b]; }
  const Batch& batch(uint32_t b) const { return batches_[b]; }
  /// The batch `slot` was admitted into (kNone for per-op slots).
  uint32_t batch_of(uint32_t slot) const { return slots_[slot].batch; }
  void RetireBatch(uint32_t b);

  // --- Per-tick accounting ----------------------------------------------

  /// Starts a tick: clears the stall flags and returns false when idle (no
  /// op queued or in flight, so every stage scan would be a no-op);
  /// otherwise counts a busy cycle. Inline: both pipelines call it every
  /// cycle, and the idle early-out is the dense-regime win when a workload
  /// only exercises the other index structure.
  bool BeginTick() {
    tick_dram_stall_ = false;
    tick_hazard_stall_ = false;
    if (Idle()) return false;
    ++busy_cycles_;
    occupancy_sum_ += active_;
    return true;
  }
  void NoteDramStall() { tick_dram_stall_ = true; }
  void NoteHazardStall() { tick_hazard_stall_ = true; }
  /// Valid after the owning pipeline's Tick(now): some op failed to make
  /// progress this cycle because a DRAM issue was rejected / because it
  /// stalled behind a hazard lock or a dirty tuple.
  bool dram_stalled() const { return tick_dram_stall_; }
  bool hazard_stalled() const { return tick_hazard_stall_; }
  /// The stage's share of the pipeline's wake hint (sim/component.h):
  /// admissions, the collecting batch's flush deadline, flushed batches
  /// whose key reads all landed, and dirty-waiter polls and deadlines.
  /// Never earlier than now + 1.
  uint64_t NextWakeCycle(uint64_t now) const;
  /// Bulk busy/occupancy accounting for `count` skipped cycles. `hazard`
  /// reports the pipeline's own lock stalls; parked ops add theirs.
  void SkipCycles(uint64_t count, bool hazard);

  CounterSet& counters() { return counters_; }
  const CounterSet& counters() const { return counters_; }
  /// Busy cycles, pool size, mean occupancy, the stage and pipeline
  /// counters, and (kBatched only) the batch/* subtree.
  void CollectStats(StatsScope scope) const;

 private:
  /// Cycles between a parked op's header polls.
  static constexpr uint32_t kDirtyPollInterval = 16;

  struct Slot {
    comm::Envelope req;  // the kIndexOp envelope being served
    std::vector<uint64_t> locks;  // hazard locks to release on free
    uint32_t batch = kNone;
    bool in_use = false;
  };

  struct DirtyWaiter {
    uint32_t slot;
    sim::Addr tuple;
    uint64_t deadline;
    uint64_t next_poll;
  };

  uint32_t AllocSlot(const comm::Envelope& env);
  void FreeSlot(uint32_t slot);
  /// Per-op admission into `keys`.
  uint32_t AdmitOp(uint64_t now, sim::MemResponseQueue* keys);
  /// kBatched probe admission into the collecting batch.
  uint32_t AdmitProbe(uint64_t now, sim::MemResponseQueue* keys);
  /// Seals the collecting batch; its walk starts once its key reads land.
  void FlushCollect();

  sim::DramMemory* dram_;
  cc::CcUnit* cc_unit_;
  ResultQueue* results_;
  Batching batching_;

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint32_t active_ = 0;
  sim::RingQueue<comm::Envelope> pending_in_;
  LockTable locks_;
  std::vector<DirtyWaiter> dirty_waiters_;

  std::vector<Batch> batches_;
  uint32_t collect_ = kNone;  // batch currently collecting, if any
  // Batch stats, plain fields emitted only in kBatched mode so per-op
  // stats JSON stays byte-identical to pre-batch builds.
  uint64_t batches_flushed_ = 0;
  uint64_t flush_full_ = 0;
  uint64_t flush_timeout_ = 0;
  uint64_t flush_end_ = 0;
  Summary probes_per_batch_;

  CounterSet counters_;
  FastCounter fc_ops_admitted_{&counters_, "ops_admitted"};
  FastCounter fc_keyfetch_dram_stall_{&counters_, "keyfetch_dram_stall"};
  // Cycle accounting (plain fields: these are touched every tick, where a
  // string-keyed counter lookup would be measurable).
  uint64_t busy_cycles_ = 0;    // ticks with ops in flight or queued
  uint64_t occupancy_sum_ = 0;  // sum of active_ over busy ticks
  bool tick_dram_stall_ = false;
  bool tick_hazard_stall_ = false;
};

}  // namespace bionicdb::index

#endif  // BIONICDB_INDEX_ACCESS_STAGE_H_
