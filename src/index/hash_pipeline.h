// The hardware hash-index pipeline (paper section 4.4.1, Figures 5a/6).
//
// Point operations are decomposed into pipeline stages, each a finite-state
// machine woken by data arriving from DRAM:
//
//   KeyFetch --> Hash --+--> Install                     (INSERT)
//                       +--> HeadFetch -> KeyComp -> Traverse*  (others)
//
//  * KeyFetch  (the access stage's admission) reads the search key from
//              the transaction block.
//  * Hash      computes the Sdbm hash, checks the hazard lock table, and
//              issues the bucket-head read (destination: Install for
//              INSERTs, HeadFetch otherwise).
//  * Install   prepends the new tuple to the chain and publishes the new
//              bucket head.
//  * HeadFetch returns NotFound on empty buckets, else reads the first
//              chain node.
//  * KeyComp   compares the key; on a match it runs the visibility check,
//              otherwise hands the op to a Traverse unit.
//  * Traverse  follows the conflict chain; decoupled so a long chain never
//              blocks ops that terminate at KeyComp. Multiple units can be
//              populated for chain-heavy workloads.
//
// Hazard prevention: in-flight INSERTs that passed the Hash stage hold a
// lock on their bucket in a BRAM lock table; any op hashing to a locked
// bucket stalls at Hash until the insert's terminal stage releases it.
// Disabling `hazard_prevention` (an ablation/testing knob) reproduces the
// paper's insert-after-insert and search-after-insert hazards.
//
// Every op in flight occupies one slot of the shared access stage
// (index/access_stage.h), which also runs the terminal visibility/CC step;
// the coprocessor enforces the experiment-level in-flight cap on top of
// the slot pool. The hash pipeline always walks per-op: a bucket chain has
// no upper level that a sorted batch could share (DESIGN.md section 17).
#ifndef BIONICDB_INDEX_HASH_PIPELINE_H_
#define BIONICDB_INDEX_HASH_PIPELINE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "db/database.h"
#include "index/access_stage.h"
#include "sim/component.h"
#include "sim/config.h"
#include "sim/memory.h"

namespace bionicdb::index {

class HashPipeline {
 public:
  struct Config {
    /// Op-state slots (BRAM). This is the pipeline's internal capacity:
    /// the paper observes saturation between 12 and 16 in-flight requests
    /// ("3 or 4 in-flight requests between pipeline stages"), so the
    /// default bounds the design the same way; the coprocessor-level
    /// in-flight cap sweeps below it.
    uint32_t pool_size = 16;
    uint32_t n_traverse_units = 1;
    bool hazard_prevention = true;
  };

  HashPipeline(db::Database* db, db::PartitionId partition, Config config,
               cc::CcUnit* cc_unit, ResultQueue* results);

  void Tick(uint64_t now);

  /// Event-driven scheduling hint (contract in sim/component.h): the next
  /// cycle at which a Tick would do more than the per-cycle accounting
  /// SkipCycles reproduces. Mirrors each stage's control flow: any stage
  /// with a queued response/ack or a DRAM-reject retry (retries bump DRAM
  /// reject counters) wants the very next cycle; a Hash stage stalled
  /// behind a hazard lock is quiescent; the access stage adds admissions
  /// and parked ops.
  uint64_t NextWakeCycle(uint64_t now) const;
  /// Bulk-applies the busy/occupancy accounting and per-cycle stall
  /// counters/flags for skipped cycles now+1 .. now+count.
  void SkipCycles(uint64_t now, uint64_t count);

  AccessStage& stage() { return stage_; }
  const AccessStage& stage() const { return stage_; }
  CounterSet& counters() { return stage_.counters(); }

  /// Dumps stage counters, slot occupancy and stall totals under `scope`.
  void CollectStats(StatsScope scope) const { stage_.CollectStats(scope); }

 private:
  /// Per-slot walk state (indexed by the access stage's slot numbers).
  struct Op {
    uint64_t hash = 0;
    sim::Addr bucket_slot = sim::kNullAddr;
    sim::Addr cur = sim::kNullAddr;        // current chain node
    sim::Addr new_tuple = sim::kNullAddr;  // INSERT: tuple being installed
  };

  void TickHash(uint64_t now);
  void TickInstall(uint64_t now);
  void TickHeadFetch(uint64_t now);
  void TickKeyComp(uint64_t now);
  void TickTraverse(uint64_t now, uint32_t unit);

  /// Functional key read + Sdbm hash: fills op.hash and op.bucket_slot.
  void HashKey(uint32_t slot);
  uint64_t BucketIndex(uint32_t slot) const;
  /// Hash-stage second half: hazard check + bucket read issue. Returns
  /// false when the op must stall at the Hash stage.
  bool TryPassHashStage(uint64_t now, uint32_t slot);
  /// Compares op's key against op.cur; finishes on match or end-of-chain.
  /// Returns true when the op terminated, false when it must follow the
  /// chain (op.cur advanced to the next node).
  bool CompareOrAdvance(uint64_t now, uint32_t slot);
  /// Hands an op whose first node mismatched to the least-loaded unit.
  void EnqueueTraverse(uint32_t slot);

  /// True when the Hash stage's head-of-line op is stalled on a hazard
  /// lock held by another slot (as opposed to a rejected DRAM issue).
  bool HashBlockedOnLock() const;

  db::Database* db_;
  sim::DramMemory* dram_;
  db::PartitionId partition_;
  Config config_;
  AccessStage stage_;
  std::vector<Op> pool_;

  /// A Traverse unit is an FSM that owns ONE op at a time while it chases
  /// the conflict chain (multiple memory stalls per op) — this is why the
  /// paper suggests populating several "for balanced dataflow" on
  /// chain-heavy workloads.
  struct TraverseUnit {
    sim::RingQueue<uint32_t> in;
    std::optional<uint32_t> cur_op;
    bool waiting = false;  // a chain read is in flight
    sim::MemResponseQueue resp;
  };

  sim::MemResponseQueue hash_resp_;
  sim::MemResponseQueue install_resp_;
  sim::MemResponseQueue install_ack_;  // bucket-head write completions
  sim::MemResponseQueue headfetch_resp_;
  sim::MemResponseQueue keycomp_resp_;
  std::vector<TraverseUnit> traverse_units_;

  // Head-of-line blocked item per stage (pipeline stall).
  std::optional<uint32_t> hash_blocked_;
  std::optional<uint32_t> install_blocked_;
  std::optional<uint32_t> headfetch_blocked_;

  // Lazy slot handles for counters on the per-op/per-cycle hot path
  // (common/stats.h FastCounter): bound on first increment, so JSON
  // presence matches the plain string Adds they replace.
  FastCounter fc_hash_stage_{&stage_.counters(), "hash_stage_ops"};
  FastCounter fc_headfetch_stage_{&stage_.counters(), "headfetch_stage_ops"};
  FastCounter fc_keycomp_stage_{&stage_.counters(), "keycomp_stage_ops"};
  FastCounter fc_traverse_stage_{&stage_.counters(), "traverse_stage_ops"};
  FastCounter fc_install_stage_{&stage_.counters(), "install_stage_ops"};
  FastCounter fc_hash_lock_stall_{&stage_.counters(),
                                  "hash_lock_stall_cycles"};
  FastCounter fc_hash_dram_stall_{&stage_.counters(), "hash_dram_stall"};
  FastCounter fc_headfetch_dram_stall_{&stage_.counters(),
                                       "headfetch_dram_stall"};
  FastCounter fc_traverse_dram_stall_{&stage_.counters(),
                                      "traverse_dram_stall"};
};

}  // namespace bionicdb::index

#endif  // BIONICDB_INDEX_HASH_PIPELINE_H_
