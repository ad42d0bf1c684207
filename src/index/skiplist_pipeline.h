// The hardware skiplist pipeline (paper section 4.4.2, Figures 5b/7).
//
// The skiplist's levels are partitioned into exclusive ranges, one per
// pipeline stage; stage 0 owns the top levels and the last stage owns level
// 0. An op traverses horizontally inside a stage's range (each new tower
// visited costs one DRAM access; drilling down on a cached tower is free)
// and is handed to the next stage when it leaves the range. Unlike the
// hash pipeline, a traversal stage works on ONE op at a time — horizontal
// pointer chasing keeps a stage occupied across multiple memory stalls, so
// index parallelism is bound by pipeline depth (this reproduces the Fig.
// 11a saturation at ~8 in-flight ops).
//
// Range binding: upper stages cover more levels than lower ones, since
// towers thin out exponentially toward the top (the paper's "balanced
// pipelining" guidance).
//
// INSERT records its insert path — predecessor AND successor per level
// below the new tower's height — in stage BRAM, and the bottom stage
// installs the tower from that recorded path. Hazard prevention locks each
// recorded (pred tower, level) in a lock table; any other in-flight INSERT
// reaching a locked position stalls, then re-reads the tower before
// proceeding. With prevention disabled, racing inserts overwrite each
// other's recorded paths and towers vanish from upper levels (Fig. 7a).
//
// SCAN is stall-free: it takes no locks, reaches the bottom level through
// the normal stages (which serialise it with respect to all earlier
// inserts), and is handed to a dedicated scanner module that walks the
// bottom list collecting committed visible tuples into the transaction
// block's result buffer. Scanners are the scan-throughput bottleneck; the
// number of scanner units is configurable (paper section 5.5 estimates
// "at least 5" to catch the software skiplist).
#ifndef BIONICDB_INDEX_SKIPLIST_PIPELINE_H_
#define BIONICDB_INDEX_SKIPLIST_PIPELINE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "db/database.h"
#include "db/skiplist_layout.h"
#include "index/access_stage.h"
#include "sim/component.h"
#include "sim/config.h"
#include "sim/memory.h"

namespace bionicdb::index {

class SkiplistPipeline {
 public:
  /// The traversal strategy and batch collector knobs
  /// (AccessStage::Batching) are the skiplist's own: under kBatched,
  /// probes walk in level-wise batches, one timed DRAM fetch per unique
  /// tower per batch (members walk shared fetches functionally). Inserts
  /// keep the staged per-op path in both modes — the recorded insert path
  /// and hazard locks do not batch.
  struct Config : AccessStage::Batching {
    uint32_t pool_size = 64;
    uint32_t n_stages = 8;
    uint32_t n_scanners = 1;
    bool hazard_prevention = true;
  };

  SkiplistPipeline(db::Database* db, db::PartitionId partition,
                   Config config, cc::CcUnit* cc_unit, ResultQueue* results);

  void Tick(uint64_t now);

  /// Event-driven scheduling hint (contract in sim/component.h). Any stage
  /// or scanner holding cached work, a queued response, a pending
  /// admission with a free slot, or a DRAM-reject retry wants the next
  /// cycle; stages stalled on hazard path locks and installs waiting only
  /// on write acks are quiescent until an ack lands on the owning
  /// worker's DRAM lane (which wakes the worker).
  uint64_t NextWakeCycle(uint64_t now) const;
  /// Bulk-applies busy/occupancy accounting and per-cycle lock-stall
  /// counters/flags for skipped cycles now+1 .. now+count.
  void SkipCycles(uint64_t now, uint64_t count);

  AccessStage& stage() { return stage_; }
  const AccessStage& stage() const { return stage_; }
  CounterSet& counters() { return stage_.counters(); }

  /// Dumps stage counters, slot occupancy and stall totals under `scope`.
  void CollectStats(StatsScope scope) const;

  /// Level range covered by stage `i` (exposed for tests).
  std::pair<int, int> StageRange(uint32_t i) const {
    return {stages_[i].lo, stages_[i].hi};
  }

  /// Scans ever assigned to scanner `i` (exposed for tests: the
  /// shortest-queue/round-robin dispatcher must not starve a scanner).
  uint64_t ScannerDispatched(uint32_t i) const {
    return scanners_[i].dispatched;
  }

 private:
  /// Number of 64-bit words in a full tower snapshot: 3 header words +
  /// every possible link slot.
  static constexpr uint32_t kTowerSnapshotWords =
      3 + db::kSkiplistMaxHeight;

  /// Per-slot walk state (indexed by the access stage's slot numbers).
  struct Op {
    std::vector<uint8_t> key;
    sim::Addr cur = sim::kNullAddr;
    int level = 0;
    uint8_t new_height = 0;  // INSERT
    sim::Addr preds[db::kSkiplistMaxHeight] = {};
    sim::Addr succs[db::kSkiplistMaxHeight] = {};
    std::vector<uint64_t> cur_links;  // snapshot of cur's link words
    // Install state (delayed link writes; locks held until all complete).
    sim::Addr new_tuple = sim::kNullAddr;
    uint32_t acks_left = 0;
    std::vector<std::pair<sim::Addr, uint64_t>> writes_left;
    // Scanner state.
    uint32_t collected = 0;

    /// Back to a fresh op (as Op{} would), keeping the vectors' storage so
    /// a warm pool slot never allocates again.
    void Reset() {
      key.clear();
      cur = sim::kNullAddr;
      level = 0;
      new_height = 0;
      std::fill(std::begin(preds), std::end(preds), sim::kNullAddr);
      std::fill(std::begin(succs), std::end(succs), sim::kNullAddr);
      cur_links.clear();
      new_tuple = sim::kNullAddr;
      acks_left = 0;
      writes_left.clear();
      collected = 0;
    }
  };

  enum class Wait : uint8_t {
    kNone,      // ready to advance with cached data
    kLoad,      // waiting for a (re)load of op.cur
    kNext,      // waiting for the candidate next tower
    kLockMove,  // stalled on a locked next tower (will re-read it)
    kLockDown,  // stalled on a locked pred (will re-read op.cur)
  };

  struct Stage {
    int hi = 0;
    int lo = 0;
    sim::RingQueue<uint32_t> in;
    std::optional<uint32_t> cur_op;
    Wait wait = Wait::kNone;
    sim::Addr pending_next = sim::kNullAddr;
    sim::MemResponseQueue resp;
  };

  struct Scanner {
    sim::RingQueue<uint32_t> in;
    std::optional<uint32_t> cur_op;
    bool waiting = false;
    sim::MemResponseQueue resp;
    uint64_t dispatched = 0;  // scans ever assigned to this scanner
  };

  /// Departed-member sentinel inside a batch's members (emitted mid-batch
  /// or handed to a scanner; the pool slot may already be reused).
  static constexpr uint32_t kNoMember = AccessStage::kNone;

  /// The skiplist half of a batch context: the level-wise walk with its
  /// per-batch tower cache.
  struct BatchWalk {
    /// Per-batch tower cache entry: queued/in-flight timed fetches and the
    /// functional outcome once the response lands.
    struct Tower {
      enum class St : uint8_t { kQueued, kInflight, kReady, kCorrupt };
      St st = St::kQueued;
      bool verify = true;  // heads have no integrity guard
    };
    int level = 0;  // current level of the level-wise walk
    std::vector<sim::Addr> fetch_queue;  // unissued tower fetches, in
                                         // member-sorted discovery order
    std::map<sim::Addr, Tower> towers;
    sim::MemResponseQueue fetch_resp;
  };

  db::SkiplistLayout* Layout(uint32_t slot) const;
  /// Copies a tower snapshot's link words into `links`, reusing its
  /// storage (one tower per visit, so no allocation per visit).
  static void LinksFromSnapshot(const sim::MemWords& words,
                                std::vector<uint64_t>* links);

  /// Caches one arrived per-op key and enters the top traversal stage.
  void TickKeyFetch();
  void TickStage(uint64_t now, uint32_t stage_idx);
  void TickScanner(uint64_t now, uint32_t scanner_idx);
  void TickInstalls(uint64_t now);

  // --- kBatched traversal (DESIGN.md section 17) -----------------------
  /// Drains batch responses and drives every non-idle batch's walk.
  void TickBatchExec(uint64_t now);
  /// The batch tower cache's state for `addr`, queueing its once-per-batch
  /// timed fetch on a miss; `verify` guards the integrity check (heads
  /// have no tuple guard).
  static BatchWalk::Tower::St CachedTower(BatchWalk* w, sim::Addr addr,
                                          bool verify);
  /// Advances every live member at the batch's current level using the
  /// tower cache, queues missing fetches, and applies the per-level
  /// barrier (descend / terminal round / retire). Returns true while
  /// repeated invocation this tick can still make progress.
  bool WalkBatch(uint64_t now, uint32_t batch);

  /// Drives the op inside a stage until it needs DRAM, stalls on a lock, or
  /// leaves the stage.
  void Advance(uint64_t now, Stage* stage);
  /// Handles the arrival of the candidate next tower in `resp_data`.
  void NextArrived(uint64_t now, Stage* stage,
                   const sim::MemWords& words);
  /// Hands the op to the next stage / terminal action when level < lo.
  void LeaveStage(uint64_t now, Stage* stage);
  /// Bottom-of-list terminal work: point-op visibility, insert install, or
  /// scanner hand-off.
  void Terminal(uint64_t now, uint32_t slot);

  int CompareProbe(const Op& op, sim::Addr tower) const;

  db::Database* db_;
  sim::DramMemory* dram_;
  db::PartitionId partition_;
  Config config_;
  AccessStage stage_;
  std::vector<Op> pool_;
  sim::MemResponseQueue keyfetch_resp_;

  std::vector<Stage> stages_;
  std::vector<Scanner> scanners_;
  uint32_t scanner_rr_ = 0;

  // Batched-traversal state (empty in kPerOp mode).
  std::vector<BatchWalk> walks_;  // one per access-stage batch context
  sim::MemResponseQueue batch_key_resp_;

  // Inserts whose link writes are in flight (locks still held).
  sim::MemResponseQueue install_ack_;
  std::vector<uint32_t> installing_;
};

}  // namespace bionicdb::index

#endif  // BIONICDB_INDEX_SKIPLIST_PIPELINE_H_
