// Per-partition pluggable concurrency-control unit for the simulated tier.
//
// One CcUnit instance models the CC metadata block (BRAM graph store /
// version-chain directory) attached to a partition's softcore + index
// coprocessor. The engine builds one for every partition, whatever the
// mode: the index pipelines' shared access stage calls CheckAccess at its
// terminal step and parks dirty conflicts for the unit's wait budget; the
// softcore calls the OnTxn* hooks at transaction begin / commit-validate /
// finish. All state is partition-local and only touched from the owning
// worker's tick path (same rule as the pipelines themselves).
//
// Mode semantics:
//  * kTimestamp — the paper's single-version T/O: CheckAccess falls
//    through to cc::CheckVisibility, the hooks are no-ops, and
//    CollectStats emits nothing, so the default configuration stays
//    bit-identical and allocation-free.
//  * kSgt — online serialization-graph testing. Every access records the
//    dependency edges it induces between in-flight transactions (wr, ww,
//    rw), each addition guarded by an incremental cycle check over the
//    adjacency sets; an access is refused as `sgt/cycle_aborts` only when
//    the edge would close a real cycle. Dirty marks held by a live LOCAL
//    writer are no barrier to data accesses: a dirty flag only RESERVES
//    the tuple — all Stores and Loads of tuple data execute in commit
//    handlers, which the softcore runs in admission (= timestamp) order —
//    so reads and writes past the mark are admitted with ts-oriented
//    edges (commit-ordered admission). Only structural operations
//    (kRemove / tombstoned tuples), which flip state at access time,
//    still reject as `sgt/busy_rejects`; waiting is never an option there
//    because the softcore's batch barrier holds every commit handler —
//    where dirty marks clear — until all logic phases finish. Dirty marks
//    NOT owned by a live local transaction (remote writers, posted header
//    clears still in flight) park on the access stage's dirty-waiter list,
//    for either index, which re-checks WaitFutile() at each poll. The graph
//    is pruned wholesale at quiescent points (no live transaction).
//  * kMvcc — timestamp-ordered multi-version reads (MVTO). Writers snapshot
//    the committed pre-image into a db::version chain before marking the
//    tuple dirty; a reader whose timestamp predates the tuple's write_ts is
//    served from the chain (payload_override) instead of aborting. Chain
//    nodes are reclaimed through a low-watermark GC (min live timestamp; at
//    a quiescent point the watermark passes every chained version and the
//    whole directory drains into a size-keyed freelist).
//
// Multisite note: remote operations arrive with a foreign transaction's
// timestamp that was never announced via OnTxnBegin on this partition; such
// accesses deterministically fall back to plain T/O (`foreign_fallback`).
// SGT / MVCC bookkeeping is partition-local by design.
#ifndef BIONICDB_CC_CC_UNIT_H_
#define BIONICDB_CC_CC_UNIT_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "cc/cc_mode.h"
#include "cc/visibility.h"
#include "common/stats.h"
#include "db/tuple.h"
#include "db/types.h"
#include "sim/memory.h"

namespace bionicdb::cc {

class CcUnit {
 public:
  /// Park budget for dirty conflicts when the configured wait is 0 but the
  /// CC mode relies on waiting (SGT parks instead of blindly aborting;
  /// timeouts only break pathological stalls).
  static constexpr uint32_t kDefaultDirtyWaitCycles = 1u << 16;

  /// Outcome of a CC-mediated access. `vis` carries the same contract as
  /// CheckVisibility; the extra fields cover the multi-version path.
  struct AccessResult {
    VisibilityResult vis;
    /// MVCC old-version read: payload address to return instead of the
    /// tuple's in-place payload. kNullAddr when the in-place image applies.
    sim::Addr payload_override = sim::kNullAddr;
    /// Extra DRAM bursts (version-chain walks, snapshot copies) the calling
    /// pipeline must charge as posted traffic.
    uint32_t charge_bursts = 0;
  };

  /// `dirty_wait_cycles` is EngineOptions::dirty_wait_cycles: how long an
  /// access refused on a dirty conflict may park before the blind reject
  /// (0 = reject at once, the paper's behaviour; SGT then defaults to
  /// kDefaultDirtyWaitCycles).
  CcUnit(sim::DramMemory* dram, CcMode mode, uint32_t dirty_wait_cycles = 0)
      : dram_(dram),
        mode_(mode),
        dirty_wait_cycles_(dirty_wait_cycles == 0 && mode == CcMode::kSgt
                               ? kDefaultDirtyWaitCycles
                               : dirty_wait_cycles) {}

  CcMode mode() const { return mode_; }
  /// Park budget, in cycles, for an access refused with dirty_conflict.
  uint32_t dirty_wait_cycles() const { return dirty_wait_cycles_; }

  /// CC check for a matched tuple at timestamp `ts`. Called from the index
  /// access stage's terminal step (tick time; may allocate version nodes
  /// from the current partition arena in kMvcc).
  AccessResult CheckAccess(db::TupleAccessor* tuple, db::Timestamp ts,
                           AccessMode access);

  /// True when a transaction parked at `ts` on `tuple`'s dirty mark can no
  /// longer be unblocked by waiting: the mark changed hands while parked
  /// and is now owned by a live LOCAL writer, whose commit — the only
  /// thing that clears it — sits behind the batch barrier this parked
  /// logic-phase access itself holds open. The access stage polls this and
  /// retries such parks at once instead of burning the full park
  /// deadline. Always false outside kSgt (T/O never parks on the unit's
  /// say-so; MVCC serves old versions instead of waiting).
  bool WaitFutile(sim::Addr tuple, db::Timestamp ts) const;

  /// Transaction lifecycle hooks, called by the owning softcore.
  void OnTxnBegin(db::Timestamp ts);
  /// Extra commit-stage cycles charged for CC validation work (SGT walks
  /// its adjacency set at commit; T/O and MVCC validate inline).
  uint32_t OnCommitValidate(db::Timestamp ts);
  void OnTxnFinish(db::Timestamp ts, bool committed);

  /// Scheme counters under `scope`; nothing under kTimestamp.
  void CollectStats(StatsScope scope) const;

  /// Raw scheme counters (sgt/... or mvcc/... keys) for harnesses that
  /// aggregate across partitions without a registry round-trip.
  const CounterSet& counters() const { return counters_; }

 private:
  static constexpr db::Timestamp kNoTxn = ~db::Timestamp{0};

  // --- SGT ---
  struct SgtNode {
    db::Timestamp ts = 0;
    bool finished = false;
    bool aborted = false;
    std::vector<uint32_t> out;        // edges: this txn serializes before
    std::vector<sim::Addr> writes;    // tuples this txn marked dirty
    uint64_t mark = 0;                // DFS visit epoch
  };
  struct SgtTupleMeta {
    db::Timestamp active_writer = kNoTxn;  // live dirty writer, if any
    db::Timestamp last_writer = kNoTxn;    // latest committed graph writer
    std::vector<db::Timestamp> readers;    // readers since last prune
  };

  AccessResult SgtAccess(db::TupleAccessor* tuple, db::Timestamp ts,
                         AccessMode access);
  uint32_t SgtNodeIndex(db::Timestamp ts) const;  // UINT32_MAX when absent
  bool PathExists(uint32_t from, uint32_t to);
  void SgtPrune();

  // --- MVCC ---
  struct MvccChain {
    sim::Addr head = sim::kNullAddr;
    uint32_t length = 0;
    uint64_t footprint = 0;  // per-node byte size (all nodes of one tuple)
  };
  struct MvccSnapshot {
    sim::Addr tuple = sim::kNullAddr;
    sim::Addr node = sim::kNullAddr;
  };
  struct MvccTxn {
    std::vector<MvccSnapshot> snapshots;
  };

  AccessResult MvccAccess(db::TupleAccessor* tuple, db::Timestamp ts,
                          AccessMode access);
  sim::Addr PopFreeVersion(uint64_t footprint);
  void MvccGc(db::Timestamp watermark);

  sim::DramMemory* dram_;
  CcMode mode_;
  uint32_t dirty_wait_cycles_;
  CounterSet counters_;

  // SGT state.
  std::vector<SgtNode> nodes_;
  std::unordered_map<db::Timestamp, uint32_t> node_ix_;
  std::unordered_map<uint64_t, SgtTupleMeta> tuple_meta_;
  std::vector<uint32_t> dfs_stack_;
  uint64_t visit_epoch_ = 0;
  uint32_t sgt_active_ = 0;

  // MVCC state. Ordered maps: GC iterates them, and iteration order feeds
  // the freelist (hence future allocation addresses and DRAM channel
  // timing), which must be deterministic across execution modes.
  std::map<db::Timestamp, MvccTxn> mvcc_active_;
  std::map<uint64_t, MvccChain> chains_;
  std::map<uint64_t, std::vector<sim::Addr>> free_versions_;
  std::unordered_map<uint64_t, db::Timestamp> mvcc_writer_;
  double last_watermark_ = 0;
};

}  // namespace bionicdb::cc

#endif  // BIONICDB_CC_CC_UNIT_H_
