// A partition worker: softcore + index coprocessor + channel endpoints
// (paper Fig. 2).
//
// Per tick the worker runs its background unit (inbound request envelopes
// -> local coprocessor for kIndexOp, the raw-memory service unit for kMemOp
// under partitioned DRAM), routes completed coprocessor results, applies
// inbound response envelopes, and advances the coprocessor and softcore.
// All of that routing funnels through one surface: the worker IS the
// comm::IssuePort for every endpoint it hosts — a destination equal to its
// own id applies the envelope locally by message class, anything else goes
// on the fabric (requests stamped with the send cycle for RTT).
#ifndef BIONICDB_CORE_WORKER_H_
#define BIONICDB_CORE_WORKER_H_

#include <map>
#include <memory>

#include "comm/channels.h"
#include "core/softcore.h"
#include "db/database.h"
#include "index/coprocessor.h"
#include "sim/component.h"

namespace bionicdb::core {

class PartitionWorker : public sim::Component, public comm::IssuePort {
 public:
  PartitionWorker(db::Database* db, db::WorkerId id,
                  const sim::TimingConfig& timing,
                  Softcore::Config softcore_config,
                  index::IndexCoprocessor::Config coproc_config,
                  comm::CommFabric* fabric);

  /// Queues a transaction block on this worker's input queue.
  void SubmitBlock(sim::Addr block) { softcore_->SubmitBlock(block); }

  void Tick(uint64_t cycle) override;
  bool Idle() const override;

  /// Event-driven scheduling hint (contract in sim/component.h): frozen
  /// spans wake at thaw; pending fabric packets or unrouted coprocessor
  /// results want the next cycle; otherwise the earliest of the
  /// coprocessor's and softcore's own wake points, where a softcore
  /// dispatch spinning against a full coprocessor counts as quiescent.
  uint64_t NextWakeCycle(uint64_t now) const override;
  /// Bulk-applies the cycle-breakdown accounting for a skipped span (one
  /// bucket per cycle, identical to per-cycle classification), the cap
  /// rejects of a skipped dispatch spin, and forwards the skip to the
  /// coprocessor and softcore.
  void SkipCycles(uint64_t now, uint64_t count) override;

  // comm::IssuePort: the single dispatch surface. `dst == id()` applies
  // the envelope locally (kIndexOp -> coprocessor submit, kMemOp ->
  // raw-memory service, kIndexResult -> CP writeback, kMemResult ->
  // remote-LOAD resume); any other destination is a fabric send. Returns
  // false only for a local request rejected this cycle (in-flight cap /
  // DRAM backpressure).
  bool Issue(db::WorkerId dst, const comm::Envelope& env) override;

  db::WorkerId id() const { return id_; }
  Softcore& softcore() { return *softcore_; }
  index::IndexCoprocessor& coprocessor() { return *coproc_; }
  const Softcore::BatchStats& stats() const { return softcore_->stats(); }

  /// Fault injection: the worker executes nothing until `cycle` — inbound
  /// packets queue up in the fabric, remote peers stall on its responses.
  /// Models a hung or glitched partition core; extending an active freeze
  /// is allowed (the later deadline wins).
  void FreezeUntil(uint64_t cycle) {
    frozen_until_ = std::max(frozen_until_, cycle);
  }
  bool frozen(uint64_t cycle) const { return cycle < frozen_until_; }

  /// Per-cycle stall attribution: every worker tick is charged to exactly
  /// one bucket, so busy + dram_stall + hazard_block + backpressure + idle
  /// == total by construction. Sampled post-tick: the softcore's wait kind
  /// decides first; a waiting/idle softcore defers to the coprocessor's
  /// per-tick stall flags.
  struct CycleBreakdown {
    uint64_t total = 0;
    uint64_t busy = 0;
    uint64_t dram_stall = 0;
    uint64_t hazard_block = 0;
    uint64_t backpressure = 0;
    uint64_t idle = 0;
    /// Cycles lost to an injected worker freeze (fault injection only;
    /// reported only when nonzero so unfaulted runs keep the 5-bucket sum).
    uint64_t frozen = 0;
    /// Cycles blocked on the inter-chip tier: 2PC vote/decision round
    /// trips and full send-window backpressure (multi-chip runs only;
    /// reported only when nonzero, like `frozen`).
    uint64_t interchip_stall = 0;
  };
  const CycleBreakdown& cycles() const { return cycles_; }

  /// Round-trip latency (cycles) of remote DB instructions dispatched by
  /// this worker, measured wire-out to response-drain.
  const Summary& remote_rtt_cycles() const { return remote_rtt_; }

  /// Dumps the cycle breakdown, RTT summary, softcore and coprocessor
  /// statistics under `scope`.
  void CollectStats(StatsScope scope) const;

 private:
  /// True when the softcore's next tick retries a local dispatch that the
  /// coprocessor, at its in-flight cap, must reject: a quiescent spin.
  bool DispatchSpinsOnFullCoproc(uint64_t now) const;

  /// Executes one inbound kMemOp envelope (remote LOAD/STORE/commit
  /// publication against this partition's arena) on this worker's DRAM
  /// lane. Returns false when a LOAD hit DRAM backpressure — the caller
  /// leaves the envelope queued and retries next tick, preserving channel
  /// FIFO.
  bool HandleMemOp(uint64_t cycle, const comm::Envelope& env);

  /// 2PC participant: applies (or replays the recorded decision for) a
  /// coordinator's CommitReq exactly once, then acks — every duplicate
  /// delivery re-acks so a lost first ack cannot wedge the coordinator.
  bool HandleCommitReq(uint64_t cycle, const comm::Envelope& env);

  /// Chip index of a worker under the 2PC grouping (0 when off).
  uint32_t ChipOfWorker(db::WorkerId w) const {
    return two_pc_.workers_per_chip > 0 ? w / two_pc_.workers_per_chip : 0;
  }

  db::WorkerId id_;
  comm::CommFabric* fabric_;
  sim::DramMemory* dram_;
  uint64_t now_ = 0;
  std::unique_ptr<index::IndexCoprocessor> coproc_;
  std::unique_ptr<Softcore> softcore_;
  CycleBreakdown cycles_;
  Summary remote_rtt_;
  uint64_t frozen_until_ = 0;
  // Remote raw-memory LOADs in service on the local lane: completions land
  // in mem_inbox_ and are answered over the response channel.
  sim::MemResponseQueue mem_inbox_;
  std::map<uint64_t, comm::Envelope> mem_pending_;
  uint64_t mem_cookie_next_ = 1;

  // --- Multi-chip state (Softcore::Config::TwoPc; inert when off) -------
  Softcore::Config::TwoPc two_pc_;
  /// Outstanding cross-chip requests (kIndexOp / kPrepareReq / kCommitReq)
  /// this worker has on the wire; a full window rejects further Issues.
  /// Decremented when the matching response returns from a foreign chip.
  uint32_t interchip_inflight_ = 0;
  /// Participant decision record: txn ts -> decision. Exactly-once apply
  /// under duplicated CommitReqs; the map never forgets, so replays only
  /// re-ack.
  std::map<db::Timestamp, bool> twopc_decisions_;
  uint64_t twopc_participant_applies_ = 0;
  uint64_t twopc_dup_decisions_ = 0;
};

}  // namespace bionicdb::core

#endif  // BIONICDB_CORE_WORKER_H_
