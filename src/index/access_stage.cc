#include "index/access_stage.h"

#include <algorithm>
#include <cassert>

#include "cc/cc_unit.h"

namespace bionicdb::index {

AccessStage::AccessStage(sim::DramMemory* dram, uint32_t pool_size,
                         cc::CcUnit* cc_unit, ResultQueue* results,
                         const Batching& batching)
    : dram_(dram),
      cc_unit_(cc_unit),
      results_(results),
      batching_(batching),
      slots_(pool_size) {
  free_slots_.reserve(pool_size);
  for (uint32_t i = 0; i < pool_size; ++i) {
    free_slots_.push_back(pool_size - 1 - i);
  }
  if (batched()) {
    // A batch can never fill past the slot pool, and at least one probe
    // per batch keeps the collector well-defined.
    batching_.batch_size =
        std::max(1u, std::min(batching_.batch_size, pool_size));
    // Enough batch contexts for the collect/keys/walk phases to overlap
    // (inter-op pipelining); the slot pool is the real capacity.
    batches_.resize(4);
    for (Batch& b : batches_) b.members.reserve(batching_.batch_size);
  }
}

bool AccessStage::Accept(const comm::Envelope& env) {
  if (free_slots_.empty() && pending_in_.size() >= slots_.size()) {
    return false;
  }
  pending_in_.push_back(env);
  return true;
}

uint32_t AccessStage::AllocSlot(const comm::Envelope& env) {
  assert(!free_slots_.empty());
  uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  Slot& s = slots_[slot];
  s.req = env;
  s.batch = kNone;
  s.in_use = true;
  ++active_;
  return slot;
}

void AccessStage::FreeSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  assert(s.in_use);
  for (uint64_t key : s.locks) locks_.Release(key, slot);
  s.locks.clear();
  s.in_use = false;
  free_slots_.push_back(slot);
  --active_;
}

void AccessStage::Lock(uint64_t key, uint32_t slot) {
  if (locks_.TryAcquire(key, slot)) slots_[slot].locks.push_back(key);
}

uint32_t AccessStage::Admit(uint64_t now, sim::MemResponseQueue* op_keys,
                            sim::MemResponseQueue* probe_keys) {
  uint32_t slot = kNone;
  if (!pending_in_.empty() && !free_slots_.empty()) {
    // Inserts keep the per-op path in kBatched too: they mutate the
    // structure under hazard locks, and reordering installs inside a batch
    // would change which insert wins.
    const bool probe = batched() && pending_in_.front().index_op().op !=
                                        isa::Opcode::kInsert;
    slot = probe ? AdmitProbe(now, probe_keys) : AdmitOp(now, op_keys);
  }
  // Flush timeout: no probe waits in the collector past its deadline.
  if (collect_ != kNone &&
      batches_[collect_].phase == Batch::Phase::kCollect &&
      now >= batches_[collect_].flush_deadline) {
    ++flush_timeout_;
    FlushCollect();
  }
  return slot;
}

uint32_t AccessStage::AdmitOp(uint64_t now, sim::MemResponseQueue* keys) {
  // The key read targets the initiator's transaction block. Allocating
  // first and freeing on a DRAM reject leaves no side effects.
  uint32_t slot = AllocSlot(pending_in_.front());
  if (!dram_->Issue(now, op(slot).key_addr, false, keys, slot)) {
    FreeSlot(slot);
    fc_keyfetch_dram_stall_.Add();
    tick_dram_stall_ = true;
    return kNone;
  }
  pending_in_.pop_front();
  fc_ops_admitted_.Add();
  return slot;
}

uint32_t AccessStage::AdmitProbe(uint64_t now, sim::MemResponseQueue* keys) {
  if (collect_ == kNone) {
    for (uint32_t i = 0; i < batch_count(); ++i) {
      if (batches_[i].phase == Batch::Phase::kIdle) {
        collect_ = i;
        break;
      }
    }
    // All contexts busy: admission stalls until one retires.
    if (collect_ == kNone) return kNone;
  }
  Batch& b = batches_[collect_];
  // The key read overlaps collection.
  uint32_t slot = AllocSlot(pending_in_.front());
  if (!dram_->Issue(now, op(slot).key_addr, false, keys, slot)) {
    FreeSlot(slot);
    fc_keyfetch_dram_stall_.Add();
    tick_dram_stall_ = true;
    return kNone;
  }
  pending_in_.pop_front();
  fc_ops_admitted_.Add();
  slots_[slot].batch = collect_;
  if (b.members.empty()) {
    b.phase = Batch::Phase::kCollect;
    b.flush_deadline = now + batching_.batch_timeout_cycles;
  }
  b.members.push_back(slot);
  ++b.outstanding;
  ++b.live;
  if (b.members.size() >= batching_.batch_size) {
    ++flush_full_;
    FlushCollect();
  } else if (op(slot).batch_flags & isa::kBatchFlagEnd) {
    ++flush_end_;
    FlushCollect();
  }
  return slot;
}

void AccessStage::FlushCollect() {
  Batch& b = batches_[collect_];
  b.phase = Batch::Phase::kKeys;
  ++batches_flushed_;
  probes_per_batch_.Add(double(b.members.size()));
  collect_ = kNone;
}

void AccessStage::RetireBatch(uint32_t b) {
  Batch& batch = batches_[b];
  batch.phase = Batch::Phase::kIdle;
  batch.members.clear();
  batch.outstanding = 0;
  batch.live = 0;
}

void AccessStage::Emit(uint32_t slot, isa::CpStatus status, uint64_t payload,
                       cc::WriteKind kind, sim::Addr tuple_addr) {
  comm::IndexResult r;
  r.status = status;
  r.payload = payload;
  r.write_kind = status == isa::CpStatus::kOk ? kind : cc::WriteKind::kNone;
  r.tuple_addr = tuple_addr;
  results_->push_back(comm::Envelope::Reply(slots_[slot].req, r));
  FreeSlot(slot);
}

void AccessStage::EmitCorrupted(uint32_t slot) {
  counters_.Add("corruption_detected");
  Emit(slot, isa::CpStatus::kCorrupted);
}

void AccessStage::PostWrite(uint64_t now, sim::Addr addr, uint32_t bursts) {
  // Posted (fire-and-forget) writes: they occupy channel bandwidth; if the
  // channel queue is saturated the write is accounted as buffered in the
  // memory controller's posting FIFO rather than re-tried.
  for (uint32_t i = 0; i < bursts; ++i) {
    if (!dram_->Issue(now, addr + 64ull * i, /*is_write=*/true, nullptr, 0)) {
      counters_.Add("posted_write_overflow");
    }
  }
}

void AccessStage::FinishAccess(uint64_t now, uint32_t slot,
                               sim::Addr tuple_addr) {
  if (!dram_->VerifyTupleGuard(tuple_addr)) {
    EmitCorrupted(slot);
    return;
  }
  db::TupleAccessor t(dram_, tuple_addr);
  cc::AccessMode mode = cc::AccessMode::kRead;
  cc::WriteKind kind = cc::WriteKind::kNone;
  switch (op(slot).op) {
    case isa::Opcode::kUpdate:
      mode = cc::AccessMode::kUpdate;
      kind = cc::WriteKind::kUpdate;
      break;
    case isa::Opcode::kRemove:
      mode = cc::AccessMode::kRemove;
      kind = cc::WriteKind::kRemove;
      break;
    default:
      break;
  }
  const cc::CcUnit::AccessResult ar =
      cc_unit_->CheckAccess(&t, op(slot).ts, mode);
  // Version-chain walks / snapshot copies consume DRAM bandwidth on this
  // partition's lane; charge them as posted bursts.
  PostWrite(now, tuple_addr, ar.charge_bursts);
  if (ar.vis.header_dirtied) PostWrite(now, tuple_addr);
  if (ar.vis.status != isa::CpStatus::kOk) {
    if (ar.vis.dirty_conflict && cc_unit_->dirty_wait_cycles() > 0) {
      // Wait-on-dirty: park until the uncommitted writer publishes or
      // rolls back; a timeout falls back to the blind reject.
      counters_.Add("dirty_waits");
      dirty_waiters_.push_back(
          DirtyWaiter{slot, tuple_addr, now + cc_unit_->dirty_wait_cycles(),
                      now + kDirtyPollInterval});
      return;
    }
    Emit(slot, ar.vis.status);
    return;
  }
  const uint64_t payload = ar.payload_override != sim::kNullAddr
                               ? ar.payload_override
                               : t.payload_addr();
  Emit(slot, isa::CpStatus::kOk, payload, kind, tuple_addr);
}

void AccessStage::TickDirtyWaiters(uint64_t now) {
  if (dirty_waiters_.empty()) return;
  // Collect ready entries first: FinishAccess may re-park into the list.
  std::vector<DirtyWaiter> retry;
  std::vector<DirtyWaiter> expired;
  for (size_t i = 0; i < dirty_waiters_.size();) {
    DirtyWaiter& w = dirty_waiters_[i];
    if (now >= w.deadline) {
      expired.push_back(w);
      w = dirty_waiters_.back();
      dirty_waiters_.pop_back();
      continue;
    }
    if (now >= w.next_poll) {
      // One polling read of the tuple header (bandwidth accounting).
      dram_->Issue(now, w.tuple, false, nullptr, 0);
      w.next_poll = now + kDirtyPollInterval;
      bool wake = !db::TupleAccessor(dram_, w.tuple).dirty();
      // The mark's owner can also change while parked (see
      // cc::CcUnit::WaitFutile): retry so CheckAccess can commit-order the
      // access against the new owner instead of waiting out the deadline.
      if (!wake && cc_unit_->WaitFutile(w.tuple, op(w.slot).ts)) {
        counters_.Add("dirty_wait_owner_wakeups");
        wake = true;
      }
      if (wake) {
        retry.push_back(w);
        w = dirty_waiters_.back();
        dirty_waiters_.pop_back();
        continue;
      }
    }
    ++i;
  }
  for (const DirtyWaiter& w : expired) {
    counters_.Add("dirty_wait_timeouts");
    Emit(w.slot, isa::CpStatus::kRejected);
  }
  for (const DirtyWaiter& w : retry) {
    counters_.Add("dirty_wait_wakeups");
    FinishAccess(now, w.slot, w.tuple);
  }
  if (!dirty_waiters_.empty()) tick_hazard_stall_ = true;
}

uint64_t AccessStage::NextWakeCycle(uint64_t now) const {
  // Admission (or the retry of a rejected key read) whenever an op is
  // queued and a slot is free.
  if (!pending_in_.empty() && !free_slots_.empty()) return now + 1;
  uint64_t wake = sim::kNeverWakes;
  for (const Batch& b : batches_) {
    // A partial batch is quiescent until its timeout flush (new arrivals
    // wake the stage through the admission check above).
    if (b.phase == Batch::Phase::kCollect) {
      wake = std::min(wake, b.flush_deadline);
    }
    // All key reads in: the pipeline sorts the batch and starts its walk.
    if (b.phase == Batch::Phase::kKeys && b.outstanding == 0) return now + 1;
  }
  // Parked ops are pure hazard-stall accounting between their polling
  // reads; polls and deadlines are fixed future cycles.
  for (const DirtyWaiter& w : dirty_waiters_) {
    wake = std::min(wake, std::min(w.deadline, w.next_poll));
  }
  return wake > now ? wake : now + 1;
}

void AccessStage::SkipCycles(uint64_t count, bool hazard) {
  if (!Idle()) {
    busy_cycles_ += count;
    occupancy_sum_ += uint64_t(active_) * count;
  }
  tick_dram_stall_ = false;
  tick_hazard_stall_ = hazard || !dirty_waiters_.empty();
}

void AccessStage::CollectStats(StatsScope scope) const {
  scope.SetCounter("busy_cycles", busy_cycles_);
  scope.SetCounter("pool_size", slots_.size());
  scope.SetGauge("mean_occupancy",
                 busy_cycles_ > 0
                     ? double(occupancy_sum_) / double(busy_cycles_)
                     : 0);
  scope.MergeCounterSet(counters_);
  // Batch scope emitted only in kBatched mode so per-op stats JSON stays
  // byte-identical to pre-batch builds.
  if (batched()) {
    StatsScope b = scope.Sub("batch");
    b.SetCounter("batches_flushed", batches_flushed_);
    b.SetCounter("flush_full", flush_full_);
    b.SetCounter("flush_timeout", flush_timeout_);
    b.SetCounter("flush_batch_end", flush_end_);
    b.SetSummary("probes_per_batch", probes_per_batch_);
  }
}

}  // namespace bionicdb::index
