#include "index/hash_pipeline.h"

#include "db/hash_layout.h"
#include "db/tuple.h"

namespace bionicdb::index {

HashPipeline::HashPipeline(db::Database* db, db::PartitionId partition,
                           Config config, cc::CcUnit* cc_unit,
                           ResultQueue* results)
    : db_(db),
      dram_(db->dram()),
      partition_(partition),
      config_(config),
      stage_(db->dram(), config.pool_size, cc_unit, results),
      pool_(config.pool_size),
      traverse_units_(config.n_traverse_units) {}

void HashPipeline::Tick(uint64_t now) {
  if (!stage_.BeginTick()) return;
  // Downstream stages first so queues drain before upstream refills them.
  stage_.TickDirtyWaiters(now);
  for (uint32_t u = 0; u < config_.n_traverse_units; ++u) {
    TickTraverse(now, u);
  }
  TickKeyComp(now);
  TickHeadFetch(now);
  TickInstall(now);
  TickHash(now);
  uint32_t slot = stage_.Admit(now, &hash_resp_);
  if (slot != AccessStage::kNone) pool_[slot] = Op{};
}

void HashPipeline::HashKey(uint32_t slot) {
  // Functional key fetch (keys in transaction blocks are immutable while
  // the transaction runs).
  const comm::IndexOp& req = stage_.op(slot);
  Op& op = pool_[slot];
  sim::InlineVec<uint8_t, 48> key(req.key_len);
  dram_->ReadBytes(req.key_addr, key.data(), key.size());
  op.hash = db::HashTableLayout::HashKey(key.data(), uint16_t(key.size()));
  op.bucket_slot = db_->hash_index(req.table, partition_)->BucketSlot(op.hash);
  fc_hash_stage_.Add();
}

uint64_t HashPipeline::BucketIndex(uint32_t slot) const {
  return db_->hash_index(stage_.op(slot).table, partition_)
      ->BucketIndex(pool_[slot].hash);
}

bool HashPipeline::TryPassHashStage(uint64_t now, uint32_t slot) {
  Op& op = pool_[slot];
  const bool is_insert = stage_.op(slot).op == isa::Opcode::kInsert;
  if (config_.hazard_prevention) {
    uint64_t bucket = BucketIndex(slot);
    if (stage_.locks().HeldByOther(bucket, slot)) {
      fc_hash_lock_stall_.Add();
      stage_.NoteHazardStall();
      return false;
    }
    if (is_insert && !stage_.HoldsLock(slot)) stage_.Lock(bucket, slot);
  }
  sim::MemResponseQueue* dest = is_insert ? &install_resp_ : &headfetch_resp_;
  // Snapshot the bucket head at DRAM service time: this is what makes the
  // insert-after-insert hazard observable when prevention is disabled.
  if (!dram_->Issue(now, op.bucket_slot, false, dest, slot,
                    /*snapshot_words=*/1)) {
    fc_hash_dram_stall_.Add();
    stage_.NoteDramStall();
    return false;
  }
  return true;
}

void HashPipeline::TickHash(uint64_t now) {
  if (hash_blocked_.has_value()) {
    if (TryPassHashStage(now, *hash_blocked_)) hash_blocked_.reset();
    return;  // head-of-line stall: nothing else passes this stage
  }
  if (hash_resp_.empty()) return;
  uint32_t slot = uint32_t(hash_resp_.front().cookie);
  hash_resp_.pop_front();
  HashKey(slot);
  if (!TryPassHashStage(now, slot)) hash_blocked_ = slot;
}

void HashPipeline::TickInstall(uint64_t now) {
  // Completed bucket-head writes publish the insert: only now is the lock
  // released and the result emitted, so a prevented op re-reading the
  // bucket is guaranteed to see the new head.
  if (!install_ack_.empty()) {
    uint32_t slot = uint32_t(install_ack_.front().cookie);
    install_ack_.pop_front();
    sim::Addr tuple = pool_[slot].new_tuple;
    fc_install_stage_.Add();
    stage_.Emit(slot, isa::CpStatus::kOk,
                db::TupleAccessor(dram_, tuple).payload_addr(),
                cc::WriteKind::kInsert, tuple);
    return;
  }
  if (install_blocked_.has_value()) {
    uint32_t slot = *install_blocked_;
    Op& op = pool_[slot];
    if (dram_->IssueWrite64(now, op.bucket_slot, op.new_tuple, &install_ack_,
                            slot)) {
      install_blocked_.reset();
    } else {
      stage_.NoteDramStall();
    }
    return;
  }
  if (install_resp_.empty()) return;
  sim::MemResponse resp = std::move(install_resp_.front());
  install_resp_.pop_front();
  uint32_t slot = uint32_t(resp.cookie);
  Op& op = pool_[slot];
  const comm::IndexOp& req = stage_.op(slot);
  // The head value as serviced by DRAM — possibly stale if prevention is
  // off and a racing insert's head write has not completed (Fig. 6a).
  sim::Addr old_head = resp.data[0];

  sim::InlineVec<uint8_t, 48> key(req.key_len);
  dram_->ReadBytes(req.key_addr, key.data(), key.size());
  std::vector<uint8_t> payload(req.payload_len);
  if (!payload.empty()) {
    dram_->ReadBytes(req.payload_src, payload.data(), payload.size());
  }
  // New tuples are born dirty; COMMIT publishes them (section 4.7).
  sim::Addr tuple = db::AllocateTuple(
      dram_, partition_, /*height=*/0, key.data(), uint16_t(key.size()),
      payload.data(), uint32_t(payload.size()), /*write_ts=*/0,
      db::kFlagDirty);
  db::TupleAccessor t(dram_, tuple);
  t.set_next(0, old_head);
  op.new_tuple = tuple;

  // Tuple body: posted writes to fresh memory (race-free by construction).
  stage_.PostWrite(now, tuple,
                    AccessStage::Bursts(db::TupleFootprint(
                        0, uint16_t(key.size()), uint32_t(payload.size()))));
  // The bucket-head update is the ordering-sensitive write: its functional
  // effect lands at DRAM service time.
  if (!dram_->IssueWrite64(now, op.bucket_slot, tuple, &install_ack_, slot)) {
    install_blocked_ = slot;
    stage_.NoteDramStall();
  }
}

void HashPipeline::TickHeadFetch(uint64_t now) {
  if (headfetch_blocked_.has_value()) {
    uint32_t slot = *headfetch_blocked_;
    if (dram_->Issue(now, pool_[slot].cur, false, &keycomp_resp_, slot)) {
      headfetch_blocked_.reset();
    }
    return;
  }
  if (headfetch_resp_.empty()) return;
  sim::MemResponse resp = std::move(headfetch_resp_.front());
  headfetch_resp_.pop_front();
  uint32_t slot = uint32_t(resp.cookie);
  sim::Addr head = resp.data[0];
  fc_headfetch_stage_.Add();
  if (head == sim::kNullAddr) {
    stage_.Emit(slot, isa::CpStatus::kNotFound);
    return;
  }
  pool_[slot].cur = head;
  if (!dram_->Issue(now, head, false, &keycomp_resp_, slot)) {
    headfetch_blocked_ = slot;
    fc_headfetch_dram_stall_.Add();
    stage_.NoteDramStall();
  }
}

bool HashPipeline::CompareOrAdvance(uint64_t now, uint32_t slot) {
  Op& op = pool_[slot];
  // Integrity guard before trusting any header/key byte of this node: a
  // flipped key byte would otherwise surface as a silent kNotFound.
  if (!dram_->VerifyTupleGuard(op.cur)) {
    stage_.EmitCorrupted(slot);
    return true;
  }
  const comm::IndexOp& req = stage_.op(slot);
  db::TupleAccessor t(dram_, op.cur);
  sim::InlineVec<uint8_t, 48> key(req.key_len);
  dram_->ReadBytes(req.key_addr, key.data(), key.size());
  if (db::CompareKeyToTuple(*dram_, key.data(), uint16_t(key.size()), t) ==
      0) {
    stage_.FinishAccess(now, slot, op.cur);
    return true;
  }
  sim::Addr next = t.next(0);
  if (next == sim::kNullAddr) {
    stage_.Emit(slot, isa::CpStatus::kNotFound);
    return true;
  }
  op.cur = next;
  return false;
}

void HashPipeline::EnqueueTraverse(uint32_t slot) {
  uint32_t best = 0;
  size_t best_len = SIZE_MAX;
  for (uint32_t u = 0; u < config_.n_traverse_units; ++u) {
    size_t len = traverse_units_[u].in.size() +
                 (traverse_units_[u].cur_op.has_value() ? 1 : 0);
    if (len < best_len) {
      best_len = len;
      best = u;
    }
  }
  traverse_units_[best].in.push_back(slot);
}

void HashPipeline::TickKeyComp(uint64_t now) {
  // KeyComp examines the FIRST chain node only; mismatches are handed to a
  // Traverse unit so long chains never block ops terminating here.
  if (keycomp_resp_.empty()) return;
  uint32_t slot = uint32_t(keycomp_resp_.front().cookie);
  keycomp_resp_.pop_front();
  fc_keycomp_stage_.Add();
  if (!CompareOrAdvance(now, slot)) EnqueueTraverse(slot);
}

void HashPipeline::TickTraverse(uint64_t now, uint32_t unit_idx) {
  TraverseUnit& unit = traverse_units_[unit_idx];
  if (!unit.cur_op.has_value()) {
    if (unit.in.empty()) return;
    // Take the next op; op.cur already names the node to fetch.
    uint32_t slot = unit.in.front();
    if (!dram_->Issue(now, pool_[slot].cur, false, &unit.resp, slot)) {
      fc_traverse_dram_stall_.Add();
      stage_.NoteDramStall();
      return;
    }
    unit.in.pop_front();
    unit.cur_op = slot;
    unit.waiting = true;
    return;
  }
  if (!unit.waiting) {
    // Retry a rejected chain read.
    uint32_t slot = *unit.cur_op;
    if (dram_->Issue(now, pool_[slot].cur, false, &unit.resp, slot)) {
      unit.waiting = true;
    } else {
      fc_traverse_dram_stall_.Add();
      stage_.NoteDramStall();
    }
    return;
  }
  if (unit.resp.empty()) return;
  unit.resp.pop_front();
  uint32_t slot = *unit.cur_op;
  fc_traverse_stage_.Add();
  if (CompareOrAdvance(now, slot)) {
    unit.cur_op.reset();
    unit.waiting = false;
    return;
  }
  // Follow the chain: next node read (unit stays occupied — the decoupling
  // the paper describes in section 4.4.1).
  if (!dram_->Issue(now, pool_[slot].cur, false, &unit.resp, slot)) {
    unit.waiting = false;
    fc_traverse_dram_stall_.Add();
    stage_.NoteDramStall();
  }
}

bool HashPipeline::HashBlockedOnLock() const {
  return hash_blocked_.has_value() && config_.hazard_prevention &&
         stage_.locks().HeldByOther(BucketIndex(*hash_blocked_),
                                    *hash_blocked_);
}

uint64_t HashPipeline::NextWakeCycle(uint64_t now) const {
  // An idle stage makes Tick return at once (AccessStage::BeginTick) until
  // an op is submitted, which the submitter's own wake covers.
  if (stage_.Idle()) return sim::kNeverWakes;
  // Stages with queued responses/acks process one item per tick.
  if (!install_ack_.empty() || !install_resp_.empty() ||
      !headfetch_resp_.empty() || !keycomp_resp_.empty()) {
    return now + 1;
  }
  // Head-of-line DRAM-reject retries re-issue every tick (each attempt
  // bumps DRAM reject counters, so those cycles cannot be skipped).
  if (install_blocked_.has_value() || headfetch_blocked_.has_value()) {
    return now + 1;
  }
  if (hash_blocked_.has_value()) {
    // A lock stall is quiescent until the holder's install completes — a
    // DRAM ack on this worker's lane, which wakes it. A DRAM-reject stall
    // retries every tick.
    if (!HashBlockedOnLock()) return now + 1;
  } else if (!hash_resp_.empty()) {
    return now + 1;
  }
  for (const TraverseUnit& u : traverse_units_) {
    if (u.cur_op.has_value()) {
      if (!u.waiting || !u.resp.empty()) return now + 1;
    } else if (!u.in.empty()) {
      return now + 1;
    }
  }
  return stage_.NextWakeCycle(now);
}

void HashPipeline::SkipCycles(uint64_t now, uint64_t count) {
  (void)now;
  const bool hazard = HashBlockedOnLock();
  if (hazard) fc_hash_lock_stall_.Add(count);
  stage_.SkipCycles(count, hazard);
}

}  // namespace bionicdb::index
