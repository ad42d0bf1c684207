#include "index/skiplist_pipeline.h"

#include <algorithm>
#include <cassert>

#include "cc/visibility.h"
#include "db/tuple.h"

namespace bionicdb::index {

SkiplistPipeline::SkiplistPipeline(db::Database* db,
                                   db::PartitionId partition, Config config,
                                   cc::CcUnit* cc_unit, ResultQueue* results)
    : db_(db),
      dram_(db->dram()),
      partition_(partition),
      config_(config),
      stage_(db->dram(), config.pool_size, cc_unit, results, config),
      pool_(config.pool_size),
      stages_(config.n_stages),
      scanners_(config.n_scanners),
      walks_(stage_.batch_count()) {
  assert(config.n_stages >= 1 && config.n_stages <= db::kSkiplistMaxHeight);
  assert(config.n_scanners >= 1);
  // Range binding: every stage gets an equal share, and the remainder is
  // assigned to the TOP stage — upper levels are exponentially sparser so
  // wider upper ranges keep the dataflow balanced (section 4.4.2).
  const int total = db::kSkiplistMaxHeight;
  int base = total / int(config.n_stages);
  int rem = total % int(config.n_stages);
  int hi = total - 1;
  for (uint32_t s = 0; s < config.n_stages; ++s) {
    int width = base + (s == 0 ? rem : 0);
    stages_[s].hi = hi;
    stages_[s].lo = hi - width + 1;
    hi -= width;
  }
  assert(stages_.back().lo == 0);
}

db::SkiplistLayout* SkiplistPipeline::Layout(uint32_t slot) const {
  return db_->skiplist_index(stage_.op(slot).table, partition_);
}

void SkiplistPipeline::LinksFromSnapshot(const sim::MemWords& words,
                                         std::vector<uint64_t>* links) {
  // Words 0..2 are the header; links start at word 3.
  links->assign(words.begin() + 3, words.end());
}

int SkiplistPipeline::CompareProbe(const Op& op, sim::Addr tower) const {
  db::TupleAccessor t(dram_, tower);
  return db::CompareKeyToTuple(*dram_, op.key.data(),
                               uint16_t(op.key.size()), t);
}

void SkiplistPipeline::Tick(uint64_t now) {
  // Idle early-out: every internal queue (stage inputs, responses, install
  // acks, parked ops) belongs to an op holding a pool slot — so an idle
  // pipeline's stage fan-out is a pure no-op scan.
  if (!stage_.BeginTick()) return;
  stage_.TickDirtyWaiters(now);
  TickInstalls(now);
  for (uint32_t i = 0; i < config_.n_scanners; ++i) TickScanner(now, i);
  for (int s = int(config_.n_stages) - 1; s >= 0; --s) {
    TickStage(now, uint32_t(s));
  }
  // Inserts (and, under kPerOp, every op) flow through the staged path
  // above; probes batch.
  if (stage_.batched()) TickBatchExec(now);
  TickKeyFetch();
  uint32_t slot = stage_.Admit(now, &keyfetch_resp_, &batch_key_resp_);
  if (slot != AccessStage::kNone) pool_[slot].Reset();
}

void SkiplistPipeline::TickInstalls(uint64_t now) {
  // Acknowledged link writes: an insert completes (releasing its path
  // locks) only when every pred link update has landed in DRAM.
  while (!install_ack_.empty()) {
    uint32_t slot = uint32_t(install_ack_.front().cookie);
    install_ack_.pop_front();
    Op& op = pool_[slot];
    if (--op.acks_left == 0 && op.writes_left.empty()) {
      installing_.erase(
          std::find(installing_.begin(), installing_.end(), slot));
      stage_.counters().Add("inserts_installed");
      stage_.Emit(slot, isa::CpStatus::kOk,
                  db::TupleAccessor(dram_, op.new_tuple).payload_addr(),
                  cc::WriteKind::kInsert, op.new_tuple);
    }
  }
  // Retry link writes rejected by DRAM backpressure.
  for (uint32_t slot : installing_) {
    Op& op = pool_[slot];
    while (!op.writes_left.empty()) {
      auto [addr, value] = op.writes_left.back();
      if (!dram_->IssueWrite64(now, addr, value, &install_ack_, slot)) {
        stage_.NoteDramStall();
        break;
      }
      op.writes_left.pop_back();
    }
  }
}

void SkiplistPipeline::TickKeyFetch() {
  // Complete one pending key fetch per cycle: cache the key bytes and enter
  // the top traversal stage.
  if (keyfetch_resp_.empty()) return;
  uint32_t slot = uint32_t(keyfetch_resp_.front().cookie);
  keyfetch_resp_.pop_front();
  const comm::IndexOp& req = stage_.op(slot);
  Op& op = pool_[slot];
  op.key.resize(req.key_len);
  dram_->ReadBytes(req.key_addr, op.key.data(), op.key.size());
  op.cur = Layout(slot)->head();
  op.level = stages_[0].hi;
  if (req.op == isa::Opcode::kInsert) {
    op.new_height = Layout(slot)->NextHeight();
  }
  stages_[0].in.push_back(slot);
}

SkiplistPipeline::BatchWalk::Tower::St SkiplistPipeline::CachedTower(
    BatchWalk* w, sim::Addr addr, bool verify) {
  auto [it, inserted] = w->towers.try_emplace(addr);
  if (inserted) {
    it->second.verify = verify;
    w->fetch_queue.push_back(addr);
  }
  return it->second.st;
}

void SkiplistPipeline::TickBatchExec(uint64_t now) {
  // Key responses land while the batch is still collecting: cache the key
  // bytes and park the member at the top level.
  while (!batch_key_resp_.empty()) {
    uint32_t slot = uint32_t(batch_key_resp_.front().cookie);
    batch_key_resp_.pop_front();
    const comm::IndexOp& req = stage_.op(slot);
    Op& op = pool_[slot];
    op.key.resize(req.key_len);
    dram_->ReadBytes(req.key_addr, op.key.data(), op.key.size());
    op.cur = Layout(slot)->head();
    op.level = db::kSkiplistMaxHeight - 1;
    --stage_.batch(stage_.batch_of(slot)).outstanding;
  }
  for (uint32_t bi = 0; bi < stage_.batch_count(); ++bi) {
    AccessStage::Batch& b = stage_.batch(bi);
    BatchWalk& w = walks_[bi];
    if (b.phase == AccessStage::Batch::Phase::kIdle) continue;
    while (!w.fetch_resp.empty()) {
      sim::Addr addr = sim::Addr(w.fetch_resp.front().cookie);
      w.fetch_resp.pop_front();
      auto it = w.towers.find(addr);
      it->second.st = it->second.verify && !dram_->VerifyTupleGuard(addr)
                          ? BatchWalk::Tower::St::kCorrupt
                          : BatchWalk::Tower::St::kReady;
      --b.outstanding;
    }
    if (b.phase == AccessStage::Batch::Phase::kKeys && b.outstanding == 0) {
      // Level-wise sort: members ordered by (table, key), so adjacent
      // probes meet the towers they share one after the other.
      std::stable_sort(
          b.members.begin(), b.members.end(),
          [this](uint32_t x, uint32_t y) {
            const comm::IndexOp& rx = stage_.op(x);
            const comm::IndexOp& ry = stage_.op(y);
            if (rx.table != ry.table) return rx.table < ry.table;
            const Op& a = pool_[x];
            const Op& c = pool_[y];
            return std::lexicographical_compare(a.key.begin(), a.key.end(),
                                                c.key.begin(), c.key.end());
          });
      w.level = db::kSkiplistMaxHeight - 1;
      b.phase = AccessStage::Batch::Phase::kWalk;
    }
    if (b.phase == AccessStage::Batch::Phase::kWalk) {
      while (WalkBatch(now, bi)) {
      }
    }
  }
}

bool SkiplistPipeline::WalkBatch(uint64_t now, uint32_t bi) {
  using St = BatchWalk::Tower::St;
  AccessStage::Batch& b = stage_.batch(bi);
  BatchWalk& w = walks_[bi];
  // Advance every live member at the current level through the batch's
  // tower cache; a member blocks on the first tower not yet fetched.
  for (uint32_t idx = 0; idx < uint32_t(b.members.size()); ++idx) {
    uint32_t slot = b.members[idx];
    if (slot == kNoMember) continue;
    Op& op = pool_[slot];
    while (op.level == w.level) {
      // Heads carry no tuple integrity guard, so no verify.
      St st = CachedTower(&w, op.cur, /*verify=*/false);
      sim::Addr next = sim::kNullAddr;
      if (st == St::kReady) {
        next = db::TupleAccessor(dram_, op.cur).next(uint32_t(op.level));
        if (next == sim::kNullAddr) {
          if (op.level == 0) {
            op.preds[0] = op.cur;
            op.succs[0] = sim::kNullAddr;
          }
          --op.level;  // end of level: descend (per-level barrier)
          break;
        }
        st = CachedTower(&w, next, /*verify=*/true);
      }
      if (st == St::kCorrupt) {
        b.members[idx] = kNoMember;
        --b.live;
        stage_.EmitCorrupted(slot);
        break;
      }
      if (st != St::kReady) break;  // fetch queued or in flight
      if (CompareProbe(op, next) > 0) {
        op.cur = next;  // probe beyond `next`: move right (cached, free)
        continue;
      }
      if (op.level == 0) {
        op.preds[0] = op.cur;
        op.succs[0] = next;
      }
      --op.level;
      break;
    }
  }
  // Issue the fetches in discovery order (member-sorted). Each unique
  // tower is one timed DRAM access per batch.
  uint32_t issued = 0;
  for (sim::Addr addr : w.fetch_queue) {
    if (!dram_->Issue(now, addr, false, &w.fetch_resp, addr)) {
      stage_.counters().Add("batch_fetch_dram_stall");
      stage_.NoteDramStall();
      break;
    }
    w.towers[addr].st = St::kInflight;
    ++b.outstanding;
    ++issued;
    stage_.counters().Add("tower_visits");
  }
  w.fetch_queue.erase(w.fetch_queue.begin(), w.fetch_queue.begin() + issued);
  if (b.outstanding != 0 || !w.fetch_queue.empty()) return false;
  if (b.live > 0) {
    // Per-level barrier: every live member below the level?
    for (uint32_t slot : b.members) {
      if (slot != kNoMember && pool_[slot].level >= w.level) return false;
    }
    if (w.level > 0) {
      --w.level;
      return true;  // walk the next level this tick on cached towers
    }
    // Terminal round in member order: point ops run visibility/CC per
    // tuple through the access stage; scans hand off to the scanners.
    for (uint32_t idx = 0; idx < uint32_t(b.members.size()); ++idx) {
      uint32_t slot = b.members[idx];
      if (slot == kNoMember) continue;
      b.members[idx] = kNoMember;
      --b.live;
      Terminal(now, slot);
    }
  }
  stage_.RetireBatch(bi);
  w.level = 0;
  w.fetch_queue.clear();
  w.towers.clear();
  return false;
}

void SkiplistPipeline::TickStage(uint64_t now, uint32_t stage_idx) {
  Stage& s = stages_[stage_idx];
  if (!s.cur_op.has_value()) {
    if (s.in.empty()) return;
    // Wake on op arrival: (re)load the op's current tower from DRAM.
    uint32_t slot = s.in.front();
    if (!dram_->Issue(now, pool_[slot].cur, false, &s.resp, slot,
                      kTowerSnapshotWords)) {
      stage_.counters().Add("stage_dram_stall");
      stage_.NoteDramStall();
      return;
    }
    s.in.pop_front();
    s.cur_op = slot;
    s.wait = Wait::kLoad;
    return;
  }

  uint32_t slot = *s.cur_op;
  Op& op = pool_[slot];
  switch (s.wait) {
    case Wait::kNone:
      Advance(now, &s);
      break;
    case Wait::kLoad:
      if (s.resp.empty()) return;
      LinksFromSnapshot(s.resp.front().data, &op.cur_links);
      s.resp.pop_front();
      s.wait = Wait::kNone;
      Advance(now, &s);
      break;
    case Wait::kNext: {
      if (s.resp.empty()) return;
      sim::MemWords words = std::move(s.resp.front().data);
      s.resp.pop_front();
      NextArrived(now, &s, words);
      break;
    }
    case Wait::kLockMove:
      // Stalled on a locked next tower; once free, re-read it so the move
      // uses fresh links (the lock holder just rewired them).
      if (stage_.locks().HeldByOther(
              SkiplistLockKey(s.pending_next, uint32_t(op.level)), slot)) {
        stage_.counters().Add("lock_stall_cycles");
        stage_.NoteHazardStall();
        return;
      }
      if (dram_->Issue(now, s.pending_next, false, &s.resp, slot,
                       kTowerSnapshotWords)) {
        s.wait = Wait::kNext;
      } else {
        stage_.NoteDramStall();
      }
      break;
    case Wait::kLockDown:
      // Stalled on our own pred being locked; once free, re-read op.cur.
      if (stage_.locks().HeldByOther(
              SkiplistLockKey(op.cur, uint32_t(op.level)), slot)) {
        stage_.counters().Add("lock_stall_cycles");
        stage_.NoteHazardStall();
        return;
      }
      if (dram_->Issue(now, op.cur, false, &s.resp, slot,
                       kTowerSnapshotWords)) {
        s.wait = Wait::kLoad;
      } else {
        stage_.NoteDramStall();
      }
      break;
  }
}

void SkiplistPipeline::Advance(uint64_t now, Stage* stage) {
  uint32_t slot = *stage->cur_op;
  Op& op = pool_[slot];
  const bool is_insert = stage_.op(slot).op == isa::Opcode::kInsert;
  while (true) {
    if (op.level < stage->lo) {
      LeaveStage(now, stage);
      return;
    }
    sim::Addr next = op.level < int(op.cur_links.size())
                         ? op.cur_links[op.level]
                         : sim::kNullAddr;
    if (next == sim::kNullAddr) {
      // End of level: record path and descend on the cached tower.
      if (is_insert && op.level < int(op.new_height)) {
        uint64_t lkey = SkiplistLockKey(op.cur, uint32_t(op.level));
        if (config_.hazard_prevention &&
            stage_.locks().HeldByOther(lkey, slot)) {
          stage->wait = Wait::kLockDown;
          return;
        }
        if (config_.hazard_prevention) stage_.Lock(lkey, slot);
        op.preds[op.level] = op.cur;
        op.succs[op.level] = sim::kNullAddr;
      }
      --op.level;
      continue;
    }
    // Need the next tower's key: one DRAM access per tower visited.
    stage->pending_next = next;
    if (!dram_->Issue(now, next, false, &stage->resp, slot,
                      kTowerSnapshotWords)) {
      stage_.counters().Add("stage_dram_stall");
      stage_.NoteDramStall();
      return;  // wait == kNone; retried next tick
    }
    stage->wait = Wait::kNext;
    stage_.counters().Add("tower_visits");
    return;
  }
}

void SkiplistPipeline::NextArrived(uint64_t now, Stage* stage,
                                   const sim::MemWords& words) {
  uint32_t slot = *stage->cur_op;
  Op& op = pool_[slot];
  const bool is_insert = stage_.op(slot).op == isa::Opcode::kInsert;
  sim::Addr next = stage->pending_next;
  // Integrity guard before trusting the fetched tower's key bytes.
  if (!dram_->VerifyTupleGuard(next)) {
    stage->cur_op.reset();
    stage->wait = Wait::kNone;
    stage_.EmitCorrupted(slot);
    return;
  }
  int cmp = CompareProbe(op, next);
  if (cmp > 0) {
    // Probe is beyond `next`: move right onto it.
    if (is_insert && config_.hazard_prevention &&
        stage_.locks().HeldByOther(SkiplistLockKey(next, uint32_t(op.level)),
                                   slot)) {
      stage->wait = Wait::kLockMove;
      return;
    }
    op.cur = next;
    LinksFromSnapshot(words, &op.cur_links);
    stage->wait = Wait::kNone;
    Advance(now, stage);
    return;
  }
  // `next` is at/after the probe: stop here, record path, descend.
  if (is_insert && op.level < int(op.new_height)) {
    uint64_t lkey = SkiplistLockKey(op.cur, uint32_t(op.level));
    if (config_.hazard_prevention && stage_.locks().HeldByOther(lkey, slot)) {
      stage->wait = Wait::kLockDown;
      return;
    }
    if (config_.hazard_prevention) stage_.Lock(lkey, slot);
    op.preds[op.level] = op.cur;
    op.succs[op.level] = next;
  } else if (op.level == 0) {
    // Point ops and scans only need the bottom-level successor.
    op.preds[0] = op.cur;
    op.succs[0] = next;
  }
  --op.level;
  stage->wait = Wait::kNone;
  Advance(now, stage);
}

void SkiplistPipeline::LeaveStage(uint64_t now, Stage* stage) {
  uint32_t slot = *stage->cur_op;
  stage->cur_op.reset();
  stage->wait = Wait::kNone;
  // Identify this stage's index from its range.
  uint32_t idx = 0;
  for (; idx < stages_.size(); ++idx) {
    if (&stages_[idx] == stage) break;
  }
  if (idx + 1 < stages_.size()) {
    stages_[idx + 1].in.push_back(slot);
  } else {
    Terminal(now, slot);
  }
}

void SkiplistPipeline::Terminal(uint64_t now, uint32_t slot) {
  Op& op = pool_[slot];
  const comm::IndexOp& req = stage_.op(slot);
  switch (req.op) {
    case isa::Opcode::kSearch:
    case isa::Opcode::kUpdate:
    case isa::Opcode::kRemove: {
      sim::Addr cand = op.succs[0];
      if (cand != sim::kNullAddr && !dram_->VerifyTupleGuard(cand)) {
        stage_.EmitCorrupted(slot);
        return;
      }
      if (cand == sim::kNullAddr || CompareProbe(op, cand) != 0) {
        stage_.Emit(slot, isa::CpStatus::kNotFound);
        return;
      }
      stage_.FinishAccess(now, slot, cand);
      return;
    }
    case isa::Opcode::kInsert: {
      std::vector<uint8_t> payload(req.payload_len);
      if (!payload.empty()) {
        dram_->ReadBytes(req.payload_src, payload.data(), payload.size());
      }
      sim::Addr tower = db::AllocateTuple(
          dram_, partition_, op.new_height, op.key.data(),
          uint16_t(op.key.size()), payload.data(), uint32_t(payload.size()),
          /*write_ts=*/0, db::kFlagDirty);
      db::TupleAccessor t(dram_, tower);
      // Install from the RECORDED path (succs may be stale when hazard
      // prevention is off — that is exactly the Fig. 7a lost-tower bug).
      // The tower body is fresh memory (posted writes); the pred link
      // updates are ordering-sensitive, so their functional effect lands at
      // DRAM service time and the path locks are held until all complete.
      op.new_tuple = tower;
      op.acks_left = op.new_height;
      for (int l = 0; l < int(op.new_height); ++l) {
        t.set_next(uint32_t(l), op.succs[l]);
        db::TupleAccessor pred(dram_, op.preds[l]);
        sim::Addr link = pred.link_addr(uint32_t(l));
        if (!dram_->IssueWrite64(now, link, tower, &install_ack_, slot)) {
          op.writes_left.emplace_back(link, tower);
        }
      }
      stage_.PostWrite(
          now, tower,
          AccessStage::Bursts(db::TupleFootprint(op.new_height,
                                                 uint16_t(op.key.size()),
                                                 uint32_t(payload.size()))));
      installing_.push_back(slot);
      return;
    }
    case isa::Opcode::kScan: {
      op.cur = op.succs[0];
      op.collected = 0;
      // Shortest-queue scanner assignment (round-robin tie-break). The
      // rotation advances only when the tie-break actually decided the
      // pick: advancing it on strict shortest-queue overrides too would
      // skew later ties toward low indices under equal queues.
      uint32_t start = scanner_rr_ % config_.n_scanners;
      uint32_t best = start;
      for (uint32_t i = 0; i < config_.n_scanners; ++i) {
        if (scanners_[i].in.size() < scanners_[best].in.size()) best = i;
      }
      if (best == start) scanner_rr_ = (scanner_rr_ + 1) % config_.n_scanners;
      ++scanners_[best].dispatched;
      scanners_[best].in.push_back(slot);
      return;
    }
    default:
      stage_.Emit(slot, isa::CpStatus::kError);
      return;
  }
}

void SkiplistPipeline::TickScanner(uint64_t now, uint32_t scanner_idx) {
  Scanner& sc = scanners_[scanner_idx];
  if (!sc.cur_op.has_value()) {
    if (sc.in.empty()) return;
    uint32_t slot = sc.in.front();
    Op& op = pool_[slot];
    if (op.cur == sim::kNullAddr || stage_.op(slot).scan_count == 0) {
      sc.in.pop_front();
      stage_.Emit(slot, isa::CpStatus::kOk);
      return;
    }
    if (!dram_->Issue(now, op.cur, false, &sc.resp, slot,
                      kTowerSnapshotWords)) {
      stage_.counters().Add("scanner_dram_stall");
      stage_.NoteDramStall();
      return;
    }
    sc.in.pop_front();
    sc.cur_op = slot;
    sc.waiting = true;
    return;
  }
  if (!sc.waiting) {
    // A previous hop read was rejected by DRAM backpressure; retry it.
    Op& op = pool_[*sc.cur_op];
    if (dram_->Issue(now, op.cur, false, &sc.resp, *sc.cur_op,
                     kTowerSnapshotWords)) {
      sc.waiting = true;
    } else {
      stage_.counters().Add("scanner_dram_stall");
      stage_.NoteDramStall();
    }
    return;
  }
  if (sc.resp.empty()) return;
  sim::MemWords words = std::move(sc.resp.front().data);
  sc.resp.pop_front();
  uint32_t slot = *sc.cur_op;
  Op& op = pool_[slot];
  if (!dram_->VerifyTupleGuard(op.cur)) {
    sc.cur_op.reset();
    sc.waiting = false;
    stage_.EmitCorrupted(slot);
    return;
  }
  const comm::IndexOp& req = stage_.op(slot);
  db::TupleAccessor t(dram_, op.cur);
  if (cc::ScanVisible(t, req.ts)) {
    // Collect the tuple: its payload address lands in the result buffer.
    dram_->Write64(req.out_buf + 8ull * op.collected, t.payload_addr());
    ++op.collected;
    if (op.collected % 8 == 0) {
      stage_.PostWrite(now, req.out_buf + 8ull * (op.collected - 8));
    }
  }
  sim::Addr next = words.size() > 3 ? words[3] : sim::kNullAddr;  // level 0
  if (op.collected >= req.scan_count || next == sim::kNullAddr) {
    if (op.collected % 8 != 0) {
      stage_.PostWrite(now, req.out_buf + 8ull * (op.collected & ~7u));
    }
    stage_.counters().Add("scans_completed");
    uint32_t n = op.collected;
    sc.cur_op.reset();
    sc.waiting = false;
    stage_.Emit(slot, isa::CpStatus::kOk, n);
    return;
  }
  op.cur = next;
  if (!dram_->Issue(now, op.cur, false, &sc.resp, slot,
                    kTowerSnapshotWords)) {
    // Retry next tick: stay waiting with an empty response queue.
    stage_.counters().Add("scanner_dram_stall");
    stage_.NoteDramStall();
    sc.waiting = false;
    return;
  }
}

uint64_t SkiplistPipeline::NextWakeCycle(uint64_t now) const {
  // An idle stage makes Tick return at once (AccessStage::BeginTick) until
  // an op is submitted, which the submitter's own wake covers.
  if (stage_.Idle()) return sim::kNeverWakes;
  // Queued responses/acks process next tick.
  if (!install_ack_.empty() || !keyfetch_resp_.empty() ||
      !batch_key_resp_.empty()) {
    return now + 1;
  }
  // Installs with unissued link writes retry every tick (DRAM rejects
  // bump counters); installs waiting purely on acks are quiescent.
  for (uint32_t slot : installing_) {
    if (!pool_[slot].writes_left.empty()) return now + 1;
  }
  for (const Stage& s : stages_) {
    if (!s.cur_op.has_value()) {
      if (!s.in.empty()) return now + 1;
      continue;
    }
    const Op& op = pool_[*s.cur_op];
    switch (s.wait) {
      case Wait::kNone:
        return now + 1;  // Advance acts on cached data
      case Wait::kLoad:
      case Wait::kNext:
        if (!s.resp.empty()) return now + 1;
        break;  // pure DRAM wait
      case Wait::kLockMove:
        if (!stage_.locks().HeldByOther(
                SkiplistLockKey(s.pending_next, uint32_t(op.level)),
                *s.cur_op)) {
          return now + 1;  // lock freed: the re-read issues next tick
        }
        break;  // quiescent lock stall (bulk-counted in SkipCycles)
      case Wait::kLockDown:
        if (!stage_.locks().HeldByOther(
                SkiplistLockKey(op.cur, uint32_t(op.level)), *s.cur_op)) {
          return now + 1;
        }
        break;
    }
  }
  for (const Scanner& sc : scanners_) {
    if (sc.cur_op.has_value()) {
      if (!sc.waiting || !sc.resp.empty()) return now + 1;
    } else if (!sc.in.empty()) {
      return now + 1;
    }
  }
  for (uint32_t bi = 0; bi < stage_.batch_count(); ++bi) {
    const AccessStage::Batch& b = stage_.batch(bi);
    const BatchWalk& w = walks_[bi];
    if (!w.fetch_resp.empty()) return now + 1;
    // A walk acts on unissued fetches (DRAM-reject retries) and once its
    // fetches drained.
    if (b.phase == AccessStage::Batch::Phase::kWalk &&
        (!w.fetch_queue.empty() || b.outstanding == 0)) {
      return now + 1;
    }
  }
  return stage_.NextWakeCycle(now);
}

void SkiplistPipeline::SkipCycles(uint64_t now, uint64_t count) {
  (void)now;
  bool hazard = false;
  // An idle pipeline has no op in any stage: nothing to scan.
  if (stage_.Idle()) {
    stage_.SkipCycles(count, hazard);
    return;
  }
  for (const Stage& s : stages_) {
    if (!s.cur_op.has_value()) continue;
    const Op& op = pool_[*s.cur_op];
    const bool lock_stalled =
        (s.wait == Wait::kLockMove &&
         stage_.locks().HeldByOther(
             SkiplistLockKey(s.pending_next, uint32_t(op.level)),
             *s.cur_op)) ||
        (s.wait == Wait::kLockDown &&
         stage_.locks().HeldByOther(
             SkiplistLockKey(op.cur, uint32_t(op.level)), *s.cur_op));
    if (lock_stalled) {
      stage_.counters().Add("lock_stall_cycles", count);
      hazard = true;
    }
  }
  stage_.SkipCycles(count, hazard);
}

void SkiplistPipeline::CollectStats(StatsScope scope) const {
  scope.SetCounter("n_stages", config_.n_stages);
  scope.SetCounter("n_scanners", config_.n_scanners);
  stage_.CollectStats(scope);
}

}  // namespace bionicdb::index
