#include "core/worker.h"

#include <algorithm>
#include <cassert>

namespace bionicdb::core {

PartitionWorker::PartitionWorker(db::Database* db, db::WorkerId id,
                                 const sim::TimingConfig& timing,
                                 Softcore::Config softcore_config,
                                 index::IndexCoprocessor::Config coproc_config,
                                 uint32_t workers_per_chip,
                                 comm::CommFabric* fabric)
    : sim::Component("worker/" + std::to_string(id)),
      id_(id),
      fabric_(fabric),
      dram_(db->dram()),
      workers_per_chip_(workers_per_chip),
      interchip_window_(softcore_config.two_pc.interchip_window) {
  coproc_ = std::make_unique<index::IndexCoprocessor>(db, id, coproc_config);
  softcore_ = std::make_unique<Softcore>(db, id, timing, softcore_config,
                                         workers_per_chip, this);
}

void PartitionWorker::RetireWindowedRequest(const comm::Envelope& response) {
  if (response.hdr.sent_at == 0) return;  // a local request
  remote_rtt_.Add(double(now_ - response.hdr.sent_at));
  if (ForeignChip(response.hdr.src) && interchip_inflight_ > 0) {
    --interchip_inflight_;
  }
}

bool PartitionWorker::Issue(db::WorkerId dst, const comm::Envelope& env) {
  if (dst != id_) {
    // Fabric send. Requests get the wire-out cycle stamped for RTT
    // measurement; responses echo the request's stamp untouched. Every
    // fabric send (re-)stamps hdr.src with this worker's id so receivers
    // can attribute the packet (2PC ack matching, window accounting).
    const comm::MessageClass cls = env.cls();
    if (ForeignChip(dst) &&
        (cls == comm::MessageClass::kIndexOp ||
         cls == comm::MessageClass::kPrepareReq ||
         cls == comm::MessageClass::kCommitReq)) {
      // Cross-chip request: bounded in-flight window per worker. A full
      // window rejects the Issue — the caller retries, charging the
      // interchip-backpressure bucket. Responses and posted kMemOps are
      // exempt (rejecting them would wedge the request/response pairing).
      if (interchip_inflight_ >= interchip_window_) return false;
      ++interchip_inflight_;
    }
    comm::Envelope stamped = env;
    if (stamped.is_request()) stamped.hdr.sent_at = now_;
    stamped.hdr.src = id_;
    fabric_->Send(now_, id_, dst, stamped);
    return true;
  }
  // Local apply, dispatched purely on message class. Responses that round-
  // tripped a foreign chip (src stamped by a cross-chip responder, sent_at
  // proving a fabric request) release one inter-chip window slot.
  switch (env.cls()) {
    case comm::MessageClass::kIndexOp:
      return coproc_->Submit(env);
    case comm::MessageClass::kMemOp:
      return HandleMemOp(now_, env);
    case comm::MessageClass::kIndexResult:
      RetireWindowedRequest(env);
      softcore_->WriteCp(env);
      return true;
    case comm::MessageClass::kMemResult:
      if (env.hdr.sent_at != 0) {
        remote_rtt_.Add(double(now_ - env.hdr.sent_at));
      }
      softcore_->CompleteRemoteLoad(now_, env);
      return true;
    case comm::MessageClass::kPrepareReq: {
      // 2PC participant vote. Concurrency conflicts surface at Update time
      // (the owning coprocessor rejects the lock), so a reachable
      // participant always votes commit; the vote's job is to prove
      // liveness to the coordinator before it publishes a decision.
      comm::PrepareAck ack;
      ack.txn_ts = env.prepare_req().txn_ts;
      ack.vote_commit = true;
      Issue(env.hdr.origin, comm::Envelope::Reply(env, ack));
      return true;
    }
    case comm::MessageClass::kCommitReq:
      return HandleCommitReq(now_, env);
    case comm::MessageClass::kPrepareAck:
      RetireWindowedRequest(env);
      softcore_->HandlePrepareAck(now_, env);
      return true;
    case comm::MessageClass::kCommitAck:
      RetireWindowedRequest(env);
      softcore_->HandleCommitAck(now_, env);
      return true;
  }
  return true;
}

void PartitionWorker::Tick(uint64_t cycle) {
  now_ = cycle;

  if (cycle < frozen_until_) {
    // Injected freeze: the whole worker (background unit, coprocessor,
    // softcore) skips the cycle. Inbound packets stay queued in the fabric
    // inboxes and are drained when the worker thaws.
    ++cycles_.total;
    ++cycles_.frozen;
    return;
  }

  // Background unit: apply inbound request envelopes through the local
  // side of the Issue port (kIndexOp -> coprocessor, kMemOp -> raw-memory
  // service under partitioned DRAM). Stops at the first
  // capacity/backpressure reject to preserve channel FIFO order.
  if (fabric_ != nullptr) {
    auto& inbound = fabric_->requests(id_);
    while (!inbound.empty()) {
      if (!Issue(id_, inbound.front())) break;
      inbound.pop_front();
    }
  }

  // Route completed coprocessor results to their origin — the local
  // softcore and a remote peer are the same Issue call.
  auto& results = coproc_->results();
  while (!results.empty()) {
    comm::Envelope r = std::move(results.front());
    results.pop_front();
    Issue(r.hdr.origin, r);
  }

  // Answer remote LOADs whose DRAM read completed this cycle.
  while (!mem_inbox_.empty()) {
    sim::MemResponse resp = std::move(mem_inbox_.front());
    mem_inbox_.pop_front();
    auto it = mem_pending_.find(resp.cookie);
    assert(it != mem_pending_.end());
    comm::MemResult result;
    result.value = resp.data.empty() ? 0 : resp.data[0];
    Issue(it->second.hdr.origin, comm::Envelope::Reply(it->second, result));
    mem_pending_.erase(it);
  }

  // Inbound response envelopes: asynchronous CP-register writeback, or the
  // stalled softcore's remote-LOAD resume (dispatched by class inside
  // Issue, which also records the round trip).
  if (fabric_ != nullptr) {
    auto& responses = fabric_->responses(id_);
    while (!responses.empty()) {
      Issue(id_, responses.front());
      responses.pop_front();
    }
  }

  coproc_->Tick(cycle);
  softcore_->Tick(cycle);
  // Charge this cycle to exactly one breakdown bucket.
  ChargeCycles(softcore_->wait_kind(cycle), 1);
}

bool PartitionWorker::Idle() const {
  // The worker owns its fabric inbox emptiness (the fabric's own Idle
  // covers only packets in flight), plus the raw-memory service unit.
  if (fabric_ != nullptr && (!fabric_->requests(id_).empty() ||
                             !fabric_->responses(id_).empty())) {
    return false;
  }
  return softcore_->Idle() && coproc_->Idle() && mem_inbox_.empty() &&
         mem_pending_.empty();
}

uint64_t PartitionWorker::NextWakeCycle(uint64_t now) const {
  // A frozen worker does nothing but count frozen cycles until the thaw —
  // even with packets or results queued (they wait, as in per-cycle mode).
  if (now + 1 < frozen_until_) return frozen_until_;
  if (fabric_ != nullptr && (!fabric_->requests(id_).empty() ||
                             !fabric_->responses(id_).empty())) {
    return now + 1;  // background unit / response drain acts
  }
  if (!coproc_->results().empty()) return now + 1;  // result routing acts
  if (!mem_inbox_.empty()) return now + 1;  // remote-LOAD answers go out
  // mem_pending_ needs no wake of its own: the completion that fills
  // mem_inbox_ is already the DRAM lane's wake point.
  // A dispatch retry against a full coprocessor fails every cycle until
  // the coprocessor frees a slot, and only its own activity (its wake
  // point) or an inbound request (the inbox check above) moves inflight().
  const uint64_t softcore_wake = DispatchSpinsOnFullCoproc(now)
                                     ? sim::kNeverWakes
                                     : softcore_->NextWakeCycle(now);
  // The softcore is the cheaper hint and the likelier next-cycle one.
  if (softcore_wake <= now + 1) return now + 1;
  return std::min(softcore_wake, coproc_->NextWakeCycle(now));
}

bool PartitionWorker::DispatchSpinsOnFullCoproc(uint64_t now) const {
  return softcore_->RetriesLocalDispatch(now) &&
         coproc_->inflight() >= coproc_->max_inflight();
}

void PartitionWorker::SkipCycles(uint64_t now, uint64_t count) {
  if (now + 1 < frozen_until_) {
    // Sub-blocks do not tick while frozen, so they get no skip either.
    cycles_.total += count;
    cycles_.frozen += count;
    return;
  }
  // Each skipped cycle of a dispatch spin is one rejected submit.
  if (DispatchSpinsOnFullCoproc(now)) coproc_->SkipCapRejects(count);
  // Forward the skip first so the classification below sees the same
  // span-steady stall flags a real tick would have produced.
  coproc_->SkipCycles(now, count);
  softcore_->SkipCycles(now, count);
  ChargeCycles(softcore_->wait_kind(now + 1), count);
}

bool PartitionWorker::HandleCommitReq(uint64_t cycle,
                                      const comm::Envelope& env) {
  const comm::CommitReq& req = env.commit_req();
  auto [it, first_delivery] = twopc_decisions_.emplace(req.txn_ts, req.commit);
  if (first_delivery) {
    // Exactly-once apply: publish (or roll back) every entry the
    // coordinator shipped for this chip. Writes are posted, exactly like
    // same-chip remote commit publications in HandleMemOp.
    for (const cc::WriteSetEntry& e : req.entries) {
      if (req.commit) {
        cc::ApplyCommit(dram_, e, req.txn_ts);
      } else {
        cc::ApplyAbort(dram_, e);
      }
      dram_->Issue(cycle, e.tuple_addr, true, nullptr, 0);
    }
    twopc_participant_applies_ += req.entries.size();
  } else {
    // Duplicate decision (retransmit or coordinator resend after a lost
    // ack): the recorded decision stands, nothing re-applies.
    ++twopc_dup_decisions_;
  }
  // Always ack — the resend exists precisely because the first ack may
  // have been lost.
  Issue(env.hdr.origin, comm::Envelope::Reply(env, comm::CommitAck{req.txn_ts}));
  return true;
}

bool PartitionWorker::HandleMemOp(uint64_t cycle, const comm::Envelope& env) {
  const comm::MemOp& op = env.mem_op();
  switch (op.kind) {
    case comm::MemOp::Kind::kStore:
      // Posted remote write: functional effect now, bandwidth charged on
      // this lane (reject ignored, exactly like local posted stores).
      dram_->Write64(op.addr, op.store_value);
      dram_->Issue(cycle, op.addr, true, nullptr, 0);
      return true;
    case comm::MemOp::Kind::kCommit:
      cc::ApplyCommit(dram_, cc::WriteSetEntry{op.addr, op.write_kind},
                      op.commit_ts);
      dram_->Issue(cycle, op.addr, true, nullptr, 0);
      return true;
    case comm::MemOp::Kind::kAbort:
      cc::ApplyAbort(dram_, cc::WriteSetEntry{op.addr, op.write_kind});
      dram_->Issue(cycle, op.addr, true, nullptr, 0);
      return true;
    case comm::MemOp::Kind::kLoad: {
      const uint64_t cookie = mem_cookie_next_;
      if (!dram_->Issue(cycle, op.addr, false, &mem_inbox_, cookie,
                        /*snapshot_words=*/1)) {
        return false;  // backpressure: leave queued, retry next tick
      }
      ++mem_cookie_next_;
      mem_pending_.emplace(cookie, env);
      return true;
    }
  }
  return true;
}

void PartitionWorker::CollectStats(StatsScope scope) const {
  StatsScope cyc = scope.Sub("cycles");
  cyc.SetCounter("total", cycles_.total);
  cyc.SetCounter("busy", cycles_.busy);
  cyc.SetCounter("dram_stall", cycles_.dram_stall);
  cyc.SetCounter("hazard_block", cycles_.hazard_block);
  cyc.SetCounter("backpressure", cycles_.backpressure);
  cyc.SetCounter("idle", cycles_.idle);
  if (cycles_.frozen > 0) cyc.SetCounter("frozen", cycles_.frozen);
  if (cycles_.interchip_stall > 0) {
    cyc.SetCounter("interchip_stall", cycles_.interchip_stall);
  }
  if (workers_per_chip_ > 0) {
    StatsScope tp = scope.Sub("twopc_participant");
    tp.SetCounter("applies", twopc_participant_applies_);
    tp.SetCounter("dup_decisions", twopc_dup_decisions_);
  }
  scope.SetSummary("remote_rtt_cycles", remote_rtt_);
  softcore_->CollectStats(scope.Sub("softcore"));
  coproc_->CollectStats(scope.Sub("coproc"));
}

}  // namespace bionicdb::core
