#include "core/softcore.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "cc/cc_unit.h"

namespace bionicdb::core {

Softcore::Softcore(db::Database* db, db::WorkerId worker_id,
                   const sim::TimingConfig& timing, Config config,
                   comm::IssuePort* port)
    : db_(db),
      dram_(db->dram()),
      worker_id_(worker_id),
      timing_(timing),
      config_(config),
      port_(port),
      gp_(config.n_gp_regs, 0),
      cp_(config.n_cp_regs, 0),
      cp_valid_(config.n_cp_regs, 1),
      contexts_(config.max_contexts) {}

uint64_t& Softcore::Gp(uint32_t ctx, isa::Reg r) {
  uint32_t idx = contexts_[ctx].gp_base + r;
  assert(idx < gp_.size());
  return gp_[idx];
}

bool Softcore::Idle() const {
  return state_ == State::kIdle && input_queue_.empty() &&
         pending_block_ == sim::kNullAddr && batch_order_.empty();
}

void Softcore::WriteCp(const comm::Envelope& result) {
  const comm::IndexResult& r = result.index_result();
  assert(result.hdr.cp_index < cp_.size());
  cp_[result.hdr.cp_index] = r.ToCpValue();
  cp_valid_[result.hdr.cp_index] = 1;
  TxnContext& ctx = contexts_[result.hdr.txn_slot];
  assert(ctx.outstanding_db > 0);
  --ctx.outstanding_db;
  if (r.write_kind != cc::WriteKind::kNone) {
    ctx.write_set.push_back(cc::WriteSetEntry{r.tuple_addr, r.write_kind});
  }
}

comm::Envelope Softcore::MakeMemOp(comm::MemOp::Kind kind, sim::Addr addr) {
  comm::Header h;
  h.origin = worker_id_;
  h.txn_slot = cur_ctx_;
  comm::MemOp op;
  op.kind = kind;
  op.addr = addr;
  return comm::Envelope(h, op);
}

void Softcore::CompleteRemoteLoad(uint64_t now, const comm::Envelope& result) {
  assert(state_ == State::kMemWait && remote_mem_wait_);
  Gp(cur_ctx_, pending_inst_.rd) = result.mem_result().value;
  remote_mem_wait_ = false;
  state_ = State::kRunning;
  busy_until_ = now + 1;
}

void Softcore::Tick(uint64_t now) {
  if (now < busy_until_) return;
  switch (state_) {
    case State::kIdle: {
      // Dynamic scheduling: resuming a parked transaction whose DB result
      // arrived beats admitting new work (it frees registers sooner).
      if (phase_ == Phase::kLogic && config_.dynamic_switching &&
          TryResumeWaiter(now)) {
        return;
      }
      if (phase_ == Phase::kLogic && !batch_closed_ && TryAdmit(now)) return;
      // Parked transactions must finish their logic phase before the batch
      // can commit; wait for their CP registers to fill.
      if (config_.dynamic_switching && !AllLogicPhasesDone()) return;
      // No more admissions possible: run the commit phase if the batch has
      // members, either because registers ran out (batch_closed_) or the
      // input drained.
      if (!batch_order_.empty()) {
        phase_ = Phase::kHandlers;
        commit_cursor_ = 0;
        // Skip transactions that already finished during the logic phase
        // (aborts triggered by data-dependent RET errors).
        while (commit_cursor_ < batch_order_.size() &&
               contexts_[batch_order_[commit_cursor_]].finished) {
          ++commit_cursor_;
        }
        if (commit_cursor_ >= batch_order_.size()) {
          ResetBatch();
          ++stats_.batches;
          return;
        }
        StartSwitch(now, batch_order_[commit_cursor_], Phase::kHandlers);
      }
      return;
    }
    case State::kIngestRetry:
      if (dram_->Issue(now, pending_block_, false, &mem_resp_, 0)) {
        state_ = State::kFetchBlock;
      } else {
        fc_ingest_dram_stall_.Add();
      }
      return;
    case State::kFetchBlock:
      if (!mem_resp_.empty()) {
        mem_resp_.pop_front();
        BeginTxn(now);
      }
      return;
    case State::kRunning:
      Execute(now);
      return;
    case State::kMemWait:
      if (remote_mem_wait_) return;  // resumed via CompleteRemoteLoad
      if (!mem_resp_.empty()) {
        mem_resp_.pop_front();
        // LOAD writeback: the value is read functionally on arrival.
        uint64_t addr = Gp(cur_ctx_, pending_inst_.rs1) + pending_inst_.imm;
        Gp(cur_ctx_, pending_inst_.rd) = dram_->Read64(addr);
        state_ = State::kRunning;
        busy_until_ = now + 1;
      }
      return;
    case State::kWaitCp: {
      uint32_t idx = contexts_[cur_ctx_].cp_base + pending_inst_.rs1;
      if (cp_valid_[idx]) {
        CompleteRet(now, pending_inst_);
        state_ = State::kRunning;
      } else {
        fc_ret_wait_.Add();
      }
      return;
    }
    case State::kDispatchRetry:
      if (port_->Issue(pending_partition_, pending_op_)) {
        ++contexts_[cur_ctx_].outstanding_db;
        state_ = State::kRunning;
        busy_until_ = now + 1;
      } else {
        (ChipOfWorker(pending_partition_) != ChipOfWorker(worker_id_)
             ? fc_interchip_window_stall_
             : fc_dispatch_stall_)
            .Add();
      }
      return;
    case State::kSwitching: {
      cur_ctx_ = switch_target_;
      phase_ = switch_phase_;
      TxnContext& ctx = contexts_[cur_ctx_];
      if (phase_ == Phase::kHandlers) {
        ctx.pc = ctx.aborted ? ctx.proc->program.abort_entry()
                             : ctx.proc->program.commit_entry();
      }
      state_ = State::kRunning;
      return;
    }
    case State::kTwoPcPrepare: {
      for (TwoPcRun::Participant& p : twopc_.parts) {
        if (p.acked || p.sent) continue;
        comm::Header h;
        h.origin = worker_id_;
        h.txn_slot = cur_ctx_;
        if (!port_->Issue(p.worker,
                          comm::Envelope(h, comm::PrepareReq{twopc_.ts}))) {
          // Inter-chip send window full; retry the remaining participants
          // next cycle.
          fc_interchip_window_stall_.Add();
          return;
        }
        p.sent = true;
      }
      if (twopc_.acks == twopc_.parts.size()) {
        twopc_.decision_commit = !twopc_.vote_abort;
        EnterDecisionPhase(now);
        return;
      }
      if (now >= twopc_.deadline) {
        // Vote round trip overdue: presume a participant unreachable and
        // abort everywhere. Participants hold no locks pre-decision, so a
        // unilateral coordinator abort is always safe.
        twopc_.decision_commit = false;
        counters_.Add("twopc_prepare_timeouts");
        EnterDecisionPhase(now);
        return;
      }
      fc_twopc_prepare_wait_.Add();
      return;
    }
    case State::kTwoPcDecide: {
      for (TwoPcRun::Participant& p : twopc_.parts) {
        if (p.acked || p.sent) continue;
        comm::Header h;
        h.origin = worker_id_;
        h.txn_slot = cur_ctx_;
        comm::CommitReq req;
        req.txn_ts = twopc_.ts;
        req.commit = twopc_.decision_commit;
        req.entries = p.entries;
        if (!port_->Issue(p.worker, comm::Envelope(h, std::move(req)))) {
          fc_interchip_window_stall_.Add();
          return;
        }
        p.sent = true;
      }
      if (twopc_.acks == twopc_.parts.size()) {
        FinishTxn(now, twopc_.decision_commit);
        return;
      }
      if (now >= twopc_.next_resend) {
        // The decision must reach every participant; re-send to the
        // unacked ones (their decision record makes re-application a
        // no-op + re-ack).
        for (TwoPcRun::Participant& p : twopc_.parts) {
          if (!p.acked) p.sent = false;
        }
        counters_.Add("twopc_decision_resends");
        twopc_.next_resend = now + config_.two_pc.decision_resend_cycles;
        return;
      }
      fc_twopc_decision_wait_.Add();
      return;
    }
  }
}

bool Softcore::TryAdmit(uint64_t now) {
  if (pending_block_ != sim::kNullAddr) {
    BeginTxn(now);
    return true;
  }
  if (input_queue_.empty()) return false;
  sim::Addr block = input_queue_.front();
  input_queue_.pop_front();
  pending_block_ = block;
  // Ingest: one DRAM read of the transaction-block header (step 1 of the
  // processing flow in Fig. 2). A backpressure reject retries next cycle —
  // it must NOT close the batch.
  if (!dram_->Issue(now, block, false, &mem_resp_, 0)) {
    fc_ingest_dram_stall_.Add();
    state_ = State::kIngestRetry;
    return true;
  }
  state_ = State::kFetchBlock;
  return true;
}

void Softcore::BeginTxn(uint64_t now) {
  db::TxnBlock block(dram_, pending_block_);
  const db::ProcedureInfo* proc =
      db_->catalogue().FindProcedure(block.txn_type());
  if (proc == nullptr) {
    block.set_state(db::TxnState::kAborted);
    counters_.Add("unknown_txn_type");
    pending_block_ = sim::kNullAddr;
    state_ = State::kIdle;
    return;
  }
  const uint32_t gp_need = std::max<uint32_t>(1, proc->program.gp_regs_used());
  const uint32_t cp_need = proc->program.cp_regs_used();
  // Find a free context slot.
  uint32_t slot = UINT32_MAX;
  for (uint32_t i = 0; i < contexts_.size(); ++i) {
    if (!contexts_[i].in_use) {
      slot = i;
      break;
    }
  }
  const bool fits = slot != UINT32_MAX &&
                    gp_next_ + gp_need <= config_.n_gp_regs &&
                    cp_next_ + cp_need <= config_.n_cp_regs;
  if (!fits) {
    if (batch_order_.empty()) {
      // A single transaction larger than the whole register file can never
      // run; reject it rather than livelock.
      block.set_state(db::TxnState::kAborted);
      counters_.Add("oversized_txn_rejected");
      pending_block_ = sim::kNullAddr;
      state_ = State::kIdle;
      return;
    }
    // Close the batch; this transaction is scheduled after it commits.
    batch_closed_ = true;
    state_ = State::kIdle;
    counters_.Add("batch_closed_on_registers");
    return;
  }

  TxnContext& ctx = contexts_[slot];
  ctx = TxnContext{};
  ctx.in_use = true;
  ctx.block_base = pending_block_;
  ctx.proc = proc;
  ctx.pc = proc->program.logic_entry();
  ctx.gp_base = gp_next_;
  ctx.cp_base = cp_next_;
  // Hardware timestamp: globally ordered, unique across workers.
  ctx.ts = (now << 8) | (worker_id_ & 0xff);
  config_.cc_unit->OnTxnBegin(ctx.ts);
  gp_next_ += gp_need;
  cp_next_ += cp_need;
  batch_order_.push_back(slot);
  // Base address register: r0 holds the transaction block's data area.
  gp_[ctx.gp_base] = ctx.block_base + db::kTxnBlockHeaderSize;
  // Mark this transaction's CP registers pending-free.
  for (uint32_t i = 0; i < cp_need; ++i) cp_valid_[ctx.cp_base + i] = 1;

  pending_block_ = sim::kNullAddr;
  cur_ctx_ = slot;
  state_ = State::kRunning;
  // Catalogue fetch (BRAM) + first IFetch.
  busy_until_ = now + timing_.cpu_instruction_cycles;
  fc_txns_admitted_.Add();
}

void Softcore::CompleteRet(uint64_t now, const isa::Instruction& inst) {
  TxnContext& ctx = contexts_[cur_ctx_];
  uint32_t idx = ctx.cp_base + inst.rs1;
  uint64_t value = cp_[idx];
  Gp(cur_ctx_, inst.rd) = value;
  busy_until_ = now + timing_.cpu_instruction_cycles;
  const bool in_abort_handler = ctx.pc >= ctx.proc->program.abort_entry();
  if (isa::CpValueStatus(value) != isa::CpStatus::kOk && !in_abort_handler) {
    // Diagnostics for stored-procedure authors: BIONICDB_DEBUG_RET=1 traces
    // every error result that diverts a transaction to its abort handler.
    static const bool debug_ret = getenv("BIONICDB_DEBUG_RET") != nullptr;
    if (debug_ret) {
      fprintf(stderr,
              "[w%u] RET error: pc=%llu cp(logical)=%u status=%u block=%llx\n",
              worker_id_, (unsigned long long)ctx.pc, unsigned(inst.rs1),
              unsigned(isa::CpValueStatus(value)),
              (unsigned long long)ctx.block_base);
    }
    // Any DB-instruction failure diverts control to the abort handler.
    ctx.aborted = true;
    ctx.pc = ctx.proc->program.abort_entry();
    counters_.Add("ret_error_to_abort");
  } else {
    ++ctx.pc;
  }
}

void Softcore::Execute(uint64_t now) {
  TxnContext& ctx = contexts_[cur_ctx_];
  const isa::Instruction& inst = ctx.proc->program.at(ctx.pc);
  ++stats_.instructions;
  const uint64_t cost = timing_.cpu_instruction_cycles;

  if (isa::IsDbOpcode(inst.opcode)) {
    ExecuteDb(now, inst);
    return;
  }

  using isa::Opcode;
  switch (inst.opcode) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv: {
      int64_t a = int64_t(Gp(cur_ctx_, inst.rs1));
      int64_t b = inst.use_imm ? inst.imm : int64_t(Gp(cur_ctx_, inst.rs2));
      int64_t r = 0;
      switch (inst.opcode) {
        case Opcode::kAdd: r = a + b; break;
        case Opcode::kSub: r = a - b; break;
        case Opcode::kMul: r = a * b; break;
        case Opcode::kDiv: r = b == 0 ? 0 : a / b; break;
        default: break;
      }
      Gp(cur_ctx_, inst.rd) = uint64_t(r);
      ++ctx.pc;
      busy_until_ = now + cost;
      return;
    }
    case Opcode::kMov:
      Gp(cur_ctx_, inst.rd) =
          inst.use_imm ? uint64_t(inst.imm) : Gp(cur_ctx_, inst.rs1);
      ++ctx.pc;
      busy_until_ = now + cost;
      return;
    case Opcode::kCmp: {
      int64_t a = int64_t(Gp(cur_ctx_, inst.rs1));
      int64_t b = inst.use_imm ? inst.imm : int64_t(Gp(cur_ctx_, inst.rs2));
      ctx.flag_eq = a == b;
      ctx.flag_lt = a < b;
      ++ctx.pc;
      busy_until_ = now + cost;
      return;
    }
    case Opcode::kLoad: {
      uint64_t addr = Gp(cur_ctx_, inst.rs1) + inst.imm;
      pending_inst_ = inst;
      ++ctx.pc;
      if (!dram_->IsLocalTo(addr, worker_id_)) {
        // Foreign partition's arena: the fetch rides the fabric to the
        // owning worker (its lane, its timing) and the value comes back as
        // a mem_load response routed to CompleteRemoteLoad.
        port_->Issue(dram_->OwnerPartition(addr),
                     MakeMemOp(comm::MemOp::Kind::kLoad, addr));
        remote_mem_wait_ = true;
        state_ = State::kMemWait;
        busy_until_ = now + cost;
        counters_.Add("remote_loads");
        return;
      }
      if (!dram_->Issue(now, addr, false, &mem_resp_, 0)) {
        // Retry the issue next tick by staying at this instruction.
        --ctx.pc;
        fc_load_dram_stall_.Add();
        return;
      }
      state_ = State::kMemWait;
      busy_until_ = now + cost;  // IF/DE/EX overlap the DRAM access
      return;
    }
    case Opcode::kStore: {
      uint64_t addr = Gp(cur_ctx_, inst.rs2) + inst.imm;
      if (!dram_->IsLocalTo(addr, worker_id_)) {
        // Posted remote write: fire-and-forget over the fabric; the owner
        // applies it functionally and charges its own DRAM lane. Per-path
        // FIFO delivery keeps it ordered before this context's later
        // commit publication to the same partition.
        comm::Envelope env = MakeMemOp(comm::MemOp::Kind::kStore, addr);
        env.mem_op().store_value = Gp(cur_ctx_, inst.rs1);
        port_->Issue(dram_->OwnerPartition(addr), env);
        ++ctx.pc;
        busy_until_ = now + cost;
        counters_.Add("remote_stores");
        return;
      }
      dram_->Write64(addr, Gp(cur_ctx_, inst.rs1));
      // Posted write: charged to bandwidth, does not stall the core.
      dram_->Issue(now, addr, true, nullptr, 0);
      ++ctx.pc;
      busy_until_ = now + cost;
      return;
    }
    case Opcode::kJmp:
      ctx.pc = uint64_t(inst.imm);
      busy_until_ = now + cost;
      return;
    case Opcode::kBe:
    case Opcode::kBne:
    case Opcode::kBle:
    case Opcode::kBlt:
    case Opcode::kBgt:
    case Opcode::kBge: {
      bool taken = false;
      switch (inst.opcode) {
        case Opcode::kBe: taken = ctx.flag_eq; break;
        case Opcode::kBne: taken = !ctx.flag_eq; break;
        case Opcode::kBle: taken = ctx.flag_lt || ctx.flag_eq; break;
        case Opcode::kBlt: taken = ctx.flag_lt; break;
        case Opcode::kBgt: taken = !ctx.flag_lt && !ctx.flag_eq; break;
        case Opcode::kBge: taken = !ctx.flag_lt; break;
        default: break;
      }
      ctx.pc = taken ? uint64_t(inst.imm) : ctx.pc + 1;
      busy_until_ = now + cost;
      return;
    }
    case Opcode::kRet: {
      uint32_t idx = ctx.cp_base + inst.rs1;
      if (!cp_valid_[idx]) {
        if (config_.dynamic_switching && config_.interleaving &&
            phase_ == Phase::kLogic) {
          // Park this transaction at the RET and let the scheduler pick
          // other work; TryResumeWaiter re-enters here once the result
          // lands (the section 4.5 future-work extension).
          ctx.waiting_cp = true;
          ctx.wait_cp_index = idx;
          ++stats_.context_switches;
          counters_.Add("dynamic_parks");
          busy_until_ = now + timing_.context_switch_cycles;
          state_ = State::kIdle;
          return;
        }
        pending_inst_ = inst;
        state_ = State::kWaitCp;
        return;
      }
      CompleteRet(now, inst);
      return;
    }
    case Opcode::kYield: {
      ctx.logic_done = true;
      ++ctx.pc;
      if (!config_.interleaving) {
        // Serial execution: fall straight through to the commit handler.
        ctx.pc = ctx.proc->program.commit_entry();
        busy_until_ = now + cost;
        return;
      }
      // Save this context and move on without waiting for outstanding DB
      // instructions (the interleaving switch, Fig. 8).
      ++stats_.context_switches;
      busy_until_ = now + timing_.context_switch_cycles;
      state_ = State::kIdle;
      return;
    }
    case Opcode::kCommit: {
      if (ctx.outstanding_db > 0) {
        fc_commit_wait_.Add();
        return;  // all DB instructions must have returned
      }
      if (StartTwoPc(now, /*want_commit=*/true)) return;
      for (const cc::WriteSetEntry& e : ctx.write_set) {
        if (!dram_->IsLocalTo(e.tuple_addr, worker_id_)) {
          // Remote tuple: publication executes on the owning worker (it
          // applies the header update and issues the writeback on its own
          // lane).
          comm::Envelope env =
              MakeMemOp(comm::MemOp::Kind::kCommit, e.tuple_addr);
          env.mem_op().write_kind = e.kind;
          env.mem_op().commit_ts = ctx.ts;
          port_->Issue(dram_->OwnerPartition(e.tuple_addr), env);
          counters_.Add("remote_commit_publishes");
          continue;
        }
        cc::ApplyCommit(dram_, e, ctx.ts);
        dram_->Issue(now, e.tuple_addr, true, nullptr, 0);
      }
      db::TxnBlock block(dram_, ctx.block_base);
      block.set_state(db::TxnState::kCommitted);
      block.set_commit_ts(ctx.ts);
      dram_->Issue(now, ctx.block_base, true, nullptr, 0);
      busy_until_ = now + cost + ctx.write_set.size();
      // CC validation work charged in the commit stage (SGT walks its
      // adjacency set; T/O and MVCC validated inline and charge 0).
      busy_until_ += config_.cc_unit->OnCommitValidate(ctx.ts);
      FinishTxn(now, /*committed=*/true);
      return;
    }
    case Opcode::kAbort: {
      if (ctx.outstanding_db > 0) {
        fc_abort_wait_.Add();
        return;  // late results may still add write-set entries
      }
      if (StartTwoPc(now, /*want_commit=*/false)) return;
      for (const cc::WriteSetEntry& e : ctx.write_set) {
        if (!dram_->IsLocalTo(e.tuple_addr, worker_id_)) {
          comm::Envelope env =
              MakeMemOp(comm::MemOp::Kind::kAbort, e.tuple_addr);
          env.mem_op().write_kind = e.kind;
          port_->Issue(dram_->OwnerPartition(e.tuple_addr), env);
          counters_.Add("remote_abort_rollbacks");
          continue;
        }
        cc::ApplyAbort(dram_, e);
        dram_->Issue(now, e.tuple_addr, true, nullptr, 0);
      }
      db::TxnBlock block(dram_, ctx.block_base);
      block.set_state(db::TxnState::kAborted);
      dram_->Issue(now, ctx.block_base, true, nullptr, 0);
      busy_until_ = now + cost + ctx.write_set.size();
      FinishTxn(now, /*committed=*/false);
      return;
    }
    case Opcode::kNop:
      ++ctx.pc;
      busy_until_ = now + cost;
      return;
    default:
      // DB opcodes handled above; anything else is a program bug.
      assert(false && "unhandled opcode");
      ++ctx.pc;
      return;
  }
}

void Softcore::ExecuteDb(uint64_t now, const isa::Instruction& inst) {
  TxnContext& ctx = contexts_[cur_ctx_];
  const db::TableSchema* schema = db_->catalogue().FindTable(inst.table_id);
  assert(schema != nullptr);
  const sim::Addr data = ctx.block_base + db::kTxnBlockHeaderSize;

  comm::IndexOp op;
  op.op = inst.opcode;
  op.table = inst.table_id;
  op.ts = ctx.ts;
  op.key_addr = data + inst.key_offset;
  op.key_len = inst.key_len != 0 ? inst.key_len : schema->key_len;
  if (inst.opcode == isa::Opcode::kInsert) {
    op.payload_src = data + inst.aux_offset;
    op.payload_len = schema->payload_len;
  }
  if (inst.opcode == isa::Opcode::kScan) {
    op.out_buf = data + inst.aux_offset;
    op.scan_count = inst.scan_reg != isa::kNoReg
                        ? uint32_t(Gp(cur_ctx_, inst.scan_reg))
                        : inst.scan_count;
  }
  op.batch_flags = inst.batch_flags;
  comm::Header hdr;
  hdr.origin = worker_id_;
  hdr.cp_index = ctx.cp_base + inst.cp;
  hdr.txn_slot = cur_ctx_;

  uint32_t partition = worker_id_;
  if (inst.part_reg != isa::kNoReg) {
    partition = uint32_t(Gp(cur_ctx_, inst.part_reg));
  } else if (inst.partition >= 0) {
    partition = uint32_t(inst.partition);
  }
  // Replicated tables are always served locally.
  if (schema->replicated) partition = worker_id_;

  cp_valid_[hdr.cp_index] = 0;
  ++ctx.pc;
  busy_until_ = now + timing_.db_dispatch_cycles;

  // One dispatch surface for both destinations: Issue rejects a LOCAL
  // request when the coprocessor is at its in-flight cap, and a CROSS-CHIP
  // request when the worker's inter-chip send window is full; same-chip
  // fabric sends never block.
  comm::Envelope env(hdr, op);
  if (!port_->Issue(partition, env)) {
    pending_op_ = env;
    pending_partition_ = partition;
    state_ = State::kDispatchRetry;
    return;
  }
  ++ctx.outstanding_db;
  if (partition != worker_id_) counters_.Add("remote_dispatches");
}

bool Softcore::StartTwoPc(uint64_t now, bool want_commit) {
  if (config_.two_pc.workers_per_chip == 0) return false;
  TxnContext& ctx = contexts_[cur_ctx_];
  const uint32_t my_chip = ChipOfWorker(worker_id_);
  twopc_.parts.clear();
  for (const cc::WriteSetEntry& e : ctx.write_set) {
    const uint32_t owner = dram_->OwnerPartition(e.tuple_addr);
    if (ChipOfWorker(owner) == my_chip) continue;
    TwoPcRun::Participant* part = nullptr;
    for (TwoPcRun::Participant& p : twopc_.parts) {
      if (p.worker == owner) {
        part = &p;
        break;
      }
    }
    if (part == nullptr) {
      twopc_.parts.push_back(TwoPcRun::Participant{});
      part = &twopc_.parts.back();
      part->worker = db::WorkerId(owner);
    }
    part->entries.push_back(e);
  }
  if (twopc_.parts.empty()) return false;
  twopc_.ts = ctx.ts;
  twopc_.acks = 0;
  twopc_.vote_abort = false;
  counters_.Add("twopc_started");
  if (!want_commit) {
    // The coordinator already decided abort (handler divert): phase 1
    // gathers votes only to decide, so it is skipped entirely.
    twopc_.decision_commit = false;
    EnterDecisionPhase(now);
    return true;
  }
  twopc_.deadline = now + config_.two_pc.prepare_timeout_cycles;
  state_ = State::kTwoPcPrepare;
  return true;
}

void Softcore::EnterDecisionPhase(uint64_t now) {
  TxnContext& ctx = contexts_[cur_ctx_];
  const uint32_t my_chip = ChipOfWorker(worker_id_);
  const bool commit = twopc_.decision_commit;
  // Chip-local entries follow the classic publication paths; foreign-chip
  // entries travel inside the CommitReq and apply at the participant.
  uint64_t local_applies = 0;
  for (const cc::WriteSetEntry& e : ctx.write_set) {
    if (ChipOfWorker(dram_->OwnerPartition(e.tuple_addr)) != my_chip) {
      continue;
    }
    if (!dram_->IsLocalTo(e.tuple_addr, worker_id_)) {
      comm::Envelope env = MakeMemOp(
          commit ? comm::MemOp::Kind::kCommit : comm::MemOp::Kind::kAbort,
          e.tuple_addr);
      env.mem_op().write_kind = e.kind;
      if (commit) env.mem_op().commit_ts = ctx.ts;
      port_->Issue(dram_->OwnerPartition(e.tuple_addr), env);
      counters_.Add(commit ? "remote_commit_publishes"
                           : "remote_abort_rollbacks");
      continue;
    }
    if (commit) {
      cc::ApplyCommit(dram_, e, ctx.ts);
    } else {
      cc::ApplyAbort(dram_, e);
    }
    dram_->Issue(now, e.tuple_addr, true, nullptr, 0);
    ++local_applies;
  }
  db::TxnBlock block(dram_, ctx.block_base);
  block.set_state(commit ? db::TxnState::kCommitted : db::TxnState::kAborted);
  if (commit) block.set_commit_ts(ctx.ts);
  dram_->Issue(now, ctx.block_base, true, nullptr, 0);
  busy_until_ = now + timing_.cpu_instruction_cycles + local_applies;
  for (TwoPcRun::Participant& p : twopc_.parts) {
    p.sent = false;
    p.acked = false;
  }
  twopc_.acks = 0;
  twopc_.next_resend = now + config_.two_pc.decision_resend_cycles;
  state_ = State::kTwoPcDecide;
  counters_.Add(commit ? "twopc_commits" : "twopc_aborts");
}

void Softcore::HandlePrepareAck(uint64_t now, const comm::Envelope& env) {
  (void)now;
  const comm::PrepareAck& ack = env.prepare_ack();
  if (state_ != State::kTwoPcPrepare || ack.txn_ts != twopc_.ts) {
    counters_.Add("twopc_stale_acks");
    return;
  }
  for (TwoPcRun::Participant& p : twopc_.parts) {
    if (p.worker != env.hdr.src) continue;
    if (!p.acked) {
      p.acked = true;
      ++twopc_.acks;
      if (!ack.vote_commit) twopc_.vote_abort = true;
    }
    return;
  }
  counters_.Add("twopc_stale_acks");
}

void Softcore::HandleCommitAck(uint64_t now, const comm::Envelope& env) {
  (void)now;
  const comm::CommitAck& ack = env.commit_ack();
  if (state_ != State::kTwoPcDecide || ack.txn_ts != twopc_.ts) {
    counters_.Add("twopc_stale_acks");
    return;
  }
  for (TwoPcRun::Participant& p : twopc_.parts) {
    if (p.worker != env.hdr.src) continue;
    if (!p.acked) {
      p.acked = true;
      ++twopc_.acks;
    }
    return;
  }
  counters_.Add("twopc_stale_acks");
}

void Softcore::FinishTxn(uint64_t now, bool committed) {
  TxnContext& ctx = contexts_[cur_ctx_];
  config_.cc_unit->OnTxnFinish(ctx.ts, committed);
  if (committed) {
    ++stats_.committed;
  } else {
    ++stats_.aborted;
  }
  ctx.in_use = false;
  ctx.finished = true;
  ctx.write_set.clear();

  if (!config_.interleaving) {
    ResetBatch();
    state_ = State::kIdle;
    return;
  }
  if (phase_ == Phase::kHandlers) {
    AdvanceCommitPhase(now);
  } else {
    // The transaction aborted during the logic phase (a data-dependent RET
    // returned an error and the abort handler ran to completion). Treat it
    // like a YIELD: switch away and keep filling the batch. Its registers
    // stay allocated until the batch resets.
    ++stats_.context_switches;
    busy_until_ = now + timing_.context_switch_cycles;
    state_ = State::kIdle;
  }
}

void Softcore::AdvanceCommitPhase(uint64_t now) {
  ++commit_cursor_;
  while (commit_cursor_ < batch_order_.size() &&
         contexts_[batch_order_[commit_cursor_]].finished) {
    ++commit_cursor_;
  }
  if (commit_cursor_ < batch_order_.size()) {
    StartSwitch(now, batch_order_[commit_cursor_], Phase::kHandlers);
    return;
  }
  ResetBatch();
  state_ = State::kIdle;
  ++stats_.batches;
}

bool Softcore::TryResumeWaiter(uint64_t now) {
  for (uint32_t slot : batch_order_) {
    TxnContext& ctx = contexts_[slot];
    if (ctx.in_use && !ctx.finished && ctx.waiting_cp &&
        cp_valid_[ctx.wait_cp_index]) {
      ctx.waiting_cp = false;
      counters_.Add("dynamic_resumes");
      StartSwitch(now, slot, Phase::kLogic);
      return true;
    }
  }
  return false;
}

bool Softcore::AllLogicPhasesDone() const {
  for (uint32_t slot : batch_order_) {
    const TxnContext& ctx = contexts_[slot];
    if (ctx.in_use && !ctx.finished && !ctx.logic_done) return false;
  }
  return true;
}

void Softcore::ResetBatch() {
  batch_order_.clear();
  gp_next_ = 0;
  cp_next_ = 0;
  batch_closed_ = false;
  commit_cursor_ = 0;
  phase_ = Phase::kLogic;
}

void Softcore::StartSwitch(uint64_t now, uint32_t next_ctx, Phase phase) {
  switch_target_ = next_ctx;
  switch_phase_ = phase;
  state_ = State::kSwitching;
  busy_until_ = now + timing_.context_switch_cycles;
  ++stats_.context_switches;
}

bool Softcore::AnyResumableWaiter() const {
  for (uint32_t slot : batch_order_) {
    const TxnContext& ctx = contexts_[slot];
    if (ctx.in_use && !ctx.finished && ctx.waiting_cp &&
        cp_valid_[ctx.wait_cp_index]) {
      return true;
    }
  }
  return false;
}

uint64_t Softcore::NextWakeCycle(uint64_t now) const {
  // Tick is a pure no-op while the fixed-cost execution timer runs.
  if (busy_until_ > now + 1) return busy_until_;
  switch (state_) {
    case State::kIdle:
      // The commit phase never rests in kIdle; defensive next-cycle wake.
      if (phase_ != Phase::kLogic) return now + 1;
      if (config_.dynamic_switching && AnyResumableWaiter()) return now + 1;
      if (!batch_closed_ &&
          (pending_block_ != sim::kNullAddr || !input_queue_.empty())) {
        return now + 1;  // TryAdmit acts
      }
      if (config_.dynamic_switching && !AllLogicPhasesDone()) {
        // Parked transactions wake when a routed result fills their CP
        // register — the worker reports that wake point.
        return sim::kNeverWakes;
      }
      // Batch members left => the commit phase starts next tick; truly
      // empty => quiescent until the worker submits a block.
      return batch_order_.empty() ? sim::kNeverWakes : now + 1;
    case State::kIngestRetry:   // retries Issue (bumps DRAM reject counters)
    case State::kDispatchRetry: // retries the submit (see worker's hint)
    case State::kSwitching:     // timer already handled above
      return now + 1;
    case State::kFetchBlock:
    case State::kMemWait:
      return mem_resp_.empty() ? sim::kNeverWakes : now + 1;
    case State::kRunning: {
      const TxnContext& ctx = contexts_[cur_ctx_];
      const isa::Instruction& inst = ctx.proc->program.at(ctx.pc);
      if ((inst.opcode == isa::Opcode::kCommit ||
           inst.opcode == isa::Opcode::kAbort) &&
          ctx.outstanding_db > 0) {
        // Draining outstanding DB results: per-cycle spin bulk-applied in
        // SkipCycles; results arrive through worker wake points.
        return sim::kNeverWakes;
      }
      return now + 1;
    }
    case State::kWaitCp:
      return cp_valid_[contexts_[cur_ctx_].cp_base + pending_inst_.rs1]
                 ? now + 1
                 : sim::kNeverWakes;
    case State::kTwoPcPrepare: {
      for (const TwoPcRun::Participant& p : twopc_.parts) {
        if (!p.acked && !p.sent) return now + 1;  // send loop acts
      }
      if (twopc_.acks == twopc_.parts.size()) return now + 1;
      // Acks wake through the worker's fabric delivery; the only
      // self-scheduled event is the vote timeout.
      return twopc_.deadline;
    }
    case State::kTwoPcDecide: {
      for (const TwoPcRun::Participant& p : twopc_.parts) {
        if (!p.acked && !p.sent) return now + 1;
      }
      if (twopc_.acks == twopc_.parts.size()) return now + 1;
      return twopc_.next_resend;
    }
  }
  return now + 1;
}

void Softcore::SkipCycles(uint64_t now, uint64_t count) {
  if (busy_until_ > now + 1) return;  // timer cycles have no accounting
  if (state_ == State::kWaitCp) {
    fc_ret_wait_.Add(count);
    return;
  }
  if (state_ == State::kTwoPcPrepare) {
    // Only the all-sent ack wait is ever skipped (unsent participants pin
    // the wake to now + 1); mirrors the per-tick wait counter exactly.
    fc_twopc_prepare_wait_.Add(count);
    return;
  }
  if (state_ == State::kTwoPcDecide) {
    fc_twopc_decision_wait_.Add(count);
    return;
  }
  if (state_ == State::kDispatchRetry) {
    // Only a local retry against a full coprocessor is ever skipped (the
    // worker's hint); each of its cycles is one failed submit.
    fc_dispatch_stall_.Add(count);
    return;
  }
  if (state_ == State::kRunning) {
    // Only the COMMIT/ABORT result-drain spin is ever skipped in
    // kRunning; each spin cycle executes the instruction fetch (one
    // instruction retired per Execute call) plus the wait counter.
    const TxnContext& ctx = contexts_[cur_ctx_];
    const isa::Instruction& inst = ctx.proc->program.at(ctx.pc);
    stats_.instructions += count;
    (inst.opcode == isa::Opcode::kCommit ? fc_commit_wait_
                                                  : fc_abort_wait_)
        .Add(
                  count);
  }
}

void Softcore::CollectStats(StatsScope scope) const {
  scope.SetCounter("committed", stats_.committed);
  scope.SetCounter("aborted", stats_.aborted);
  scope.SetCounter("batches", stats_.batches);
  scope.SetCounter("context_switches", stats_.context_switches);
  scope.SetCounter("instructions", stats_.instructions);
  scope.MergeCounterSet(counters_);
}

}  // namespace bionicdb::core
