#include "workload/smallbank.h"

#include <algorithm>

#include "db/tuple.h"
#include "isa/program.h"

namespace bionicdb::workload {

namespace {

using isa::ProgramBuilder;

// All five procedures follow the repo-wide commit discipline: every RET
// before any in-place Store, so a rejected access aborts the transaction
// with nothing to restore (the UNDO backups written by the update profiles
// are for durability realism, not for abort recovery).

// Block layout: [0] account key; [8] result (savings + checking).
isa::Program BalanceProgram() {
  ProgramBuilder b;
  b.Logic()
      .Search({.table_id = SmallBank::kSavings, .cp = 0, .key_offset = 0})
      .Search({.table_id = SmallBank::kChecking, .cp = 1, .key_offset = 0})
      .Yield();
  b.Commit()
      .Ret(2, 0)
      .Ret(3, 1)
      .Load(4, 2, 0)   // savings balance
      .Load(5, 3, 0)   // checking balance
      .Add(4, 4, 5)
      .Store(4, 0, 8)  // result slot
      .CommitTxn();
  b.Abort().AbortTxn();
  return b.Build().value();
}

// Block layout: [0] account key; [8] delta; [16] UNDO of the old balance.
isa::Program DepositProgram(db::TableId table) {
  ProgramBuilder b;
  b.Logic().Update({.table_id = table, .cp = 0, .key_offset = 0}).Yield();
  b.Commit()
      .Ret(2, 0)
      .Load(1, 2, 0)    // old balance
      .Store(1, 0, 16)  // UNDO backup
      .Load(3, 0, 8)    // delta
      .Add(1, 1, 3)
      .Store(1, 2, 0)   // in-place update
      .CommitTxn();
  b.Abort().AbortTxn();
  return b.Build().value();
}

// Block layout: [0] source account key; [8] destination account key (both
// local to the submitting partition, distinct). Moves savings(src) +
// checking(src) into checking(dst) and zeroes the source — net delta 0.
isa::Program AmalgamateProgram() {
  ProgramBuilder b;
  b.Logic()
      .Update({.table_id = SmallBank::kSavings, .cp = 0, .key_offset = 0})
      .Update({.table_id = SmallBank::kChecking, .cp = 1, .key_offset = 0})
      .Update({.table_id = SmallBank::kChecking, .cp = 2, .key_offset = 8})
      .Yield();
  b.Commit()
      .Ret(2, 0)
      .Ret(3, 1)
      .Ret(4, 2)
      .Load(1, 2, 0)   // src savings
      .Load(5, 3, 0)   // src checking
      .Add(1, 1, 5)    // src total
      .Load(5, 4, 0)   // dst checking
      .Add(5, 5, 1)
      .Store(5, 4, 0)  // dst checking += src total
      .Sub(1, 1, 1)    // zero
      .Store(1, 2, 0)  // src savings = 0
      .Store(1, 3, 0)  // src checking = 0
      .CommitTxn();
  b.Abort().AbortTxn();
  return b.Build().value();
}

// Block layout: [0] account key; [8] amount. Reads savings (the "balance
// check" leg), then checking -= amount. The reference workload writes an
// overdraft penalty when savings + checking < amount; the softcore ISA has
// no conditional branch, so this port always debits the plain amount —
// a documented simplification that keeps CommittedDelta exact.
isa::Program WriteCheckProgram() {
  ProgramBuilder b;
  b.Logic()
      .Search({.table_id = SmallBank::kSavings, .cp = 0, .key_offset = 0})
      .Update({.table_id = SmallBank::kChecking, .cp = 1, .key_offset = 0})
      .Yield();
  b.Commit()
      .Ret(2, 0)
      .Ret(3, 1)
      .Load(1, 2, 0)   // savings (balance-check read)
      .Load(4, 3, 0)   // checking
      .Add(1, 1, 4)    // total (realism: the check the reference makes)
      .Load(5, 0, 8)   // amount
      .Sub(4, 4, 5)
      .Store(4, 3, 0)  // checking -= amount
      .CommitTxn();
  b.Abort().AbortTxn();
  return b.Build().value();
}

}  // namespace

SmallBank::SmallBank(core::BionicDb* engine, const SmallBankOptions& options)
    : engine_(engine), options_(options) {}

Status SmallBank::Setup() {
  for (db::TableId table : {kSavings, kChecking}) {
    db::TableSchema schema;
    schema.id = table;
    schema.name = table == kSavings ? "savings" : "checking";
    schema.key_len = 8;
    schema.payload_len = 8;
    schema.index = db::IndexKind::kHash;
    schema.hash_buckets =
        db::HashBucketsFor(uint64_t(options_.accounts_per_partition) * 4);
    BIONICDB_RETURN_IF_ERROR(engine_->database().CreateTable(schema));
  }

  BIONICDB_RETURN_IF_ERROR(
      engine_->RegisterProcedure(kBalance, BalanceProgram(), 16));
  BIONICDB_RETURN_IF_ERROR(engine_->RegisterProcedure(
      kDepositChecking, DepositProgram(kChecking), 24));
  BIONICDB_RETURN_IF_ERROR(engine_->RegisterProcedure(
      kTransactSavings, DepositProgram(kSavings), 24));
  BIONICDB_RETURN_IF_ERROR(
      engine_->RegisterProcedure(kAmalgamate, AmalgamateProgram(), 16));
  BIONICDB_RETURN_IF_ERROR(
      engine_->RegisterProcedure(kWriteCheck, WriteCheckProgram(), 16));

  // Bulk load: partition p owns accounts [p*N, (p+1)*N) in both tables.
  const uint64_t n = options_.accounts_per_partition;
  const uint64_t balance = options_.initial_balance;
  db::Database& database = engine_->database();
  BIONICDB_RETURN_IF_ERROR(database.Populate([&](db::PartitionId p) {
    for (uint64_t a = 0; a < n; ++a) {
      for (db::TableId table : {kSavings, kChecking}) {
        BIONICDB_RETURN_IF_ERROR(
            database.LoadU64(table, p, p * n + a, &balance, 8));
      }
    }
    return Status::Ok();
  }));
  initial_total_ = uint64_t(database.n_partitions()) * n * balance * 2;
  return Status::Ok();
}

uint64_t SmallBank::RandomAccount(Rng* rng, db::WorkerId worker) {
  const uint64_t n = options_.accounts_per_partition;
  uint64_t span = n;
  if (options_.hotspot_accounts > 0 && options_.hotspot_fraction > 0.0 &&
      rng->NextBool(options_.hotspot_fraction)) {
    span = std::min<uint64_t>(options_.hotspot_accounts, n);
  }
  return uint64_t(worker) * n + rng->NextUint64(span);
}

sim::Addr SmallBank::MakeTxn(Rng* rng, db::WorkerId worker) {
  const uint32_t total = options_.mix_balance + options_.mix_deposit +
                         options_.mix_transact + options_.mix_amalgamate +
                         options_.mix_write_check;
  uint64_t pick = rng->NextUint64(total > 0 ? total : 1);
  db::TxnTypeId type = kBalance;
  if (pick < options_.mix_balance) {
    type = kBalance;
  } else if ((pick -= options_.mix_balance) < options_.mix_deposit) {
    type = kDepositChecking;
  } else if ((pick -= options_.mix_deposit) < options_.mix_transact) {
    type = kTransactSavings;
  } else if ((pick -= options_.mix_transact) < options_.mix_amalgamate) {
    type = kAmalgamate;
  } else {
    type = kWriteCheck;
  }

  db::TxnBlock block = engine_->AllocateBlock(type);
  const uint64_t key = RandomAccount(rng, worker);
  block.WriteKeyU64(0, key);
  switch (type) {
    case kBalance:
      break;
    case kDepositChecking:
    case kTransactSavings:
      block.WriteU64(8, 1 + rng->NextUint64(100));  // delta
      break;
    case kAmalgamate: {
      // Distinct destination in the same partition: re-touching a tuple a
      // transaction already dirtied is blindly rejected (section 4.7),
      // which would make the block unretryable.
      uint64_t dst = key;
      while (dst == key) dst = RandomAccount(rng, worker);
      block.WriteKeyU64(8, dst);
      break;
    }
    case kWriteCheck:
      block.WriteU64(8, 1 + rng->NextUint64(50));  // amount
      break;
    default:
      break;
  }
  return block.base();
}

std::function<sim::Addr(db::WorkerId)> SmallBank::Factory(Rng* rng) {
  return [this, rng](db::WorkerId w) { return MakeTxn(rng, w); };
}

uint64_t SmallBank::TotalAssets() const {
  sim::DramMemory& dram = engine_->simulator().dram();
  const uint64_t n = options_.accounts_per_partition;
  uint64_t sum = 0;
  for (uint32_t p = 0; p < engine_->database().n_partitions(); ++p) {
    for (uint64_t a = 0; a < n; ++a) {
      for (db::TableId table : {kSavings, kChecking}) {
        sim::Addr addr = engine_->database().FindU64(table, p, p * n + a);
        if (addr == sim::kNullAddr) continue;
        db::TupleAccessor t(&dram, addr);
        sum += dram.Read64(t.payload_addr());
      }
    }
  }
  return sum;
}

int64_t SmallBank::CommittedDelta(sim::Addr block_addr) const {
  db::TxnBlock block(&engine_->simulator().dram(), block_addr);
  switch (block.txn_type()) {
    case kDepositChecking:
    case kTransactSavings:
      return int64_t(block.ReadU64(8));
    case kWriteCheck:
      return -int64_t(block.ReadU64(8));
    default:
      return 0;  // Balance and Amalgamate conserve the money supply.
  }
}

bool SmallBank::VerifyConservation(
    const std::vector<std::pair<db::WorkerId, sim::Addr>>& txns) const {
  sim::DramMemory& dram = engine_->simulator().dram();
  uint64_t delta = 0;  // modular arithmetic: balances wrap like the hardware
  for (const auto& [worker, addr] : txns) {
    (void)worker;
    db::TxnBlock block(&dram, addr);
    if (block.state() == db::TxnState::kCommitted) {
      delta += uint64_t(CommittedDelta(addr));
    }
  }
  return TotalAssets() == initial_total_ + delta;
}

}  // namespace bionicdb::workload
