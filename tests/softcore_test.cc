// Softcore behaviour tests: ISA execution through the whole engine,
// transaction grouping / batch closure, serial vs interleaved modes,
// data-dependent RETs, the UNDO-log abort path, and remote write-sets.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "host/driver.h"
#include "db/tuple.h"
#include "isa/assembler.h"
#include "isa/program.h"

namespace bionicdb {
namespace {

using core::BionicDb;
using core::EngineOptions;
using isa::ProgramBuilder;

db::TableSchema KvSchema(uint32_t payload_len = 8) {
  db::TableSchema s;
  s.id = 0;
  s.key_len = 8;
  s.payload_len = payload_len;
  s.hash_buckets = 256;
  return s;
}

TEST(SoftcoreIsa, LoopArithmeticAndStores) {
  // sum = 1 + 2 + ... + 10, computed with CMP/BLT, stored into the block.
  const char* source = R"(
    .logic
      MOV r1, #0      ; sum
      MOV r2, #1      ; i
    loop:
      ADD r1, r1, r2
      ADD r2, r2, #1
      CMP r2, #10
      BLE loop
      STORE r1, [r0 + 8]
      SEARCH t0, key=0, cp=0
      YIELD
    .commit
      RET r3, cp0
      COMMIT
    .abort
      ABORT
  )";
  EngineOptions opts;
  opts.n_workers = 1;
  BionicDb engine(opts);
  ASSERT_TRUE(engine.database().CreateTable(KvSchema()).ok());
  uint64_t payload = 1;
  ASSERT_TRUE(engine.database().LoadU64(0, 0, 5, &payload, 8).ok());
  auto program = isa::Assemble(source);
  ASSERT_TRUE(program.ok()) << program.status();
  ASSERT_TRUE(engine.RegisterProcedure(1, program.value(), 64).ok());

  auto block = engine.AllocateBlock(1);
  block.WriteKeyU64(0, 5);
  engine.Submit(0, block.base());
  engine.Drain();
  EXPECT_EQ(engine.TotalCommitted(), 1u);
  EXPECT_EQ(block.ReadU64(8), 55u);
}

TEST(SoftcoreIsa, MulDivMovRegister) {
  const char* source = R"(
    .logic
      MOV r1, #6
      MUL r2, r1, #7      ; 42
      DIV r3, r2, #5      ; 8
      MOV r4, r3
      STORE r2, [r0 + 0]
      STORE r4, [r0 + 8]
      YIELD
    .commit
      COMMIT
    .abort
      ABORT
  )";
  EngineOptions opts;
  opts.n_workers = 1;
  BionicDb engine(opts);
  ASSERT_TRUE(engine.database().CreateTable(KvSchema()).ok());
  auto program = isa::Assemble(source);
  ASSERT_TRUE(program.ok()) << program.status();
  ASSERT_TRUE(engine.RegisterProcedure(1, program.value(), 64).ok());
  auto block = engine.AllocateBlock(1);
  engine.Submit(0, block.base());
  engine.Drain();
  EXPECT_EQ(block.ReadU64(0), 42u);
  EXPECT_EQ(block.ReadU64(8), 8u);
}

// A program consuming 64 CP registers: a 256-register file fits at most 4
// per batch, forcing batch closure on register exhaustion (section 4.5).
TEST(SoftcoreBatching, ClosesBatchOnRegisterExhaustion) {
  ProgramBuilder b;
  b.Logic();
  for (uint32_t i = 0; i < 64; ++i) {
    b.Search({.table_id = 0, .cp = isa::Reg(i), .key_offset = 0});
  }
  b.Yield();
  b.Commit();
  for (uint32_t i = 0; i < 64; ++i) b.Ret(1, isa::Reg(i));
  b.CommitTxn();
  b.Abort().AbortTxn();
  auto program = b.Build();
  ASSERT_TRUE(program.ok());

  EngineOptions opts;
  opts.n_workers = 1;
  BionicDb engine(opts);
  ASSERT_TRUE(engine.database().CreateTable(KvSchema()).ok());
  uint64_t payload = 1;
  ASSERT_TRUE(engine.database().LoadU64(0, 0, 9, &payload, 8).ok());
  ASSERT_TRUE(engine.RegisterProcedure(1, program.value(), 64).ok());
  for (int i = 0; i < 12; ++i) {
    auto block = engine.AllocateBlock(1);
    block.WriteKeyU64(0, 9);
    engine.Submit(0, block.base());
  }
  engine.Drain();
  EXPECT_EQ(engine.TotalCommitted(), 12u);
  // 12 txns, 4 per batch -> at least 3 batches.
  EXPECT_GE(engine.worker(0).stats().batches, 3u);
  EXPECT_GT(engine.worker(0)
                .softcore()
                .counters()
                .Get("batch_closed_on_registers"),
            0u);
}

TEST(SoftcoreBatching, OversizedTransactionRejectedNotLivelocked) {
  ProgramBuilder b;
  b.Logic();
  // needs 300 CP registers > 256.
  for (uint32_t i = 0; i < 150; ++i) {
    b.Search({.table_id = 0, .cp = isa::Reg(i % 250), .key_offset = 0});
  }
  b.Yield();
  b.Commit().CommitTxn();
  b.Abort().AbortTxn();
  auto program = b.Build();
  ASSERT_TRUE(program.ok());

  EngineOptions opts;
  opts.n_workers = 1;
  opts.softcore.n_cp_regs = 128;  // smaller than the program needs
  BionicDb engine(opts);
  ASSERT_TRUE(engine.database().CreateTable(KvSchema()).ok());
  ASSERT_TRUE(engine.RegisterProcedure(1, program.value(), 64).ok());
  auto block = engine.AllocateBlock(1);
  engine.Submit(0, block.base());
  ASSERT_TRUE(engine.simulator().RunUntilIdle(1'000'000));
  EXPECT_EQ(block.state(), db::TxnState::kAborted);
  EXPECT_EQ(engine.worker(0).softcore().counters().Get(
                "oversized_txn_rejected"),
            1u);
}

TEST(SoftcoreModes, SerialModeCommitsEverything) {
  EngineOptions opts;
  opts.n_workers = 1;
  opts.softcore.interleaving = false;
  BionicDb engine(opts);
  ASSERT_TRUE(engine.database().CreateTable(KvSchema()).ok());
  uint64_t payload = 3;
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(engine.database().LoadU64(0, 0, k, &payload, 8).ok());
  }
  ProgramBuilder b;
  b.Logic().Search({.table_id = 0, .cp = 0, .key_offset = 0}).Yield();
  b.Commit().Ret(1, 0).CommitTxn();
  b.Abort().AbortTxn();
  ASSERT_TRUE(engine.RegisterProcedure(1, b.Build().value(), 64).ok());
  for (uint64_t k = 0; k < 50; ++k) {
    auto block = engine.AllocateBlock(1);
    block.WriteKeyU64(0, k % 50);
    engine.Submit(0, block.base());
  }
  engine.Drain();
  EXPECT_EQ(engine.TotalCommitted(), 50u);
  // Serial execution never switches contexts.
  EXPECT_EQ(engine.worker(0).stats().context_switches, 0u);
}

// A data-dependent transaction: the logic phase RETs the search result and
// copies the tuple's value into the block (the pattern that serialises
// TPC-C, section 5.6).
TEST(SoftcoreDataDependency, RetInsideLogicPhase) {
  const char* source = R"(
    .logic
      SEARCH t0, key=0, cp=0
      RET  r1, cp0          ; blocks until the payload address returns
      LOAD r2, [r1 + 0]
      STORE r2, [r0 + 8]    ; copy tuple value into the block
      YIELD
    .commit
      COMMIT
    .abort
      ABORT
  )";
  EngineOptions opts;
  opts.n_workers = 1;
  BionicDb engine(opts);
  ASSERT_TRUE(engine.database().CreateTable(KvSchema()).ok());
  uint64_t payload = 777;
  ASSERT_TRUE(engine.database().LoadU64(0, 0, 1, &payload, 8).ok());
  auto program = isa::Assemble(source);
  ASSERT_TRUE(program.ok()) << program.status();
  ASSERT_TRUE(engine.RegisterProcedure(1, program.value(), 64).ok());
  auto block = engine.AllocateBlock(1);
  block.WriteKeyU64(0, 1);
  engine.Submit(0, block.base());
  engine.Drain();
  EXPECT_EQ(engine.TotalCommitted(), 1u);
  EXPECT_EQ(block.ReadU64(8), 777u);
}

// Full UNDO-log round trip: update tuple A in place, then hit an error on a
// missing key; the abort handler must restore A's original payload before
// the hardware rolls back the dirty marks.
TEST(SoftcoreAbort, UndoRestoreOnAbort) {
  const char* source = R"(
    ; block: 0 key A, 8 key B (missing), 16 undo slot
    .logic
      UPDATE t0, key=0, cp=0
      RET   r1, cp0          ; A's payload address
      LOAD  r2, [r1 + 0]
      STORE r2, [r0 + 16]    ; UNDO backup
      MOV   r3, #999
      STORE r3, [r1 + 0]     ; in-place update (premature, on purpose)
      SEARCH t0, key=8, cp=1
      YIELD
    .commit
      RET r4, cp1            ; NotFound -> jump to abort handler
      COMMIT
    .abort
      LOAD  r2, [r0 + 16]
      STORE r2, [r1 + 0]     ; restore A from the UNDO log
      ABORT
  )";
  EngineOptions opts;
  opts.n_workers = 1;
  BionicDb engine(opts);
  ASSERT_TRUE(engine.database().CreateTable(KvSchema()).ok());
  uint64_t payload = 123;
  ASSERT_TRUE(engine.database().LoadU64(0, 0, 7, &payload, 8).ok());
  auto program = isa::Assemble(source);
  ASSERT_TRUE(program.ok()) << program.status();
  ASSERT_TRUE(engine.RegisterProcedure(1, program.value(), 64).ok());
  auto block = engine.AllocateBlock(1);
  block.WriteKeyU64(0, 7);
  block.WriteKeyU64(8, 999999);  // no such key
  engine.Submit(0, block.base());
  engine.Drain();
  EXPECT_EQ(engine.TotalAborted(), 1u);

  db::TupleAccessor t(engine.database().dram(),
                      engine.database().FindU64(0, 0, 7));
  EXPECT_FALSE(t.dirty());  // rollback cleared the mark
  uint64_t value;
  engine.database().dram()->ReadBytes(t.payload_addr(), &value, 8);
  EXPECT_EQ(value, 123u);  // original restored
}

// Remote write: worker 0 updates a tuple living in partition 1. The result
// travels back over the response channel, the write-set entry lands at the
// initiator, and COMMIT publishes the remote tuple.
TEST(SoftcoreRemote, RemoteUpdateCommitsAcrossPartitions) {
  const char* source = R"(
    ; block: 0 key, 8 target partition, 16 new value
    .logic
      LOAD r1, [r0 + 8]
      UPDATE t0, key=0, cp=0, part=r1
      RET  r2, cp0
      LOAD r3, [r0 + 16]
      STORE r3, [r2 + 0]
      YIELD
    .commit
      COMMIT
    .abort
      ABORT
  )";
  EngineOptions opts;
  opts.n_workers = 2;
  BionicDb engine(opts);
  ASSERT_TRUE(engine.database().CreateTable(KvSchema()).ok());
  uint64_t payload = 50;
  ASSERT_TRUE(engine.database().LoadU64(0, 1, 4, &payload, 8).ok());
  auto program = isa::Assemble(source);
  ASSERT_TRUE(program.ok()) << program.status();
  ASSERT_TRUE(engine.RegisterProcedure(1, program.value(), 64).ok());

  auto block = engine.AllocateBlock(1);
  block.WriteKeyU64(0, 4);
  block.WriteU64(8, 1);  // remote partition
  block.WriteU64(16, 555);
  engine.Submit(0, block.base());  // initiated by worker 0
  engine.Drain();
  EXPECT_EQ(engine.TotalCommitted(), 1u);
  // Partitioned memory makes the remote tuple's arena foreign to worker 0:
  // UPDATE request + response, the STORE shipped to the owning partition,
  // and COMMIT publishing the remote write-set entry.
  EXPECT_EQ(engine.fabric().messages_sent(), 4u);

  db::TupleAccessor t(engine.database().dram(),
                      engine.database().FindU64(0, 1, 4));
  EXPECT_FALSE(t.dirty());
  uint64_t value;
  engine.database().dram()->ReadBytes(t.payload_addr(), &value, 8);
  EXPECT_EQ(value, 555u);
}

TEST(SoftcoreTiming, InterleavingOverlapsIndexLatency) {
  // 16 single-access transactions: interleaved execution must be
  // substantially faster than serial (Fig. 12a's 1-access point, ~3x).
  auto build = [](bool interleaving) {
    EngineOptions opts;
    opts.n_workers = 1;
    opts.softcore.interleaving = interleaving;
    return opts;
  };
  uint64_t cycles[2];
  for (int mode = 0; mode < 2; ++mode) {
    BionicDb engine(build(mode == 0));
    EXPECT_TRUE(engine.database().CreateTable(KvSchema()).ok());
    uint64_t payload = 0;
    for (uint64_t k = 0; k < 64; ++k) {
      ASSERT_TRUE(engine.database().LoadU64(0, 0, k, &payload, 8).ok());
    }
    ProgramBuilder b;
    b.Logic().Search({.table_id = 0, .cp = 0, .key_offset = 0}).Yield();
    b.Commit().Ret(1, 0).CommitTxn();
    b.Abort().AbortTxn();
    ASSERT_TRUE(engine.RegisterProcedure(1, b.Build().value(), 64).ok());
    for (uint64_t k = 0; k < 64; ++k) {
      auto block = engine.AllocateBlock(1);
      block.WriteKeyU64(0, k);
      engine.Submit(0, block.base());
    }
    cycles[mode] = engine.Drain();
    EXPECT_EQ(engine.TotalCommitted(), 64u);
  }
  // Interleaved (mode 0) must beat serial (mode 1) by at least 2x.
  EXPECT_LT(cycles[0] * 2, cycles[1]);
}


// Dynamic scheduling (section 4.5 future work): a RET blocking mid-logic
// parks the transaction instead of stalling the softcore, so dependent
// transactions overlap. Must produce identical results and win cycles.
TEST(SoftcoreDynamic, ParkingPreservesResultsAndSavesCycles) {
  const char* source = R"(
    .logic
      SEARCH t0, key=0, cp=0
      RET  r1, cp0          ; mid-logic data dependency
      LOAD r2, [r1 + 0]
      STORE r2, [r0 + 8]
      YIELD
    .commit
      COMMIT
    .abort
      ABORT
  )";
  uint64_t cycles[2];
  for (int dynamic = 0; dynamic < 2; ++dynamic) {
    EngineOptions opts;
    opts.n_workers = 1;
    opts.softcore.dynamic_switching = dynamic == 1;
    BionicDb engine(opts);
    ASSERT_TRUE(engine.database().CreateTable(KvSchema()).ok());
    for (uint64_t k = 0; k < 32; ++k) {
      uint64_t payload = 1000 + k;
      ASSERT_TRUE(engine.database().LoadU64(0, 0, k, &payload, 8).ok());
    }
    auto program = isa::Assemble(source);
    ASSERT_TRUE(program.ok());
    ASSERT_TRUE(engine.RegisterProcedure(1, program.value(), 64).ok());
    std::vector<db::TxnBlock> blocks;
    for (uint64_t k = 0; k < 32; ++k) {
      auto block = engine.AllocateBlock(1);
      block.WriteKeyU64(0, k);
      engine.Submit(0, block.base());
      blocks.push_back(block);
    }
    cycles[dynamic] = engine.Drain();
    EXPECT_EQ(engine.TotalCommitted(), 32u);
    for (uint64_t k = 0; k < 32; ++k) {
      EXPECT_EQ(blocks[k].ReadU64(8), 1000 + k) << k;
    }
    if (dynamic == 1) {
      EXPECT_GT(engine.worker(0).softcore().counters().Get("dynamic_parks"),
                0u);
    }
  }
  // Dynamic scheduling must overlap the dependent RET stalls.
  EXPECT_LT(cycles[1], cycles[0]);
}


// Wait-on-dirty CC extension: conflicting batchmates ride out each other's
// dirty windows instead of aborting — all commit with zero retries.
TEST(SoftcoreCcPolicy, WaitOnDirtyAvoidsRetries) {
  const char* source = R"(
    .logic
      UPDATE t0, key=0, cp=0
      YIELD
    .commit
      RET   r1, cp0
      LOAD  r2, [r1 + 0]
      ADD   r2, r2, #1
      STORE r2, [r1 + 0]
      COMMIT
    .abort
      ABORT
  )";
  // Memory-latency reordering can invert the dirty-ing order of
  // batchmates, creating a commit-order wait cycle that only the timeout
  // breaks — so waiting cannot eliminate every retry, but it must reduce
  // them, and correctness must hold in both policies.
  uint64_t retries[2];
  for (int i = 0; i < 2; ++i) {
    uint32_t wait = i == 0 ? 0u : 50'000u;
    EngineOptions opts;
    opts.n_workers = 1;
    opts.dirty_wait_cycles = wait;
    BionicDb engine(opts);
    ASSERT_TRUE(engine.database().CreateTable(KvSchema()).ok());
    uint64_t payload = 0;
    ASSERT_TRUE(engine.database().LoadU64(0, 0, 1, &payload, 8).ok());
    auto program = isa::Assemble(source);
    ASSERT_TRUE(program.ok());
    ASSERT_TRUE(engine.RegisterProcedure(1, program.value(), 64).ok());
    host::TxnList txns;
    for (int t = 0; t < 6; ++t) {
      auto block = engine.AllocateBlock(1);
      block.WriteKeyU64(0, 1);
      txns.emplace_back(0, block.base());
    }
    auto result = host::RunToCompletion(&engine, txns);
    EXPECT_EQ(result.committed, 6u);
    retries[i] = result.retries;
    // Either way the counter ends up correct.
    db::TupleAccessor t(engine.database().dram(),
                        engine.database().FindU64(0, 0, 1));
    uint64_t value;
    engine.database().dram()->ReadBytes(t.payload_addr(), &value, 8);
    EXPECT_EQ(value, 6u);
  }
  EXPECT_GT(retries[0], 0u) << "blind reject must retry";
  EXPECT_LT(retries[1], retries[0]) << "waiting must reduce retries";
}

}  // namespace
}  // namespace bionicdb
