// Property-based (parameterized) test sweeps.
//
// Each suite states an invariant of the system and checks it across a grid
// of configurations — worker counts, execution modes, timing parameters,
// hazard pressure, seeds. TEST_P/INSTANTIATE_TEST_SUITE_P per the project
// testing conventions.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "cc/cc_unit.h"
#include "common/random.h"
#include "db/tuple.h"
#include "host/driver.h"
#include "index/coprocessor.h"
#include "log/command_log.h"
#include "sim/simulator.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

// ---------------------------------------------------------------------------
// Invariant 1: with hazard prevention on, EVERY pipelined insert survives,
// across bucket pressure, op counts and pipeline pool sizes (Fig. 6's bug
// can never occur).
// ---------------------------------------------------------------------------

using HazardParams = std::tuple<uint32_t /*buckets*/, uint32_t /*ops*/,
                                uint32_t /*pool*/>;

class HashInsertSurvival : public ::testing::TestWithParam<HazardParams> {};

TEST_P(HashInsertSurvival, AllInsertsSurvive) {
  auto [buckets, n_ops, pool] = GetParam();
  sim::Simulator sim(sim::TimingConfig{});
  db::Database database(&sim.dram(), 1);
  db::TableSchema schema;
  schema.id = 0;
  schema.key_len = 8;
  schema.payload_len = 8;
  schema.hash_buckets = buckets;
  ASSERT_TRUE(database.CreateTable(schema).ok());
  cc::CcUnit to(&sim.dram(), cc::CcMode::kTimestamp);
  index::IndexCoprocessor::Config cfg;
  cfg.cc_unit = &to;
  cfg.max_inflight = 24;
  cfg.hash.pool_size = pool;
  index::IndexCoprocessor coproc(&database, 0, cfg);
  sim.AddComponent(&coproc);

  sim::Addr scratch = sim.dram().Allocate(16 * n_ops);
  std::vector<comm::Envelope> ops;
  for (uint32_t i = 0; i < n_ops; ++i) {
    uint8_t kb[8];
    db::EncodeKeyU64(1000 + i, kb);
    sim.dram().WriteBytes(scratch + 16 * i, kb, 8);
    sim.dram().Write64(scratch + 16 * i + 8, i);
    comm::IndexOp op;
    op.op = isa::Opcode::kInsert;
    op.table = 0;
    op.ts = 1;
    op.key_addr = scratch + 16 * i;
    op.key_len = 8;
    op.payload_src = scratch + 16 * i + 8;
    op.payload_len = 8;
    comm::Header h;
    h.cp_index = i;
    ops.push_back(comm::Envelope(h, op));
  }
  size_t next = 0, done = 0;
  // Event-driven (the default): the predicate runs once per real tick,
  // which is exact because a capped Submit can only succeed, and a result
  // only appear, after a tick.
  ASSERT_TRUE(sim.RunUntil(
      [&] {
        while (next < ops.size() && coproc.Submit(ops[next])) ++next;
        while (!coproc.results().empty()) {
          EXPECT_EQ(coproc.results().front().index_result().status,
                    isa::CpStatus::kOk);
          coproc.results().pop_front();
          ++done;
        }
        return done == ops.size();
      },
      2'000'000));
  for (uint32_t i = 0; i < n_ops; ++i) {
    EXPECT_NE(database.FindU64(0, 0, 1000 + i), sim::kNullAddr) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BucketPressure, HashInsertSurvival,
    ::testing::Combine(::testing::Values(1u, 2u, 16u, 1024u),
                       ::testing::Values(8u, 24u),
                       ::testing::Values(8u, 16u)));

// ---------------------------------------------------------------------------
// Invariant 2: skiplist structural invariants hold after any interleaving
// of pipelined inserts, across seeds and key patterns.
// ---------------------------------------------------------------------------

using SkiplistParams = std::tuple<uint64_t /*seed*/, bool /*clustered*/>;

class SkiplistIntegrity : public ::testing::TestWithParam<SkiplistParams> {};

TEST_P(SkiplistIntegrity, InvariantsAfterConcurrentInserts) {
  auto [seed, clustered] = GetParam();
  sim::Simulator sim(sim::TimingConfig{});
  db::Database database(&sim.dram(), 1);
  db::TableSchema schema;
  schema.id = 0;
  schema.key_len = 8;
  schema.payload_len = 8;
  schema.index = db::IndexKind::kSkiplist;
  ASSERT_TRUE(database.CreateTable(schema).ok());
  cc::CcUnit to(&sim.dram(), cc::CcMode::kTimestamp);
  index::IndexCoprocessor::Config cfg;
  cfg.cc_unit = &to;
  cfg.max_inflight = 24;
  index::IndexCoprocessor coproc(&database, 0, cfg);
  sim.AddComponent(&coproc);

  Rng rng(seed);
  constexpr uint32_t kOps = 48;
  sim::Addr scratch = sim.dram().Allocate(16 * kOps);
  std::vector<comm::Envelope> ops;
  std::vector<uint64_t> keys;
  for (uint32_t i = 0; i < kOps; ++i) {
    // Clustered keys maximise shared insert paths (hazard pressure).
    uint64_t key = clustered ? 5000 + i : rng.Next() % 100000;
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) {
      key = 200000 + i;
    }
    keys.push_back(key);
    uint8_t kb[8];
    db::EncodeKeyU64(key, kb);
    sim.dram().WriteBytes(scratch + 16 * i, kb, 8);
    comm::IndexOp op;
    op.op = isa::Opcode::kInsert;
    op.table = 0;
    op.ts = 1;
    op.key_addr = scratch + 16 * i;
    op.key_len = 8;
    op.payload_src = scratch + 16 * i + 8;
    op.payload_len = 8;
    comm::Header h;
    h.cp_index = i;
    ops.push_back(comm::Envelope(h, op));
  }
  size_t next = 0, done = 0;
  // Exact in event-driven mode for the same reason as above.
  ASSERT_TRUE(sim.RunUntil(
      [&] {
        while (next < ops.size() && coproc.Submit(ops[next])) ++next;
        while (!coproc.results().empty()) {
          coproc.results().pop_front();
          ++done;
        }
        return done == ops.size();
      },
      4'000'000));
  EXPECT_TRUE(database.skiplist_index(0, 0)->CheckInvariants());
  for (uint64_t key : keys) {
    EXPECT_NE(database.FindU64(0, 0, key), sim::kNullAddr) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPatterns, SkiplistIntegrity,
    ::testing::Combine(::testing::Values(1u, 7u, 13u, 99u),
                       ::testing::Bool()));

// ---------------------------------------------------------------------------
// Invariant 3: after the engine quiesces, no tuple anywhere is dirty (every
// transaction either published or rolled back its marks), and every
// submitted transaction eventually commits under client retry. Swept over
// worker counts, execution mode and workload shape.
// ---------------------------------------------------------------------------

using EngineParams =
    std::tuple<uint32_t /*workers*/, bool /*interleaving*/,
               workload::YcsbOptions::Mode>;

class EngineQuiescence : public ::testing::TestWithParam<EngineParams> {};

TEST_P(EngineQuiescence, NoDirtyTuplesAndAllCommit) {
  auto [workers, interleaving, mode] = GetParam();
  core::EngineOptions opts;
  opts.n_workers = workers;
  opts.softcore.interleaving = interleaving;
  core::BionicDb engine(opts);
  workload::YcsbOptions yopts;
  yopts.mode = mode;
  yopts.records_per_partition = 500;
  yopts.payload_len = 32;
  yopts.accesses_per_txn = 6;
  yopts.updates_per_txn = 3;
  yopts.scan_len = 10;
  workload::Ycsb ycsb(&engine, yopts);
  ASSERT_TRUE(ycsb.Setup().ok());

  Rng rng(workers * 31 + interleaving);
  host::TxnList txns;
  for (uint32_t w = 0; w < workers; ++w) {
    for (int i = 0; i < 30; ++i) txns.emplace_back(w, ycsb.MakeTxn(&rng, w));
  }
  auto result = host::RunToCompletion(&engine, txns);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.committed, txns.size());

  // Global quiescence invariant.
  for (uint32_t p = 0; p < workers; ++p) {
    auto check = [](db::TupleAccessor t) {
      EXPECT_FALSE(t.dirty());
      return true;
    };
    if (mode == workload::YcsbOptions::Mode::kScanOnly) {
      engine.database().skiplist_index(workload::Ycsb::kTable, p)->ForEach(
          check);
    } else {
      engine.database().hash_index(workload::Ycsb::kTable, p)->ForEach(check);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndWorkers, EngineQuiescence,
    ::testing::Combine(
        ::testing::Values(1u, 2u, 4u), ::testing::Bool(),
        ::testing::Values(workload::YcsbOptions::Mode::kReadOnly,
                          workload::YcsbOptions::Mode::kUpdateMix,
                          workload::YcsbOptions::Mode::kScanOnly,
                          workload::YcsbOptions::Mode::kMultisite)));

// ---------------------------------------------------------------------------
// Invariant 4: recovery reproduces the pre-crash state for any seed.
// ---------------------------------------------------------------------------

class RecoveryEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecoveryEquivalence, ReplayMatchesForAnySeed) {
  core::EngineOptions opts;
  opts.n_workers = 2;
  core::BionicDb a(opts);
  workload::YcsbOptions yopts;
  yopts.mode = workload::YcsbOptions::Mode::kUpdateMix;
  yopts.records_per_partition = 300;
  yopts.payload_len = 32;
  yopts.accesses_per_txn = 4;
  yopts.updates_per_txn = 2;
  workload::Ycsb ycsb(&a, yopts);
  ASSERT_TRUE(ycsb.Setup().ok());
  log::Checkpoint initial = log::Checkpoint::Capture(a.database());
  log::CommandLog cmd_log(&a);
  Rng rng(GetParam());
  std::vector<std::pair<size_t, sim::Addr>> submitted;
  for (uint32_t w = 0; w < 2; ++w) {
    for (int i = 0; i < 20; ++i) {
      sim::Addr block = ycsb.MakeTxn(&rng, w);
      submitted.emplace_back(cmd_log.Append(w, block), block);
      a.Submit(w, block);
    }
  }
  a.Drain();
  for (auto& [rec, block] : submitted) cmd_log.MarkOutcome(rec, block);

  core::BionicDb b(opts);
  for (const db::TableSchema& schema : a.database().catalogue().tables()) {
    ASSERT_TRUE(b.database().CreateTable(schema).ok());
  }
  const db::ProcedureInfo* proc =
      a.database().catalogue().FindProcedure(workload::Ycsb::kTxnType);
  ASSERT_TRUE(b.RegisterProcedure(workload::Ycsb::kTxnType, proc->program,
                                  proc->block_data_size)
                  .ok());
  ASSERT_TRUE(log::Recover(&b, initial, cmd_log).ok());
  EXPECT_TRUE(log::Checkpoint::Capture(a.database())
                  .Equivalent(log::Checkpoint::Capture(b.database())));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ---------------------------------------------------------------------------
// Invariant 5: correctness is timing-independent — DRAM latency and channel
// count change performance, never results.
// ---------------------------------------------------------------------------

using TimingParams = std::tuple<uint32_t /*latency*/, uint32_t /*channels*/>;

class TimingIndependence : public ::testing::TestWithParam<TimingParams> {};

TEST_P(TimingIndependence, ResultsUnchangedAcrossTimings) {
  auto [latency, channels] = GetParam();
  core::EngineOptions opts;
  opts.n_workers = 2;
  opts.timing.dram_latency_cycles = latency;
  opts.timing.dram_channels = channels;
  core::BionicDb engine(opts);
  workload::YcsbOptions yopts;
  yopts.mode = workload::YcsbOptions::Mode::kUpdateMix;
  yopts.records_per_partition = 200;
  yopts.payload_len = 32;
  yopts.accesses_per_txn = 4;
  yopts.updates_per_txn = 2;
  workload::Ycsb ycsb(&engine, yopts);
  ASSERT_TRUE(ycsb.Setup().ok());
  Rng rng(42);
  host::TxnList txns;
  for (uint32_t w = 0; w < 2; ++w) {
    for (int i = 0; i < 25; ++i) txns.emplace_back(w, ycsb.MakeTxn(&rng, w));
  }
  auto result = host::RunToCompletion(&engine, txns);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.committed, 50u);
  EXPECT_GT(result.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    LatencyChannels, TimingIndependence,
    ::testing::Combine(::testing::Values(5u, 25u, 95u, 250u),
                       ::testing::Values(1u, 2u, 8u)));

}  // namespace
}  // namespace bionicdb
