// Unit tests for the index coprocessor pipelines, driven directly by the
// cycle simulator (no softcore): correctness of each operation, the
// in-flight cap, and — crucially — the pipeline hazards of Figures 6/7,
// shown to corrupt the structures when prevention is disabled and to be
// fully suppressed when enabled.
#include <gtest/gtest.h>

#include <algorithm>

#include "cc/cc_unit.h"
#include "db/database.h"
#include "db/tuple.h"
#include "index/coprocessor.h"
#include "sim/simulator.h"

namespace bionicdb::index {
namespace {

class IndexPipelineTest : public ::testing::Test {
 protected:
  void Init(db::IndexKind kind, uint32_t hash_buckets = 1 << 10,
            bool hazard_prevention = true, uint32_t max_inflight = 16,
            uint32_t n_scanners = 1) {
    // Re-initialisable: tear down users before what they point into.
    coproc_.reset();
    cc_.reset();
    db_.reset();
    sim_ = std::make_unique<sim::Simulator>(sim::TimingConfig());
    db_ = std::make_unique<db::Database>(&sim_->dram(), 1);
    cc_ = std::make_unique<cc::CcUnit>(&sim_->dram(), cc_mode_,
                                       dirty_wait_cycles_);
    db::TableSchema schema;
    schema.id = 0;
    schema.index = kind;
    schema.key_len = 8;
    schema.payload_len = 8;
    schema.hash_buckets = hash_buckets;
    ASSERT_TRUE(db_->CreateTable(schema).ok());
    IndexCoprocessor::Config cfg;
    cfg.cc_unit = cc_.get();
    cfg.max_inflight = max_inflight;
    cfg.hash.hazard_prevention = hazard_prevention;
    cfg.skiplist.hazard_prevention = hazard_prevention;
    cfg.skiplist.n_scanners = n_scanners;
    coproc_ = std::make_unique<IndexCoprocessor>(db_.get(), 0, cfg);
    sim_->AddComponent(coproc_.get(), /*partition=*/0);
    // A scratch area holding keys/payloads the ops reference.
    scratch_ = sim_->dram().Allocate(1 << 20);
    scratch_used_ = 0;
  }

  sim::Addr PutKey(uint64_t key) {
    uint8_t kb[8];
    db::EncodeKeyU64(key, kb);
    sim::Addr a = scratch_ + scratch_used_;
    scratch_used_ += 8;
    sim_->dram().WriteBytes(a, kb, 8);
    return a;
  }
  sim::Addr PutU64(uint64_t v) {
    sim::Addr a = scratch_ + scratch_used_;
    scratch_used_ += 8;
    sim_->dram().Write64(a, v);
    return a;
  }

  comm::Envelope MakeOp(isa::Opcode op, uint64_t key, uint32_t cp) {
    comm::IndexOp o;
    o.op = op;
    o.table = 0;
    o.ts = 1000;
    o.key_addr = PutKey(key);
    o.key_len = 8;
    comm::Header h;
    h.cp_index = cp;
    return comm::Envelope(h, o);
  }

  /// Submits (retrying on cap) and runs until all results arrive. The
  /// simulator is event-driven (the default), so the predicate runs once
  /// per real tick; that is exact here because a capped Submit can only
  /// succeed, and a result only appear, after a tick.
  std::vector<comm::Envelope> RunOps(std::vector<comm::Envelope> ops) {
    size_t next = 0;
    std::vector<comm::Envelope> results;
    sim_->RunUntil(
        [&] {
          while (next < ops.size() && coproc_->Submit(ops[next])) ++next;
          auto& q = coproc_->results();
          while (!q.empty()) {
            results.push_back(q.front());
            q.pop_front();
          }
          return results.size() == ops.size();
        },
        /*max_cycles=*/1'000'000);
    return results;
  }

  /// CC unit settings Init builds the partition's unit with.
  cc::CcMode cc_mode_ = cc::CcMode::kTimestamp;
  uint32_t dirty_wait_cycles_ = 0;

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<db::Database> db_;
  std::unique_ptr<cc::CcUnit> cc_;
  std::unique_ptr<IndexCoprocessor> coproc_;
  sim::Addr scratch_ = 0;
  uint64_t scratch_used_ = 0;
};

TEST_F(IndexPipelineTest, HashSearchHitAndMiss) {
  Init(db::IndexKind::kHash);
  uint64_t payload = 77;
  ASSERT_TRUE(db_->LoadU64(0, 0, 5, &payload, 8).ok());
  auto results = RunOps({MakeOp(isa::Opcode::kSearch, 5, 0),
                         MakeOp(isa::Opcode::kSearch, 6, 1)});
  ASSERT_EQ(results.size(), 2u);
  // Results may complete out of submission order; identify by cp_index.
  for (const auto& r : results) {
    if (r.hdr.cp_index == 0) {
      EXPECT_EQ(r.index_result().status, isa::CpStatus::kOk);
      uint64_t got;
      sim_->dram().ReadBytes(r.index_result().payload, &got, 8);
      EXPECT_EQ(got, 77u);
    } else {
      EXPECT_EQ(r.index_result().status, isa::CpStatus::kNotFound);
    }
  }
}

TEST_F(IndexPipelineTest, SubmitBetweenStepsWakesTheCoprocessor) {
  // Step reuses the schedule it left off with, in which the idle
  // coprocessor sleeps for good: Submit from host code must touch it.
  Init(db::IndexKind::kHash);
  uint64_t payload = 11;
  ASSERT_TRUE(db_->LoadU64(0, 0, 3, &payload, 8).ok());
  sim_->Step(100);
  ASSERT_TRUE(coproc_->Submit(MakeOp(isa::Opcode::kSearch, 3, 0)));
  for (int i = 0; i < 100 && coproc_->results().empty(); ++i) sim_->Step(50);
  ASSERT_EQ(coproc_->results().size(), 1u);
  EXPECT_EQ(coproc_->results().front().index_result().status,
            isa::CpStatus::kOk);
}

TEST_F(IndexPipelineTest, HashSearchTakesAtLeastThreeMemoryTrips) {
  Init(db::IndexKind::kHash);
  uint64_t payload = 1;
  ASSERT_TRUE(db_->LoadU64(0, 0, 9, &payload, 8).ok());
  uint64_t start = sim_->now();
  RunOps({MakeOp(isa::Opcode::kSearch, 9, 0)});
  uint64_t elapsed = sim_->now() - start;
  // Key fetch + bucket head + node read, each a full DRAM latency.
  EXPECT_GE(elapsed, 3ull * sim_->config().dram_latency_cycles);
}

TEST_F(IndexPipelineTest, HashInsertInstallsDirtyTuple) {
  Init(db::IndexKind::kHash);
  comm::Envelope op = MakeOp(isa::Opcode::kInsert, 42, 0);
  op.index_op().payload_src = PutU64(4242);
  op.index_op().payload_len = 8;
  auto results = RunOps({op});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].index_result().status, isa::CpStatus::kOk);
  EXPECT_EQ(results[0].index_result().write_kind, cc::WriteKind::kInsert);
  sim::Addr t = db_->FindU64(0, 0, 42);
  ASSERT_NE(t, sim::kNullAddr);
  db::TupleAccessor acc(&sim_->dram(), t);
  EXPECT_TRUE(acc.dirty());  // born dirty; COMMIT publishes
  uint64_t got;
  sim_->dram().ReadBytes(acc.payload_addr(), &got, 8);
  EXPECT_EQ(got, 4242u);
}

TEST_F(IndexPipelineTest, HashUpdateAndRemoveSetMarks) {
  Init(db::IndexKind::kHash);
  uint64_t payload = 1;
  ASSERT_TRUE(db_->LoadU64(0, 0, 7, &payload, 8).ok());
  ASSERT_TRUE(db_->LoadU64(0, 0, 8, &payload, 8).ok());
  auto results = RunOps({MakeOp(isa::Opcode::kUpdate, 7, 0),
                         MakeOp(isa::Opcode::kRemove, 8, 1)});
  ASSERT_EQ(results.size(), 2u);
  db::TupleAccessor upd(&sim_->dram(), db_->FindU64(0, 0, 7));
  EXPECT_TRUE(upd.dirty());
  EXPECT_FALSE(upd.tombstone());
  db::TupleAccessor rem(&sim_->dram(), db_->FindU64(0, 0, 8));
  EXPECT_TRUE(rem.dirty());
  EXPECT_TRUE(rem.tombstone());
}

TEST_F(IndexPipelineTest, VisibilityRejectionFlowsToResult) {
  Init(db::IndexKind::kHash);
  uint64_t payload = 1;
  ASSERT_TRUE(db_->LoadU64(0, 0, 7, &payload, 8).ok());
  // First update dirties the tuple; the second (other txn) must be
  // rejected by the blind dirty check.
  auto r1 = RunOps({MakeOp(isa::Opcode::kUpdate, 7, 0)});
  EXPECT_EQ(r1[0].index_result().status, isa::CpStatus::kOk);
  auto r2 = RunOps({MakeOp(isa::Opcode::kSearch, 7, 1)});
  EXPECT_EQ(r2[0].index_result().status, isa::CpStatus::kRejected);
}

TEST_F(IndexPipelineTest, InflightCapRejectsSubmit) {
  Init(db::IndexKind::kHash, 1 << 10, true, /*max_inflight=*/2);
  ASSERT_TRUE(coproc_->Submit(MakeOp(isa::Opcode::kSearch, 1, 0)));
  ASSERT_TRUE(coproc_->Submit(MakeOp(isa::Opcode::kSearch, 2, 1)));
  EXPECT_FALSE(coproc_->Submit(MakeOp(isa::Opcode::kSearch, 3, 2)));
  EXPECT_EQ(coproc_->inflight(), 2u);
  sim_->RunUntilIdle(100000);
  EXPECT_TRUE(coproc_->Submit(MakeOp(isa::Opcode::kSearch, 3, 2)));
  sim_->RunUntilIdle(100000);
}

// The Fig. 6 hazard experiment: racing inserts into ONE bucket.
TEST_F(IndexPipelineTest, InsertHazardPreventedByLockTable) {
  Init(db::IndexKind::kHash, /*hash_buckets=*/1, /*hazard_prevention=*/true);
  std::vector<comm::Envelope> ops;
  constexpr int kN = 16;
  for (int i = 0; i < kN; ++i) {
    comm::Envelope op = MakeOp(isa::Opcode::kInsert, 100 + i, uint32_t(i));
    op.index_op().payload_src = PutU64(i);
    op.index_op().payload_len = 8;
    ops.push_back(op);
  }
  auto results = RunOps(ops);
  ASSERT_EQ(results.size(), size_t(kN));
  // With pipeline-stall prevention every insert survives in the chain.
  EXPECT_EQ(db_->hash_index(0, 0)->ChainLength(0), uint32_t(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_NE(db_->FindU64(0, 0, 100 + i), sim::kNullAddr) << i;
  }
  EXPECT_GT(coproc_->hash_pipeline().counters().Get("hash_lock_stall_cycles"),
            0u);
}

TEST_F(IndexPipelineTest, InsertHazardManifestsWithoutPrevention) {
  Init(db::IndexKind::kHash, /*hash_buckets=*/1, /*hazard_prevention=*/false);
  std::vector<comm::Envelope> ops;
  constexpr int kN = 16;
  for (int i = 0; i < kN; ++i) {
    comm::Envelope op = MakeOp(isa::Opcode::kInsert, 100 + i, uint32_t(i));
    op.index_op().payload_src = PutU64(i);
    op.index_op().payload_len = 8;
    ops.push_back(op);
  }
  RunOps(ops);
  // Racing inserts read stale bucket heads and overwrite each other: the
  // insert-after-insert hazard loses tuples (paper Fig. 6a).
  EXPECT_LT(db_->hash_index(0, 0)->ChainLength(0), uint32_t(kN));
}

TEST_F(IndexPipelineTest, SkiplistSearchInsertScan) {
  Init(db::IndexKind::kSkiplist);
  uint64_t payload = 5;
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(db_->LoadU64(0, 0, k * 2, &payload, 8).ok());
  }
  // Point hits and misses.
  auto r = RunOps({MakeOp(isa::Opcode::kSearch, 20, 0),
                   MakeOp(isa::Opcode::kSearch, 21, 1)});
  for (const auto& res : r) {
    if (res.hdr.cp_index == 0) {
      EXPECT_EQ(res.index_result().status, isa::CpStatus::kOk);
    }
    if (res.hdr.cp_index == 1) {
      EXPECT_EQ(res.index_result().status, isa::CpStatus::kNotFound);
    }
  }
  // Pipeline insert, then scan across it.
  comm::Envelope ins = MakeOp(isa::Opcode::kInsert, 21, 2);
  ins.index_op().payload_src = PutU64(2121);
  ins.index_op().payload_len = 8;
  auto ri = RunOps({ins});
  EXPECT_EQ(ri[0].index_result().status, isa::CpStatus::kOk);
  ASSERT_TRUE(db_->skiplist_index(0, 0)->CheckInvariants());

  comm::Envelope scan = MakeOp(isa::Opcode::kScan, 10, 3);
  scan.index_op().scan_count = 5;
  scan.index_op().out_buf = scratch_ + (1 << 16);
  auto rs = RunOps({scan});
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].index_result().status, isa::CpStatus::kOk);
  // The in-flight insert of key 21 is dirty -> invisible to the scan; the
  // five results are 10,12,14,16,18.
  EXPECT_EQ(rs[0].index_result().payload, 5u);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 5; ++i) {
    sim::Addr payload_addr =
        sim_->dram().Read64(scan.index_op().out_buf + 8 * i);
    // Recover the tuple key: payload sits right after the key in memory.
    uint64_t got;
    sim_->dram().ReadBytes(payload_addr, &got, 8);
    EXPECT_EQ(got, 5u);  // preloaded payload value
    (void)keys;
  }
}

// The Fig. 7 hazard experiment: racing skiplist inserts on adjacent keys.
TEST_F(IndexPipelineTest, SkiplistInsertHazardPrevented) {
  Init(db::IndexKind::kSkiplist, 0, /*hazard_prevention=*/true);
  std::vector<comm::Envelope> ops;
  constexpr int kN = 24;
  for (int i = 0; i < kN; ++i) {
    comm::Envelope op = MakeOp(isa::Opcode::kInsert, 1000 + i, uint32_t(i));
    op.index_op().payload_src = PutU64(i);
    op.index_op().payload_len = 8;
    ops.push_back(op);
  }
  auto results = RunOps(ops);
  ASSERT_EQ(results.size(), size_t(kN));
  EXPECT_TRUE(db_->skiplist_index(0, 0)->CheckInvariants());
  for (int i = 0; i < kN; ++i) {
    EXPECT_NE(db_->FindU64(0, 0, 1000 + i), sim::kNullAddr) << i;
  }
}

// The shortest-queue dispatcher breaks ties round-robin, and the rotation
// must advance exactly when the tie-break decided the pick: scans arriving
// at equal (usually empty) queues then spread across every scanner instead
// of piling onto scanner 0.
TEST_F(IndexPipelineTest, ScanDispatchSpreadsAcrossScanners) {
  constexpr uint32_t kScanners = 4;
  Init(db::IndexKind::kSkiplist, /*hash_buckets=*/0,
       /*hazard_prevention=*/true, /*max_inflight=*/16, kScanners);
  uint64_t payload = 7;
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(db_->LoadU64(0, 0, k, &payload, 8).ok());
  }
  constexpr int kScans = 32;
  std::vector<comm::Envelope> ops;
  for (int i = 0; i < kScans; ++i) {
    comm::Envelope scan = MakeOp(isa::Opcode::kScan, uint64_t(i * 4),
                                 uint32_t(i));
    scan.index_op().scan_count = 4;
    scan.index_op().out_buf = scratch_ + (1 << 16) + uint64_t(i) * 64;
    ops.push_back(scan);
  }
  auto results = RunOps(ops);
  ASSERT_EQ(results.size(), size_t(kScans));
  for (const auto& r : results) {
    EXPECT_EQ(r.index_result().status, isa::CpStatus::kOk);
  }
  auto& pipe = coproc_->skiplist_pipeline();
  uint64_t total = 0, min_d = UINT64_MAX, max_d = 0;
  for (uint32_t s = 0; s < kScanners; ++s) {
    uint64_t d = pipe.ScannerDispatched(s);
    total += d;
    min_d = std::min(min_d, d);
    max_d = std::max(max_d, d);
  }
  EXPECT_EQ(total, uint64_t(kScans));
  // Every scanner must take a fair share: no starvation, and no scanner
  // hoarding more than twice its proportional load.
  EXPECT_GE(min_d, uint64_t(kScans) / (2 * kScanners));
  EXPECT_LE(max_d, uint64_t(2 * kScans) / kScanners);
}

TEST_F(IndexPipelineTest, SkiplistStageRangesCoverAllLevels) {
  Init(db::IndexKind::kSkiplist);
  auto& pipe = coproc_->skiplist_pipeline();
  int expected_hi = db::kSkiplistMaxHeight - 1;
  for (uint32_t s = 0; s < 8; ++s) {
    auto [lo, hi] = pipe.StageRange(s);
    EXPECT_EQ(hi, expected_hi);
    EXPECT_LE(lo, hi);
    expected_hi = lo - 1;
  }
  EXPECT_EQ(expected_hi, -1);
  // Top stage covers the widest range (sparser levels).
  auto [lo0, hi0] = pipe.StageRange(0);
  auto [lo7, hi7] = pipe.StageRange(7);
  EXPECT_GE(hi0 - lo0, hi7 - lo7);
}

// Parking on a dirty tuple belongs to the shared access stage, so the
// outcome must not depend on which index reaches the tuple: each run loads
// one tuple, marks it dirty with no owning transaction, and SEARCHes it.
class DirtyParkTest : public IndexPipelineTest,
                      public ::testing::WithParamInterface<db::IndexKind> {
 protected:
  static constexpr uint64_t kKey = 7;
  static constexpr db::Timestamp kTs = 1000;  // MakeOp's timestamp

  /// Rebuilds the coprocessor around a fresh CC unit and a dirty tuple.
  db::TupleAccessor InitDirty(cc::CcMode mode, uint32_t wait_cycles) {
    cc_mode_ = mode;
    dirty_wait_cycles_ = wait_cycles;
    Init(GetParam());
    uint64_t payload = 42;
    EXPECT_TRUE(db_->LoadU64(0, 0, kKey, &payload, 8).ok());
    db::TupleAccessor t(&sim_->dram(), db_->FindU64(0, 0, kKey));
    t.SetFlag(db::kFlagDirty);
    return t;
  }

  uint64_t Counter(const char* name) {
    return GetParam() == db::IndexKind::kHash
               ? coproc_->hash_pipeline().counters().Get(name)
               : coproc_->skiplist_pipeline().counters().Get(name);
  }
};

TEST_P(DirtyParkTest, ParkingDoesNotDependOnTheIndex) {
  {
    SCOPED_TRACE("SGT: an unowned dirty mark parks until it clears");
    db::TupleAccessor t = InitDirty(cc::CcMode::kSgt, 0);
    cc_->OnTxnBegin(kTs);
    ASSERT_TRUE(coproc_->Submit(MakeOp(isa::Opcode::kSearch, kKey, 0)));
    EXPECT_TRUE(sim_->RunUntil([&] { return Counter("dirty_waits") == 1; },
                               100'000));
    sim_->Step(2'000);
    EXPECT_TRUE(coproc_->results().empty()) << "must still be parked";
    t.ClearFlag(db::kFlagDirty);
    ASSERT_TRUE(sim_->RunUntil([&] { return !coproc_->results().empty(); },
                               100'000));
    EXPECT_EQ(coproc_->results().front().index_result().status,
              isa::CpStatus::kOk);
    EXPECT_EQ(Counter("dirty_wait_wakeups"), 1u);
  }
  {
    SCOPED_TRACE("T/O without a wait budget: the blind reject, at once");
    InitDirty(cc::CcMode::kTimestamp, 0);
    auto results = RunOps({MakeOp(isa::Opcode::kSearch, kKey, 0)});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].index_result().status, isa::CpStatus::kRejected);
    EXPECT_EQ(Counter("dirty_waits"), 0u);
  }
  {
    SCOPED_TRACE("T/O with a budget: a mark that never clears times out");
    constexpr uint32_t kBudget = 300;
    InitDirty(cc::CcMode::kTimestamp, kBudget);
    const uint64_t start = sim_->now();
    auto results = RunOps({MakeOp(isa::Opcode::kSearch, kKey, 0)});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].index_result().status, isa::CpStatus::kRejected);
    EXPECT_EQ(Counter("dirty_waits"), 1u);
    EXPECT_EQ(Counter("dirty_wait_timeouts"), 1u);
    EXPECT_GE(sim_->now() - start, kBudget);
  }
}

INSTANTIATE_TEST_SUITE_P(
    HashAndSkiplist, DirtyParkTest,
    ::testing::Values(db::IndexKind::kHash, db::IndexKind::kSkiplist),
    [](const ::testing::TestParamInfo<db::IndexKind>& info) {
      return info.param == db::IndexKind::kHash ? "Hash" : "Skiplist";
    });

}  // namespace
}  // namespace bionicdb::index
