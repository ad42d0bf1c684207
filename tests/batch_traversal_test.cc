// Differential tests for batched level-wise index traversal (DESIGN.md
// section 17): TraversalMode::kBatched must be an OPTIMIZATION, never a
// semantic change. Every suite compares a batched pipeline against the
// per-op baseline on identical inputs:
//  * direct-coprocessor differentials — the result envelopes (status,
//    payload, scan output buffers) must match per-op byte for byte on
//    hash and skiplist tables;
//  * flush-timeout property — a probe never waits in the collector past
//    batch_timeout_cycles: undersized batches still complete promptly
//    and account a timeout flush;
//  * engine-level SmallBank under all three CC schemes — conservation
//    holds and every transaction eventually commits in both traversal
//    modes;
//  * simulator-mode identity — a batched engine's stats tree is
//    byte-identical across per-cycle and event-driven simulation.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cc/cc_unit.h"
#include "common/stats.h"
#include "core/engine.h"
#include "db/database.h"
#include "db/tuple.h"
#include "host/driver.h"
#include "index/coprocessor.h"
#include "sim/simulator.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

// ---------------------------------------------------------------------------
// Direct-coprocessor harness: one simulator + database + coprocessor per
// traversal mode, fed the same operation list.

struct OpResult {
  isa::CpStatus status;
  uint64_t payload_value;      // tuple payload word (searches) or count (scans)
  std::vector<uint8_t> scan_out;  // scan output buffer bytes
};

class CoprocHarness {
 public:
  CoprocHarness(db::IndexKind kind, index::TraversalMode traversal,
                uint32_t batch_size = 8, uint64_t batch_timeout = 128) {
    sim_ = std::make_unique<sim::Simulator>(sim::TimingConfig());
    db_ = std::make_unique<db::Database>(&sim_->dram(), 1);
    db::TableSchema schema;
    schema.id = 0;
    schema.index = kind;
    schema.key_len = 8;
    schema.payload_len = 8;
    schema.hash_buckets = 1 << 10;
    EXPECT_TRUE(db_->CreateTable(schema).ok());
    cc_ = std::make_unique<cc::CcUnit>(&sim_->dram(), cc::CcMode::kTimestamp);
    index::IndexCoprocessor::Config cfg;
    cfg.cc_unit = cc_.get();
    cfg.traversal = traversal;
    cfg.batch_size = batch_size;
    cfg.batch_timeout_cycles = batch_timeout;
    coproc_ = std::make_unique<index::IndexCoprocessor>(db_.get(), 0, cfg);
    sim_->AddComponent(coproc_.get());
    scratch_ = sim_->dram().Allocate(1 << 20);
  }

  void Preload(uint64_t n_keys, uint64_t stride) {
    for (uint64_t k = 0; k < n_keys; ++k) {
      uint64_t payload = k * 1000 + 7;
      ASSERT_TRUE(db_->LoadU64(0, 0, k * stride, &payload, 8).ok());
    }
  }

  comm::Envelope MakeOp(isa::Opcode op, uint64_t key, uint32_t cp) {
    uint8_t kb[8];
    db::EncodeKeyU64(key, kb);
    sim::Addr ka = scratch_ + scratch_used_;
    scratch_used_ += 8;
    sim_->dram().WriteBytes(ka, kb, 8);
    comm::IndexOp o;
    o.op = op;
    o.table = 0;
    o.ts = 1000;
    o.key_addr = ka;
    o.key_len = 8;
    comm::Header h;
    h.cp_index = cp;
    return comm::Envelope(h, o);
  }

  /// Runs `ops` to completion and returns per-cp_index results, with scan
  /// buffers resolved down to the referenced tuples' payload words so two
  /// harnesses (whose heap addresses may differ) compare logically. The
  /// simulator is event-driven (the default), so the predicate runs once
  /// per real tick; that is exact because a capped Submit can only
  /// succeed, and a result only appear, after a tick.
  std::map<uint32_t, OpResult> Run(std::vector<comm::Envelope> ops) {
    size_t next = 0;
    std::map<uint32_t, OpResult> out;
    std::map<uint32_t, const comm::Envelope*> by_cp;
    for (const auto& op : ops) by_cp[op.hdr.cp_index] = &op;
    sim_->RunUntil(
        [&] {
          while (next < ops.size() && coproc_->Submit(ops[next])) ++next;
          auto& q = coproc_->results();
          while (!q.empty()) {
            const comm::Envelope& r = q.front();
            OpResult res;
            res.status = r.index_result().status;
            res.payload_value = 0;
            const comm::Envelope& req = *by_cp.at(r.hdr.cp_index);
            if (req.index_op().op == isa::Opcode::kScan &&
                res.status == isa::CpStatus::kOk) {
              res.payload_value = r.index_result().payload;  // tuples found
              for (uint64_t i = 0; i < res.payload_value; ++i) {
                sim::Addr pa =
                    sim_->dram().Read64(req.index_op().out_buf + 8 * i);
                uint64_t word = sim_->dram().Read64(pa);
                for (int b = 0; b < 8; ++b) {
                  res.scan_out.push_back(uint8_t(word >> (8 * b)));
                }
              }
            } else if (res.status == isa::CpStatus::kOk &&
                       r.index_result().payload != sim::kNullAddr) {
              res.payload_value = sim_->dram().Read64(r.index_result().payload);
            }
            out[r.hdr.cp_index] = std::move(res);
            q.pop_front();
          }
          return out.size() == ops.size();
        },
        /*max_cycles=*/2'000'000);
    return out;
  }

  uint64_t now() const { return sim_->now(); }
  index::IndexCoprocessor* coproc() { return coproc_.get(); }
  sim::Simulator* sim() { return sim_.get(); }
  sim::Addr AllocOut(uint64_t bytes) {
    sim::Addr a = scratch_ + scratch_used_;
    scratch_used_ += bytes;
    return a;
  }

 private:
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<db::Database> db_;
  std::unique_ptr<cc::CcUnit> cc_;
  std::unique_ptr<index::IndexCoprocessor> coproc_;
  sim::Addr scratch_ = 0;
  uint64_t scratch_used_ = 0;
};

void ExpectSameResults(const std::map<uint32_t, OpResult>& perop,
                       const std::map<uint32_t, OpResult>& batched) {
  ASSERT_EQ(perop.size(), batched.size());
  for (const auto& [cp, a] : perop) {
    auto it = batched.find(cp);
    ASSERT_NE(it, batched.end()) << "cp " << cp << " missing in batched run";
    const OpResult& b = it->second;
    EXPECT_EQ(int(a.status), int(b.status)) << "cp " << cp;
    EXPECT_EQ(a.payload_value, b.payload_value) << "cp " << cp;
    EXPECT_EQ(a.scan_out, b.scan_out) << "cp " << cp;
  }
}

/// The shared op list: point hits, misses, and (skiplist) range scans,
/// dense enough that batched runs exercise sorting, tower dedup and the
/// per-op handoff paths.
std::vector<comm::Envelope> ProbeMix(CoprocHarness* h, bool with_scans) {
  std::vector<comm::Envelope> ops;
  uint32_t cp = 0;
  for (uint64_t i = 0; i < 40; ++i) {
    // Stride-2 preload: even keys hit, odd keys miss.
    ops.push_back(h->MakeOp(isa::Opcode::kSearch, (i * 7) % 100, cp++));
  }
  if (with_scans) {
    for (uint64_t i = 0; i < 8; ++i) {
      comm::Envelope scan = h->MakeOp(isa::Opcode::kScan, i * 11, cp++);
      scan.index_op().scan_count = 6;
      scan.index_op().out_buf = h->AllocOut(8 * 6);
      ops.push_back(scan);
    }
  }
  return ops;
}

TEST(BatchTraversalDifferential, HashResultsMatchPerOp) {
  CoprocHarness perop(db::IndexKind::kHash, index::TraversalMode::kPerOp);
  CoprocHarness batched(db::IndexKind::kHash, index::TraversalMode::kBatched);
  perop.Preload(50, 2);
  batched.Preload(50, 2);
  auto a = perop.Run(ProbeMix(&perop, /*with_scans=*/false));
  auto b = batched.Run(ProbeMix(&batched, /*with_scans=*/false));
  ExpectSameResults(a, b);
}

TEST(BatchTraversalDifferential, SkiplistResultsAndScansMatchPerOp) {
  CoprocHarness perop(db::IndexKind::kSkiplist, index::TraversalMode::kPerOp);
  CoprocHarness batched(db::IndexKind::kSkiplist,
                        index::TraversalMode::kBatched);
  perop.Preload(50, 2);
  batched.Preload(50, 2);
  auto a = perop.Run(ProbeMix(&perop, /*with_scans=*/true));
  auto b = batched.Run(ProbeMix(&batched, /*with_scans=*/true));
  ExpectSameResults(a, b);
}

// ---------------------------------------------------------------------------
// Flush-timeout property: an undersized batch (fewer probes than
// batch_size, no end-of-batch marker) must flush on the collector
// deadline — probes cannot be held hostage waiting for peers that never
// arrive.

void FlushTimeoutCase(db::IndexKind kind, const char* pipe_key) {
  constexpr uint64_t kTimeout = 64;
  CoprocHarness h(kind, index::TraversalMode::kBatched, /*batch_size=*/16,
                  kTimeout);
  h.Preload(50, 2);
  // 3 probes < batch_size 16: only the timeout can flush them.
  std::vector<comm::Envelope> ops;
  for (uint32_t i = 0; i < 3; ++i) {
    ops.push_back(h.MakeOp(isa::Opcode::kSearch, i * 2, i));
  }
  uint64_t start = h.now();
  auto results = h.Run(ops);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& [cp, r] : results) {
    EXPECT_EQ(r.status, isa::CpStatus::kOk) << cp;
  }
  // The only flush trigger here is the deadline: the collector must have
  // waited it out, then completed within the batch's own DRAM round trips
  // (bounded generously for the skiplist's multi-level walk).
  const uint64_t dram = h.sim()->config().dram_latency_cycles;
  EXPECT_GE(h.now() - start, kTimeout);
  EXPECT_LE(h.now() - start, kTimeout + 64 * dram);
  StatsRegistry reg;
  h.coproc()->CollectStats(StatsScope(&reg, "coproc"));
  EXPECT_GE(reg.GetCounter(std::string("coproc/") + pipe_key +
                           "/batch/flush_timeout"),
            1u);
  EXPECT_EQ(reg.GetCounter(std::string("coproc/") + pipe_key +
                           "/batch/flush_full"),
            0u);
}

TEST(BatchTraversalTimeout, HashCollectorFlushesOnDeadline) {
  FlushTimeoutCase(db::IndexKind::kHash, "hash");
}

TEST(BatchTraversalTimeout, SkiplistCollectorFlushesOnDeadline) {
  FlushTimeoutCase(db::IndexKind::kSkiplist, "skiplist");
}

// ---------------------------------------------------------------------------
// Engine-level: SmallBank under every CC scheme, batched vs per-op. The
// batched walk still runs CcUnit::CheckAccess per tuple, so conservation
// must hold and every transaction must eventually commit in both modes.

struct EngineOutcome {
  uint64_t committed = 0;
  uint64_t submitted = 0;
  bool conserved = false;
};

EngineOutcome RunSmallBank(index::TraversalMode traversal, cc::CcMode cc_mode) {
  core::EngineOptions opts;
  opts.n_workers = 2;
  opts.cc_mode = cc_mode;
  opts.coproc.traversal = traversal;
  core::BionicDb engine(opts);
  workload::SmallBankOptions sbo;
  sbo.accounts_per_partition = 100;
  workload::SmallBank sb(&engine, sbo);
  EngineOutcome out;
  EXPECT_TRUE(sb.Setup().ok());
  Rng rng(7);
  host::TxnList list;
  for (uint32_t w = 0; w < opts.n_workers; ++w) {
    for (int i = 0; i < 40; ++i) list.emplace_back(w, sb.MakeTxn(&rng, w));
  }
  auto r = host::RunToCompletion(&engine, list);
  out.committed = r.committed;
  out.submitted = r.submitted;
  out.conserved = sb.VerifyConservation(list);
  return out;
}

TEST(BatchTraversalSmallBank, ConservesUnderAllCcModes) {
  for (cc::CcMode cc_mode :
       {cc::CcMode::kTimestamp, cc::CcMode::kSgt, cc::CcMode::kMvcc}) {
    EngineOutcome perop = RunSmallBank(index::TraversalMode::kPerOp, cc_mode);
    EngineOutcome batched =
        RunSmallBank(index::TraversalMode::kBatched, cc_mode);
    EXPECT_EQ(perop.submitted, batched.submitted) << int(cc_mode);
    EXPECT_EQ(perop.committed, perop.submitted) << int(cc_mode);
    EXPECT_EQ(batched.committed, batched.submitted) << int(cc_mode);
    EXPECT_TRUE(perop.conserved) << int(cc_mode);
    EXPECT_TRUE(batched.conserved) << int(cc_mode);
  }
}

// ---------------------------------------------------------------------------
// Determinism: a batched YCSB update-mix engine must produce a
// byte-identical stats tree in both simulator modes.

std::string RunBatchedYcsbStats(bool event_driven) {
  core::EngineOptions opts;
  opts.n_workers = 4;
  opts.coproc.traversal = index::TraversalMode::kBatched;
  opts.timing.event_driven = event_driven;
  core::BionicDb engine(opts);
  workload::YcsbOptions yopts;
  yopts.mode = workload::YcsbOptions::Mode::kBatchPut;
  yopts.records_per_partition = 500;
  yopts.payload_len = 64;
  workload::Ycsb ycsb(&engine, yopts);
  EXPECT_TRUE(ycsb.Setup().ok());
  Rng rng(42);
  host::TxnList list;
  for (uint32_t w = 0; w < opts.n_workers; ++w) {
    for (int i = 0; i < 25; ++i) list.emplace_back(w, ycsb.MakeTxn(&rng, w));
  }
  host::RunToCompletion(&engine, list);
  StatsRegistry reg;
  engine.CollectStats(&reg);
  return reg.ToJson();
}

TEST(BatchTraversalModes, StatsIdenticalAcrossSimulators) {
  EXPECT_EQ(RunBatchedYcsbStats(false), RunBatchedYcsbStats(true))
      << "event-driven diverged";
}

}  // namespace
}  // namespace bionicdb
