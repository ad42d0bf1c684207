// Distributed-commit atomicity suite (DESIGN.md section 14): every
// cross-chip transaction must commit everywhere or abort everywhere, under
// seeded drop/duplicate/delay faults aimed at the 2PC vote path
// (PrepareAck / CommitReq envelope classes via FaultConfig::comm_class_mask)
// and under coordinator prepare-timeout aborts.
//
// The shadow model judges atomicity on concurrency-control metadata, not
// payload bytes: a committed transaction stamps its commit timestamp into
// write_ts on every tuple it wrote (on both chips) and clears the dirty
// mark; an aborted transaction leaves every write_ts untouched and likewise
// ends with no dirty mark anywhere. Payload bytes are deliberately not the
// oracle for aborts — the in-place stores of the commit handler precede the
// 2PC round, and rolling those bytes back is the host UNDO log's job
// (paper section 4.7), not the hardware's.
//
// Every transaction is built with globally unique keys (one writer per
// tuple), so a stamped write_ts can only have come from that transaction —
// which also makes the committed-path payload check an exactly-once-apply
// check: a duplicated or re-sent CommitReq must not corrupt the value.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/envelope.h"
#include "common/random.h"
#include "common/stats.h"
#include "db/tuple.h"
#include "db/txn_block.h"
#include "fault/fault.h"
#include "host/driver.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

constexpr uint32_t kChips = 2;
constexpr uint32_t kWorkersPerChip = 2;
constexpr uint32_t kRecords = 200;
// Two accesses, both updates: slot 0 targets a foreign chip (every
// transaction needs the 2PC round), slot 1 the submitting worker's own
// partition — one write leg per chip, the minimal atomicity witness.
constexpr uint32_t kAccesses = 2;
constexpr uint64_t kTxnsPerWorker = 12;

enum class Mode { kSerial, kEventDriven };

struct TxnShadow {
  sim::Addr block = 0;
  uint64_t key[kAccesses] = {};
  db::PartitionId part[kAccesses] = {};
  uint64_t new_val[kAccesses] = {};
  sim::Addr tuple[kAccesses] = {};
  uint64_t pre_write_ts[kAccesses] = {};
};

struct RunOutput {
  host::RunResult run;
  uint64_t final_now = 0;
  std::string stats_json;
  uint32_t fault_digest = 0;
};

/// Builds a 2-chip engine, drives one batch of all-multisite update
/// transactions with unique keys (no retries: an abort must stay visible),
/// and shadow-verifies commit-everywhere-or-abort-everywhere per txn.
RunOutput RunBatch(Mode mode, const fault::FaultConfig* fault_cfg,
              uint32_t prepare_timeout_cycles = 0) {
  core::EngineOptions opts;
  opts.n_workers = kChips * kWorkersPerChip;
  opts.workers_per_chip = kWorkersPerChip;
  opts.timing.event_driven = mode == Mode::kEventDriven;
  if (prepare_timeout_cycles > 0) {
    opts.softcore.two_pc.prepare_timeout_cycles = prepare_timeout_cycles;
  }
  core::BionicDb engine(opts);
  sim::DramMemory& dram = engine.simulator().dram();

  std::unique_ptr<fault::FaultScheduler> sched;
  if (fault_cfg != nullptr) {
    sched = std::make_unique<fault::FaultScheduler>(*fault_cfg);
    sched->Attach(&engine);
  }

  workload::YcsbOptions wopts;
  wopts.mode = workload::YcsbOptions::Mode::kMultisiteUpdate;
  wopts.records_per_partition = kRecords;
  wopts.payload_len = 32;
  wopts.accesses_per_txn = kAccesses;
  wopts.updates_per_txn = kAccesses;
  wopts.multisite_fraction = 1.0;
  workload::Ycsb ycsb(&engine, wopts);
  EXPECT_TRUE(ycsb.Setup().ok());

  // Build the batch, then overwrite every key slot with a per-partition
  // unique key (the chosen partitions — slot 0 foreign chip, slot 1 local —
  // are kept): one writer per tuple makes write_ts stamps unambiguous.
  const uint32_t n_workers = kChips * kWorkersPerChip;
  Rng rng(97);
  std::vector<uint64_t> next_key(n_workers, 0);
  host::TxnList txns;
  std::vector<TxnShadow> shadows;
  for (uint32_t w = 0; w < n_workers; ++w) {
    for (uint64_t i = 0; i < kTxnsPerWorker; ++i) {
      const sim::Addr addr = ycsb.MakeTxn(&rng, w);
      db::TxnBlock block(&dram, addr);
      TxnShadow s;
      s.block = addr;
      for (uint32_t a = 0; a < kAccesses; ++a) {
        const auto part = db::PartitionId(block.ReadU64(int64_t(16 * a + 8)));
        const uint64_t key = uint64_t(part) * kRecords + next_key[part]++;
        block.WriteKeyU64(int64_t(16 * a), key);
        s.part[a] = part;
        s.key[a] = key;
        s.new_val[a] = block.ReadU64(int64_t(16 * kAccesses + 8 * a));
      }
      EXPECT_NE(s.part[0] / kWorkersPerChip, w / kWorkersPerChip);
      EXPECT_EQ(s.part[1], w);
      txns.emplace_back(w, addr);
      shadows.push_back(s);
    }
  }
  for (TxnShadow& s : shadows) {
    for (uint32_t a = 0; a < kAccesses; ++a) {
      s.tuple[a] =
          engine.database().FindU64(workload::Ycsb::kTable, s.part[a], s.key[a]);
      EXPECT_NE(s.tuple[a], sim::kNullAddr);
      s.pre_write_ts[a] = db::TupleAccessor(&dram, s.tuple[a]).write_ts();
    }
  }

  RunOutput out;
  out.run = host::RunToCompletion(&engine, txns, /*retry_aborts=*/false);
  out.final_now = engine.now();
  StatsRegistry reg;
  engine.CollectStats(&reg);
  out.stats_json = reg.ToJson();
  if (sched != nullptr) {
    EXPECT_GT(sched->events().size(), 0u);
    out.fault_digest = sched->ScheduleDigest();
    sched->Detach();
  }

  // Shadow verification: whatever outcome the block reports must be
  // reflected consistently on BOTH chips' tuples.
  for (const TxnShadow& s : shadows) {
    db::TxnBlock block(&dram, s.block);
    const db::TxnState st = block.state();
    EXPECT_NE(st, db::TxnState::kPending);
    for (uint32_t a = 0; a < kAccesses; ++a) {
      SCOPED_TRACE("key " + std::to_string(s.key[a]) + " partition " +
                   std::to_string(s.part[a]));
      db::TupleAccessor t(&dram, s.tuple[a]);
      EXPECT_FALSE(t.dirty());  // every prepared mark resolved, both ways
      if (st == db::TxnState::kCommitted) {
        EXPECT_EQ(t.write_ts(), block.commit_ts());
        EXPECT_EQ(dram.Read64(t.payload_addr()), s.new_val[a]);
      } else {
        EXPECT_EQ(t.write_ts(), s.pre_write_ts[a]);
      }
    }
  }
  return out;
}

fault::FaultConfig VotePathFaults() {
  fault::FaultConfig cfg;
  cfg.seed = 77;
  cfg.comm_drop_rate = 0.08;
  cfg.comm_dup_rate = 0.08;
  cfg.comm_delay_rate = 0.08;
  cfg.comm_delay_cycles = 400;
  cfg.comm_class_mask = (1u << uint32_t(comm::MessageClass::kPrepareAck)) |
                        (1u << uint32_t(comm::MessageClass::kCommitReq));
  return cfg;
}

TEST(Cluster2Pc, FaultFreeCommitsEverywhere) {
  RunOutput out = RunBatch(Mode::kSerial, nullptr);
  EXPECT_GT(out.run.submitted, 0u);
  EXPECT_EQ(out.run.committed, out.run.submitted);
  EXPECT_EQ(out.run.failed, 0u);
  // The commits really went through the distributed protocol and the
  // inter-chip tier, not some local shortcut.
  EXPECT_NE(out.stats_json.find("twopc_started"), std::string::npos);
  EXPECT_NE(out.stats_json.find("interchip"), std::string::npos);
}

TEST(Cluster2Pc, VotePathFaultsStayAtomic) {
  // Drop/dup/delay restricted to the PrepareAck and CommitReq classes: the
  // reliability layer retransmits and dedups, the participant decision
  // record makes re-applied decisions no-ops, so transactions still resolve
  // — and whichever way each resolves, the shadow model inside Run()
  // demands it resolved the same way on both chips.
  fault::FaultConfig cfg = VotePathFaults();
  RunOutput out = RunBatch(Mode::kSerial, &cfg);
  EXPECT_GT(out.run.committed, 0u);
  EXPECT_EQ(out.run.committed + out.run.failed, out.run.submitted);
}

TEST(Cluster2Pc, CoordinatorTimeoutAbortsEverywhere) {
  // A prepare timeout far below the inter-chip round trip: every
  // coordinator gives up on its vote round and must abort everywhere —
  // including rolling back the dirty marks already prepared on the foreign
  // chip, delivered through the abort-decision CommitReq.
  RunOutput out = RunBatch(Mode::kSerial, nullptr, /*prepare_timeout_cycles=*/64);
  EXPECT_GT(out.run.submitted, 0u);
  EXPECT_EQ(out.run.committed, 0u);
  EXPECT_EQ(out.run.failed, out.run.submitted);
  EXPECT_NE(out.stats_json.find("twopc_prepare_timeouts"), std::string::npos);
}

/// Engine stats after a small closed-loop run on 4 workers grouped
/// `workers_per_chip` to a chip.
std::string StatsWithChipSize(uint32_t workers_per_chip,
                              workload::YcsbOptions::Mode mode) {
  core::EngineOptions opts;
  opts.n_workers = 4;
  opts.workers_per_chip = workers_per_chip;
  core::BionicDb engine(opts);
  workload::YcsbOptions wopts;
  wopts.mode = mode;
  wopts.records_per_partition = kRecords;
  wopts.payload_len = 32;
  wopts.accesses_per_txn = 4;
  wopts.updates_per_txn = 2;
  wopts.multisite_fraction = 1.0;
  workload::Ycsb ycsb(&engine, wopts);
  EXPECT_TRUE(ycsb.Setup().ok());
  Rng rng(5);
  host::ClosedLoopOptions lopts;
  lopts.inflight_per_worker = 2;
  lopts.txns_per_worker = 10;
  EXPECT_EQ(host::RunClosedLoop(&engine, ycsb.Factory(&rng), lopts).failed,
            0u);
  StatsRegistry reg;
  engine.CollectStats(&reg);
  return reg.ToJson();
}

TEST(ChipGrouping, OneChipOfEveryWorkerIsThePlainEngine) {
  // A chip size that leaves a single chip configures nothing: no 2PC
  // grouping, no inter-chip tier, no 2PC participant stats.
  for (auto mode : {workload::YcsbOptions::Mode::kMultisite,
                    workload::YcsbOptions::Mode::kMultisiteUpdate}) {
    const std::string plain = StatsWithChipSize(0, mode);
    EXPECT_EQ(plain.find("twopc_participant"), std::string::npos);
    EXPECT_EQ(StatsWithChipSize(4, mode), plain);
    EXPECT_EQ(StatsWithChipSize(8, mode), plain);
  }
}

void ExpectSame(const RunOutput& base, const RunOutput& other,
                const char* name) {
  SCOPED_TRACE(name);
  EXPECT_EQ(base.run.submitted, other.run.submitted);
  EXPECT_EQ(base.run.committed, other.run.committed);
  EXPECT_EQ(base.run.failed, other.run.failed);
  EXPECT_EQ(base.run.retries, other.run.retries);
  EXPECT_EQ(base.run.cycles, other.run.cycles);
  EXPECT_EQ(base.final_now, other.final_now);
  EXPECT_EQ(base.fault_digest, other.fault_digest);
  EXPECT_EQ(base.stats_json, other.stats_json);
}

TEST(Cluster2Pc, ModesAgreeUnderVotePathFaults) {
  // The whole 2PC machinery — fabric-tier queueing, fault injection on the
  // vote classes, retransmission, decision resends — must be byte-identical
  // across the per-cycle and event-driven simulators.
  fault::FaultConfig cfg = VotePathFaults();
  const RunOutput serial = RunBatch(Mode::kSerial, &cfg);
  const RunOutput event = RunBatch(Mode::kEventDriven, &cfg);
  ExpectSame(serial, event, "serial vs event_driven");
}

TEST(Cluster2Pc, ModesAgreeOnTimeoutAborts) {
  const RunOutput serial =
      RunBatch(Mode::kSerial, nullptr, /*prepare_timeout_cycles=*/64);
  const RunOutput event =
      RunBatch(Mode::kEventDriven, nullptr, /*prepare_timeout_cycles=*/64);
  ExpectSame(serial, event, "serial vs event_driven");
}

}  // namespace
}  // namespace bionicdb
