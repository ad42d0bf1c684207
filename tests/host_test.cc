// Host driver tests: retry semantics, failure accounting, determinism.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "host/driver.h"
#include "isa/program.h"
#include "common/random.h"
#include "workload/kv.h"

namespace bionicdb::host {
namespace {

struct Fixture {
  explicit Fixture(uint32_t workers = 1, uint32_t workers_per_chip = 0) {
    core::EngineOptions opts;
    opts.n_workers = workers;
    opts.workers_per_chip = workers_per_chip;
    engine = std::make_unique<core::BionicDb>(opts);
    workload::KvOptions kopts;
    kopts.ops_per_txn = 4;
    kopts.preload_per_partition = 100;
    kv = std::make_unique<workload::KvBench>(engine.get(), kopts);
    EXPECT_TRUE(kv->Setup().ok());
  }
  std::unique_ptr<core::BionicDb> engine;
  std::unique_ptr<workload::KvBench> kv;
};

TEST(Driver, CountsCommitsAndComputesThroughput) {
  Fixture f;
  Rng rng(1);
  TxnList txns;
  for (int i = 0; i < 5; ++i) {
    txns.emplace_back(0, f.kv->MakeSearchTxn(&rng, 0));
  }
  RunResult r = RunToCompletion(f.engine.get(), txns);
  EXPECT_EQ(r.submitted, 5u);
  EXPECT_EQ(r.committed, 5u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GT(r.tps, 0.0);
  EXPECT_DOUBLE_EQ(r.Mtps(), r.tps / 1e6);
}

TEST(Driver, NoRetryLeavesFailuresAborted) {
  Fixture f;
  // A search transaction over missing keys aborts deterministically.
  db::TxnBlock block =
      f.engine->AllocateBlock(workload::KvBench::kSearchTxn);
  for (int i = 0; i < 4; ++i) block.WriteKeyU64(8 * i, 900000 + i);
  RunResult r = RunToCompletion(f.engine.get(), {{0, block.base()}},
                                /*retry_aborts=*/false);
  EXPECT_EQ(r.committed, 0u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(block.state(), db::TxnState::kAborted);
}

TEST(Driver, RetryBudgetBoundsDoomedTransactions) {
  Fixture f;
  db::TxnBlock block =
      f.engine->AllocateBlock(workload::KvBench::kSearchTxn);
  for (int i = 0; i < 4; ++i) block.WriteKeyU64(8 * i, 900000 + i);
  RunResult r = RunToCompletion(f.engine.get(), {{0, block.base()}},
                                /*retry_aborts=*/true, /*max_rounds=*/5);
  EXPECT_EQ(r.committed, 0u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_GE(r.retries, 4u);  // retried every round until the budget
}

TEST(Driver, DeterministicAcrossIdenticalRuns) {
  uint64_t cycles[2];
  for (int run = 0; run < 2; ++run) {
    Fixture f(2);
    Rng rng(7);
    TxnList txns;
    for (uint32_t w = 0; w < 2; ++w) {
      for (int i = 0; i < 10; ++i) {
        txns.emplace_back(w, f.kv->MakeSearchTxn(&rng, w));
      }
    }
    RunResult r = RunToCompletion(f.engine.get(), txns);
    EXPECT_EQ(r.committed, 20u);
    cycles[run] = r.cycles;
  }
  EXPECT_EQ(cycles[0], cycles[1]);  // bit-for-bit replay
}


TEST(ClosedLoop, CommitsTargetAndMeasuresLatency) {
  Fixture f(2);
  Rng rng(3);
  host::ClosedLoopOptions opts;
  opts.inflight_per_worker = 2;
  opts.txns_per_worker = 20;
  auto result = RunClosedLoop(
      f.engine.get(),
      [&](db::WorkerId w) { return f.kv->MakeSearchTxn(&rng, w); }, opts);
  EXPECT_EQ(result.committed, 40u);
  EXPECT_EQ(result.latency_cycles.count(), 40u);
  ASSERT_EQ(result.chips.size(), 1u);  // one chip holds every outcome
  EXPECT_EQ(result.chips[0].committed, 40u);
  EXPECT_GT(result.latency_cycles.min(), 0.0);
  // Quantiles are ordered.
  EXPECT_LE(result.latency_cycles.Quantile(0.5),
            result.latency_cycles.Quantile(0.99));
  EXPECT_GT(result.tps, 0.0);
}

TEST(ClosedLoop, RowsPerChipOfTheEngineSumToTheTotals) {
  // The loop reads the grouping from the engine: workers 0-1 and 2-3 are
  // two chips.
  Fixture f(/*workers=*/4, /*workers_per_chip=*/2);
  Rng rng(5);
  host::ClosedLoopOptions opts;
  opts.inflight_per_worker = 2;
  opts.txns_per_worker = 10;
  auto result = RunClosedLoop(
      f.engine.get(),
      [&](db::WorkerId w) { return f.kv->MakeSearchTxn(&rng, w); }, opts);
  EXPECT_EQ(result.committed, 40u);
  ASSERT_EQ(result.chips.size(), 2u);
  ClosedLoopResult::ChipResult sum;
  for (const auto& chip : result.chips) {
    EXPECT_EQ(chip.submitted, 20u);  // two workers x 10 transactions
    EXPECT_EQ(chip.committed + chip.failed, chip.submitted);
    EXPECT_EQ(chip.latency_cycles.count(), chip.committed);
    sum.submitted += chip.submitted;
    sum.committed += chip.committed;
    sum.failed += chip.failed;
    sum.retries += chip.retries;
    sum.latency_cycles.MergeFrom(chip.latency_cycles);
  }
  EXPECT_EQ(sum.submitted, result.submitted);
  EXPECT_EQ(sum.committed, result.committed);
  EXPECT_EQ(sum.failed, result.failed);
  EXPECT_EQ(sum.retries, result.retries);
  EXPECT_EQ(sum.latency_cycles.count(), result.latency_cycles.count());
  EXPECT_DOUBLE_EQ(sum.latency_cycles.max(), result.latency_cycles.max());
}

TEST(ClosedLoop, HigherLoadRaisesThroughputAndLatency) {
  double tps[2];
  double p50[2];
  for (int i = 0; i < 2; ++i) {
    Fixture f(1);
    Rng rng(4);
    host::ClosedLoopOptions opts;
    opts.inflight_per_worker = i == 0 ? 1 : 8;
    opts.txns_per_worker = 60;
    auto result = RunClosedLoop(
        f.engine.get(),
        [&](db::WorkerId w) { return f.kv->MakeSearchTxn(&rng, w); }, opts);
    EXPECT_EQ(result.committed, 60u);
    tps[i] = result.tps;
    p50[i] = result.latency_cycles.Quantile(0.5);
  }
  EXPECT_GT(tps[1], tps[0]);  // more offered load, more throughput
  EXPECT_GT(p50[1], p50[0]);  // ...and more queueing latency
}

TEST(ClosedLoop, RetriesAbortsInPlace) {
  Fixture f(1);
  // Factory that produces transactions probing a MISSING key every other
  // time would livelock under retry; instead use conflicting updates via
  // the search table: simplest conflict-free check is that a doomed txn
  // respects max_cycles. Probe missing keys with retry ON and a small
  // cycle budget: the driver must terminate.
  host::ClosedLoopOptions opts;
  opts.inflight_per_worker = 1;
  opts.txns_per_worker = 1;
  opts.max_cycles = 200'000;
  auto result = RunClosedLoop(
      f.engine.get(),
      [&](db::WorkerId) {
        db::TxnBlock block =
            f.engine->AllocateBlock(workload::KvBench::kSearchTxn);
        for (int i = 0; i < 4; ++i) block.WriteKeyU64(8 * i, 5'000'000 + i);
        return block.base();
      },
      opts);
  EXPECT_EQ(result.committed, 0u);
  EXPECT_GT(result.retries, 0u);
}

TEST(Sweep, ResultsComeBackInJobOrder) {
  // Each job builds and loads its own engine (whose Populate runs serially
  // inside the sweep's loop) and records what it read back.
  std::vector<SweepJob> jobs;
  for (uint32_t i = 0; i < 9; ++i) {
    jobs.push_back({"point" + std::to_string(i), [i](StatsRegistry* reg) {
                      Fixture f(2);
                      reg->SetCounter("index", i);
                      reg->SetCounter(
                          "allocated",
                          f.engine->simulator().dram().allocated_bytes());
                    }});
  }
  const std::vector<SweepResult> results = RunSweep(jobs, /*max_hosts=*/4);
  ASSERT_EQ(results.size(), jobs.size());
  for (uint32_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].label, "point" + std::to_string(i));
    EXPECT_EQ(results[i].stats.counters().at("index"), i);
    EXPECT_EQ(results[i].stats.counters().at("allocated"),
              results[0].stats.counters().at("allocated"));
  }
}

TEST(Sweep, RethrowsTheLowestIndexJobsException) {
  // Job 6 throws at once, job 3 only after a pause: the sweep must still
  // join every thread and hand the caller job 3's exception, the one a
  // serial loop would have thrown.
  std::vector<SweepJob> jobs;
  for (uint32_t i = 0; i < 8; ++i) {
    jobs.push_back({"point" + std::to_string(i), [i](StatsRegistry*) {
                      if (i == 3) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(50));
                        throw std::runtime_error("job 3");
                      }
                      if (i == 6) throw std::runtime_error("job 6");
                    }});
  }
  for (uint32_t hosts : {1u, 4u}) {
    SCOPED_TRACE(hosts);
    try {
      RunSweep(jobs, hosts);
      ADD_FAILURE() << "no exception reached the caller";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 3");
    }
  }
}

}  // namespace
}  // namespace bionicdb::host
