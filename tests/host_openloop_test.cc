// Open-loop driver tests: seeded arrival determinism across both
// simulation modes, backpressure/shedding accounting invariants, and the
// quantile-accuracy property tests behind the p50/p99/p999 SLO fields
// (covering the Summary::MergeFrom weighted-merge and tail-histogram
// fixes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "host/arrival.h"
#include "host/driver.h"
#include "workload/kv.h"

namespace bionicdb::host {
namespace {

// --- Quantile accuracy (stats bugfixes) -----------------------------------

double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  double pos = q * double(values.size() - 1);
  size_t lo = size_t(std::floor(pos));
  size_t hi = size_t(std::ceil(pos));
  double frac = pos - double(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

/// A latency-shaped heavy-tailed series: lognormal-ish via exp of a sum of
/// uniforms, deterministic in `seed`.
std::vector<double> HeavyTailedSeries(size_t n, uint64_t seed, double scale) {
  Rng rng(seed);
  std::vector<double> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double u = rng.NextDouble() + rng.NextDouble() + rng.NextDouble();
    v.push_back(scale * std::exp(2.0 * u));  // spans ~3 decades
  }
  return v;
}

TEST(SummaryTail, DeepQuantilesTrackExactSortOnLongSeries) {
  const auto values = HeavyTailedSeries(200'000, 11, 100.0);
  Summary s;
  for (double v : values) s.Add(v);
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = ExactQuantile(values, q);
    const double est = s.Quantile(q);
    // The bucketed tail path's documented bound, plus the rank-vs-
    // interpolation slack of the exact reference.
    EXPECT_NEAR(est, exact, exact * 2 * Summary::kTailRelativeError)
        << "q=" << q;
  }
}

TEST(SummaryTail, ExactWhileSeriesFitsReservoir) {
  const auto values = HeavyTailedSeries(1'000, 13, 1.0);
  Summary s;
  for (double v : values) s.Add(v);
  for (double q : {0.0, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(s.Quantile(q), ExactQuantile(values, q)) << "q=" << q;
  }
}

TEST(SummaryTail, NegativeSeriesFallsBackToReservoir) {
  Summary s;
  Rng rng(7);
  for (int i = 0; i < 20'000; ++i) {
    s.Add(double(rng.NextUint64(1000)) - 500.0);
  }
  // Sanity only: the reservoir path still produces ordered, in-range
  // quantiles for series the tail histogram cannot bucket.
  EXPECT_GE(s.Quantile(0.999), s.Quantile(0.5));
  EXPECT_GE(s.Quantile(0.5), s.min());
  EXPECT_LE(s.Quantile(0.999), s.max());
}

TEST(SummaryMerge, MergedQuantilesTrackExactSort) {
  // A long cheap series merged with a short expensive one: the pre-fix
  // MergeFrom fed other's <=4096 retained elements through Add as fresh
  // samples, which let the short series dominate the merged reservoir and
  // pulled p50/p99 orders of magnitude off the exact answer.
  const auto big = HeavyTailedSeries(500'000, 17, 10.0);
  const auto small = HeavyTailedSeries(5'000, 19, 10'000.0);
  Summary a;
  for (double v : big) a.Add(v);
  Summary b;
  for (double v : small) b.Add(v);
  a.MergeFrom(b);

  std::vector<double> all = big;
  all.insert(all.end(), small.begin(), small.end());
  EXPECT_EQ(a.count(), all.size());
  for (double q : {0.5, 0.99, 0.999}) {
    const double exact = ExactQuantile(all, q);
    EXPECT_NEAR(a.Quantile(q), exact,
                exact * 2 * Summary::kTailRelativeError)
        << "q=" << q;
  }
}

TEST(SummaryMerge, ReservoirWeightsBySeenCountNotRetainedCount) {
  // B saw 1k cheap samples, A saw 100k expensive ones. After B.MergeFrom(A)
  // the merged reservoir must be ~1% cheap (1k of 101k), not the ~25%+ the
  // pre-fix Add-based merge left behind.
  Summary a;
  for (int i = 0; i < 100'000; ++i) a.Add(1000.0);
  Summary b;
  for (int i = 0; i < 1'000; ++i) b.Add(1.0);
  b.MergeFrom(a);

  size_t cheap = 0;
  for (double v : b.reservoir()) cheap += v < 2.0 ? 1 : 0;
  const double frac = double(cheap) / double(b.reservoir().size());
  EXPECT_LT(frac, 0.05) << "reservoir overweights the merge target";
  EXPECT_GT(frac, 0.0001);  // ... but the minority stream is represented
}

TEST(SummaryMerge, MomentsExactAndEmptyTargetIsExactCopy) {
  Summary big;
  for (int i = 1; i <= 50'000; ++i) big.Add(double(i));
  Summary empty;
  empty.MergeFrom(big);
  EXPECT_EQ(empty.count(), big.count());
  EXPECT_DOUBLE_EQ(empty.sum(), big.sum());
  EXPECT_EQ(empty.reservoir(), big.reservoir());  // bit-exact copy
  EXPECT_DOUBLE_EQ(empty.Quantile(0.999), big.Quantile(0.999));

  Summary a;
  a.Add(5);
  a.Add(15);
  Summary c;
  c.Add(-3);
  a.MergeFrom(c);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 17.0);
  EXPECT_DOUBLE_EQ(a.min(), -3.0);
  EXPECT_DOUBLE_EQ(a.max(), 15.0);
}

// --- Arrival processes ----------------------------------------------------

TEST(ArrivalProcess, PoissonHitsOfferedRateAndIsSeedStable) {
  ArrivalOptions opts;
  opts.offered_tps = 1e6;  // at 125 MHz: one arrival per 125 cycles
  opts.seed = 5;
  ArrivalProcess gen(opts, /*clock_mhz=*/125.0);
  ArrivalProcess gen2(opts, /*clock_mhz=*/125.0);
  const int n = 20'000;
  uint64_t last = 0;
  for (int i = 0; i < n; ++i) {
    uint64_t t = gen.Next();
    EXPECT_GE(t, last);
    EXPECT_EQ(t, gen2.Next());  // same seed => same timeline
    last = t;
  }
  const double mean_gap = double(last) / n;
  EXPECT_NEAR(mean_gap, 125.0, 5.0);
}

TEST(ArrivalProcess, BurstyKeepsLongRunRateButClumpsArrivals) {
  ArrivalOptions p;
  p.offered_tps = 1e6;
  p.seed = 9;
  ArrivalOptions b = p;
  b.process = ArrivalOptions::Process::kBursty;

  ArrivalProcess poisson(p, 125.0);
  ArrivalProcess bursty(b, 125.0);
  const int n = 50'000;
  auto gaps = [n](ArrivalProcess* gen) {
    std::vector<double> g;
    uint64_t last = 0;
    for (int i = 0; i < n; ++i) {
      uint64_t t = gen->Next();
      g.push_back(double(t - last));
      last = t;
    }
    return g;
  };
  auto stats = [](const std::vector<double>& g) {
    double mean = 0;
    for (double x : g) mean += x;
    mean /= double(g.size());
    double var = 0;
    for (double x : g) var += (x - mean) * (x - mean);
    var /= double(g.size());
    return std::pair<double, double>(mean, var / (mean * mean));
  };
  auto [pm, pcv2] = stats(gaps(&poisson));
  auto [bm, bcv2] = stats(gaps(&bursty));
  EXPECT_NEAR(bm, pm, 0.15 * pm);  // same long-run offered load
  // Squared coefficient of variation: ~1 for Poisson, well above for MMPP.
  EXPECT_NEAR(pcv2, 1.0, 0.2);
  EXPECT_GT(bcv2, 1.5);
}

// --- Open-loop driver -----------------------------------------------------

struct Fixture {
  explicit Fixture(uint32_t workers, bool event_driven = false) {
    core::EngineOptions opts;
    opts.n_workers = workers;
    opts.timing.event_driven = event_driven;
    engine = std::make_unique<core::BionicDb>(opts);
    workload::KvOptions kopts;
    kopts.ops_per_txn = 4;
    kopts.preload_per_partition = 200;
    kv = std::make_unique<workload::KvBench>(engine.get(), kopts);
    EXPECT_TRUE(kv->Setup().ok());
  }
  std::unique_ptr<core::BionicDb> engine;
  std::unique_ptr<workload::KvBench> kv;
};

OpenLoopOptions LightLoad() {
  OpenLoopOptions opts;
  opts.arrival.offered_tps = 100e3;
  opts.arrival.seed = 3;
  opts.total_txns = 200;
  return opts;
}

TEST(OpenLoop, LightLoadCommitsEverythingWithArrivalToCommitLatency) {
  Fixture f(2);
  Rng rng(3);
  auto result = RunOpenLoop(f.engine.get(), f.kv->Factory(&rng), LightLoad());
  EXPECT_EQ(result.submitted, 200u);
  EXPECT_EQ(result.admitted, 200u);
  EXPECT_EQ(result.dispatched, 200u);
  EXPECT_EQ(result.committed, 200u);
  EXPECT_EQ(result.shed, 0u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.latency_cycles.count(), 200u);
  EXPECT_GT(result.latency_cycles.min(), 0.0);
  EXPECT_GT(result.goodput_tps, 0.0);
  EXPECT_LE(result.goodput_tps, result.offered_tps);
}

/// Everything a BENCH report would carry, minus host wall-clock: the
/// cross-mode determinism contract for open-loop runs.
std::string DeterministicRunJson(Fixture* f, const OpenLoopResult& result) {
  StatsRegistry reg;
  f->engine->CollectStats(&reg);
  RecordOpenLoopStats(result, StatsScope(&reg, "run"),
                      /*include_wall_clock=*/false);
  return reg.ToJson();
}

TEST(OpenLoop, SeededArrivalsAreByteIdenticalAcrossModes) {
  // Overloaded enough that queueing, shedding and retries all engage.
  OpenLoopOptions opts;
  opts.arrival.offered_tps = 2e6;
  opts.arrival.seed = 21;
  opts.total_txns = 400;
  opts.admission_queue_depth = 16;
  opts.inflight_per_worker = 4;

  auto run = [&](bool event_driven) {
    Fixture f(4, event_driven);
    Rng rng(21);
    auto result = RunOpenLoop(f.engine.get(), f.kv->Factory(&rng), opts);
    return DeterministicRunJson(&f, result);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(OpenLoop, BurstyModeIsDeterministicToo) {
  OpenLoopOptions opts;
  opts.arrival.process = ArrivalOptions::Process::kBursty;
  opts.arrival.offered_tps = 1e6;
  opts.arrival.seed = 33;
  opts.total_txns = 300;
  auto run = [&](bool event_driven) {
    Fixture f(2, event_driven);
    Rng rng(33);
    auto result = RunOpenLoop(f.engine.get(), f.kv->Factory(&rng), opts);
    return DeterministicRunJson(&f, result);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(OpenLoop, OverloadShedsAtBoundedQueuesAndAccountingCloses) {
  Fixture f(1);
  OpenLoopOptions opts;
  opts.arrival.offered_tps = 5e6;  // far past a single worker's capacity
  opts.arrival.seed = 8;
  opts.total_txns = 500;
  opts.admission_queue_depth = 8;
  opts.inflight_per_worker = 2;
  Rng rng(8);
  auto result = RunOpenLoop(f.engine.get(), f.kv->Factory(&rng), opts);
  EXPECT_EQ(result.submitted, 500u);
  EXPECT_GT(result.shed_queue_full, 0u);
  EXPECT_EQ(result.submitted,
            result.committed + result.failed + result.shed);
  EXPECT_EQ(result.admitted, result.submitted - result.shed_queue_full);
  EXPECT_EQ(result.dispatched, result.committed + result.failed);
  // Queue depth bounds what can ever be waiting: admitted-but-not-yet-
  // dispatched transactions never exceeded depth per worker, so shedding
  // must have started before the whole offered load was absorbed.
  EXPECT_LT(result.committed, result.submitted);
}

TEST(OpenLoop, QueueingLatencyGrowsWithOfferedLoad) {
  auto p50_at = [](double offered_tps) {
    Fixture f(1);
    OpenLoopOptions opts;
    opts.arrival.offered_tps = offered_tps;
    opts.arrival.seed = 12;
    opts.total_txns = 300;
    opts.admission_queue_depth = 256;
    Rng rng(12);
    auto result = RunOpenLoop(f.engine.get(), f.kv->Factory(&rng), opts);
    EXPECT_GT(result.committed, 0u);
    return result.latency_cycles.Quantile(0.5);
  };
  // Arrival-to-commit latency must include admission-queue wait: at high
  // offered load the same service time is dominated by queueing.
  EXPECT_GT(p50_at(2e6), 2 * p50_at(50e3));
}

TEST(OpenLoop, QueueTimeoutShedsSlowWaiters) {
  Fixture f(1);
  OpenLoopOptions opts;
  opts.arrival.offered_tps = 3e6;
  opts.arrival.seed = 14;
  opts.total_txns = 300;
  opts.admission_queue_depth = 128;
  opts.inflight_per_worker = 2;
  opts.queue_timeout_cycles = 2'000;
  Rng rng(14);
  auto result = RunOpenLoop(f.engine.get(), f.kv->Factory(&rng), opts);
  EXPECT_GT(result.shed_timeout, 0u);
  EXPECT_EQ(result.submitted,
            result.committed + result.failed + result.shed);
}

TEST(OpenLoop, ZeroArrivalsReportZeroRatesWithoutDividing) {
  Fixture f(1);
  OpenLoopOptions opts;
  opts.total_txns = 0;
  Rng rng(1);
  auto result = RunOpenLoop(f.engine.get(), f.kv->Factory(&rng), opts);
  EXPECT_EQ(result.cycles, 0u);
  EXPECT_EQ(result.offered_tps, 0.0);
  EXPECT_EQ(result.goodput_tps, 0.0);
  EXPECT_EQ(result.SimCyclesPerSecond(), 0.0);
}

// --- Closed-loop accounting (bugfix) --------------------------------------

TEST(ClosedLoop, DeadlineDropsAreCountedAsFailures) {
  Fixture f(1);
  // Doomed transactions (missing keys) with retries on: the run can only
  // end by exhausting max_cycles, and the pre-fix driver dropped the
  // in-flight transaction without counting it anywhere.
  ClosedLoopOptions opts;
  opts.inflight_per_worker = 2;
  opts.txns_per_worker = 2;
  opts.max_cycles = 150'000;
  auto result = RunClosedLoop(
      f.engine.get(),
      [&](db::WorkerId) {
        db::TxnBlock block =
            f.engine->AllocateBlock(workload::KvBench::kSearchTxn);
        for (int i = 0; i < 4; ++i) block.WriteKeyU64(8 * i, 9'000'000 + i);
        return block.base();
      },
      opts);
  EXPECT_EQ(result.committed, 0u);
  EXPECT_GT(result.submitted, 0u);
  EXPECT_EQ(result.submitted, result.committed + result.failed);
}

TEST(ClosedLoop, SubmittedEqualsCommittedPlusFailedOnCleanRuns) {
  Fixture f(2);
  Rng rng(6);
  ClosedLoopOptions opts;
  opts.inflight_per_worker = 2;
  opts.txns_per_worker = 15;
  auto result = RunClosedLoop(f.engine.get(), f.kv->Factory(&rng), opts);
  EXPECT_EQ(result.submitted, 30u);
  EXPECT_EQ(result.committed, 30u);
  EXPECT_EQ(result.failed, 0u);
}

}  // namespace
}  // namespace bionicdb::host
