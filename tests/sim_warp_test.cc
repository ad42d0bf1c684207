// Differential tests for event-driven cycle skipping (DESIGN.md section
// 10): TimingConfig::event_driven must be invisible in everything except
// wall-clock time. Mock-component tests pin the warp mechanics (clock
// positions, tick counts, Step/RunUntil boundary semantics, busy/idle
// attribution); the engine tests run real workloads — YCSB variants,
// TPC-C, multisite on two and four partitions, seeded fault chaos — in
// both modes and assert the final cycle count, commit/abort outcomes and
// the complete engine stats JSON are bit-identical.
#include <gtest/gtest.h>

#include <string>

#include "common/stats.h"
#include "fault/fault.h"
#include "host/driver.h"
#include "sim/component.h"
#include "sim/simulator.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

// --- Warp mechanics on mock components ---------------------------------

/// Does "work" on every cycle divisible by `period`; quiescent between.
class PulseComponent : public sim::Component {
 public:
  explicit PulseComponent(uint64_t period)
      : sim::Component("pulse"), period_(period) {}

  void Tick(uint64_t now) override {
    ++real_ticks_;
    if (now % period_ == 0) ++work_done_;
  }
  bool Idle() const override { return false; }
  uint64_t NextWakeCycle(uint64_t now) const override {
    return now - (now % period_) + period_;
  }
  void SkipCycles(uint64_t now, uint64_t count) override {
    (void)now;
    skipped_ += count;
  }

  uint64_t period_;
  uint64_t real_ticks_ = 0;
  uint64_t work_done_ = 0;
  uint64_t skipped_ = 0;
};

sim::TimingConfig EventDriven() {
  sim::TimingConfig t;
  t.event_driven = true;
  return t;
}

TEST(SimWarp, StepCoversEveryCycleExactlyOnce) {
  sim::Simulator base;  // cycle-by-cycle
  PulseComponent base_pulse(50);
  base.AddComponent(&base_pulse);
  base.Step(1000);

  sim::Simulator fast(EventDriven());
  PulseComponent fast_pulse(50);
  fast.AddComponent(&fast_pulse);
  fast.Step(1000);

  EXPECT_EQ(base.now(), 1000u);
  EXPECT_EQ(fast.now(), 1000u);
  EXPECT_EQ(base_pulse.work_done_, fast_pulse.work_done_);
  // Every skipped cycle is accounted exactly once, none ticked twice.
  EXPECT_EQ(fast_pulse.real_ticks_ + fast_pulse.skipped_, 1000u);
  EXPECT_LT(fast_pulse.real_ticks_, 1000u / 50 * 2 + 2);
  EXPECT_GT(fast.warp_stats().skipped_cycles, 0u);
  EXPECT_EQ(base.warp_stats().skipped_cycles, 0u);
  // Busy/idle attribution identical (pulse always reports busy).
  ASSERT_EQ(base.component_cycles().size(), fast.component_cycles().size());
  EXPECT_EQ(base.component_cycles()[0].busy, fast.component_cycles()[0].busy);
  EXPECT_EQ(base.component_cycles()[0].idle, fast.component_cycles()[0].idle);
}

TEST(SimWarp, StepBoundaryNeverOvershoots) {
  // A component whose next wake is far past the Step target: the warp must
  // clamp at the target, not jump to the wake.
  sim::Simulator fast(EventDriven());
  PulseComponent pulse(100'000);
  fast.AddComponent(&pulse);
  fast.Step(123);
  EXPECT_EQ(fast.now(), 123u);
  EXPECT_EQ(pulse.real_ticks_ + pulse.skipped_, 123u);
  fast.Step(1);
  EXPECT_EQ(fast.now(), 124u);
}

TEST(SimWarp, RunUntilBudgetSemanticsMatch) {
  // done() never fires: both modes must exhaust the budget at the same
  // clock position and return false.
  sim::Simulator base;
  PulseComponent base_pulse(64);
  base.AddComponent(&base_pulse);
  EXPECT_FALSE(base.RunUntil([] { return false; }, 500));

  sim::Simulator fast(EventDriven());
  PulseComponent fast_pulse(64);
  fast.AddComponent(&fast_pulse);
  EXPECT_FALSE(fast.RunUntil([] { return false; }, 500));

  EXPECT_EQ(base.now(), 500u);
  EXPECT_EQ(fast.now(), 500u);
  EXPECT_EQ(base_pulse.work_done_, fast_pulse.work_done_);
  EXPECT_EQ(fast_pulse.real_ticks_ + fast_pulse.skipped_, 500u);
}

TEST(SimWarp, DefaultHintKeepsUnauditedComponentsCycleExact) {
  // A component that does NOT override NextWakeCycle must be ticked every
  // single cycle even in event-driven mode (the conservative default).
  class PerCycle : public sim::Component {
   public:
    PerCycle() : sim::Component("per_cycle") {}
    void Tick(uint64_t) override { ++ticks_; }
    bool Idle() const override { return true; }
    uint64_t ticks_ = 0;
  };
  sim::Simulator fast(EventDriven());
  PerCycle c;
  fast.AddComponent(&c);
  fast.Step(200);
  EXPECT_EQ(c.ticks_, 200u);
  EXPECT_EQ(fast.warp_stats().warps, 0u);
}

// --- Engine differential runs ------------------------------------------

struct Outcome {
  host::RunResult run;
  uint64_t final_now = 0;
  std::string stats_json;
  uint64_t warps = 0;
  uint32_t fault_digest = 0;
};

void ExpectIdentical(const Outcome& base, const Outcome& event) {
  EXPECT_EQ(base.run.submitted, event.run.submitted);
  EXPECT_EQ(base.run.committed, event.run.committed);
  EXPECT_EQ(base.run.failed, event.run.failed);
  EXPECT_EQ(base.run.retries, event.run.retries);
  EXPECT_EQ(base.run.cycles, event.run.cycles);
  EXPECT_EQ(base.final_now, event.final_now);
  EXPECT_EQ(base.fault_digest, event.fault_digest);
  // The full stats tree — per-worker cycle breakdowns, component busy/idle,
  // DRAM channel counters, pipeline stall counters — must match to the bit.
  EXPECT_EQ(base.stats_json, event.stats_json);
  // The baseline never warps; the event-driven run is expected to (all
  // these workloads contain DRAM-quiescent spans).
  EXPECT_EQ(base.warps, 0u);
  EXPECT_GT(event.warps, 0u);
}

Outcome Finish(core::BionicDb* engine, host::RunResult run) {
  Outcome out;
  out.run = run;
  out.final_now = engine->now();
  StatsRegistry reg;
  engine->CollectStats(&reg);
  out.stats_json = reg.ToJson();
  out.warps = engine->simulator().warp_stats().warps;
  return out;
}

workload::YcsbOptions SmallYcsb(workload::YcsbOptions::Mode mode) {
  workload::YcsbOptions o;
  o.mode = mode;
  o.records_per_partition = 200;
  o.payload_len = 32;
  o.accesses_per_txn = 4;
  o.updates_per_txn = 2;
  o.scan_len = 10;
  return o;
}

Outcome RunYcsb(bool event_driven, workload::YcsbOptions::Mode mode,
                uint32_t n_workers = 2) {
  core::EngineOptions opts;
  opts.n_workers = n_workers;
  opts.timing.event_driven = event_driven;
  core::BionicDb engine(opts);
  workload::Ycsb ycsb(&engine, SmallYcsb(mode));
  EXPECT_TRUE(ycsb.Setup().ok());
  Rng rng(11);
  host::TxnList txns;
  for (uint32_t w = 0; w < opts.n_workers; ++w) {
    for (uint64_t i = 0; i < 40; ++i) {
      txns.emplace_back(w, ycsb.MakeTxn(&rng, w));
    }
  }
  return Finish(&engine, host::RunToCompletion(&engine, txns));
}

TEST(SimWarpEngine, YcsbReadOnly) {
  ExpectIdentical(RunYcsb(false, workload::YcsbOptions::Mode::kReadOnly),
                  RunYcsb(true, workload::YcsbOptions::Mode::kReadOnly));
}

TEST(SimWarpEngine, YcsbUpdateMix) {
  ExpectIdentical(RunYcsb(false, workload::YcsbOptions::Mode::kUpdateMix),
                  RunYcsb(true, workload::YcsbOptions::Mode::kUpdateMix));
}

TEST(SimWarpEngine, YcsbScanOnly) {
  ExpectIdentical(RunYcsb(false, workload::YcsbOptions::Mode::kScanOnly),
                  RunYcsb(true, workload::YcsbOptions::Mode::kScanOnly));
}

TEST(SimWarpEngine, YcsbMultisite) {
  ExpectIdentical(RunYcsb(false, workload::YcsbOptions::Mode::kMultisite),
                  RunYcsb(true, workload::YcsbOptions::Mode::kMultisite));
}

TEST(SimWarpEngine, YcsbMultisiteFourWorkers) {
  // The default chip shape (four partition workers): every transaction
  // crosses the on-chip fabric to three peers.
  ExpectIdentical(
      RunYcsb(false, workload::YcsbOptions::Mode::kMultisite, 4),
      RunYcsb(true, workload::YcsbOptions::Mode::kMultisite, 4));
}

Outcome RunTpcc(bool event_driven) {
  core::EngineOptions opts;
  opts.n_workers = 2;
  opts.softcore.max_contexts = 4;
  opts.timing.event_driven = event_driven;
  core::BionicDb engine(opts);
  workload::Tpcc tpcc(&engine, workload::TpccTestOptions());
  EXPECT_TRUE(tpcc.Setup().ok());
  Rng rng(5);
  host::TxnList txns;
  for (uint32_t w = 0; w < opts.n_workers; ++w) {
    for (uint64_t i = 0; i < 30; ++i) {
      txns.emplace_back(w, tpcc.MakeMixed(&rng, w));
    }
  }
  return Finish(&engine, host::RunToCompletion(&engine, txns));
}

TEST(SimWarpEngine, TpccMix) {
  ExpectIdentical(RunTpcc(false), RunTpcc(true));
}

/// Post-refactor differential leg for the dense-activity regime the
/// hot-path work optimizes (bench/sim_speed's "dense" leg shape: low DRAM
/// latency, deep context pool, short transactions): high occupancy keeps
/// the SoA tick loop, ring queues and arena page cache under constant
/// pressure, so any warp-visible divergence they introduce lands here.
Outcome RunDense(bool event_driven) {
  core::EngineOptions opts;
  opts.n_workers = 4;
  opts.softcore.max_contexts = 64;
  opts.timing.dram_latency_cycles = 12;
  opts.timing.event_driven = event_driven;
  core::BionicDb engine(opts);
  workload::YcsbOptions yopts = SmallYcsb(workload::YcsbOptions::Mode::kMultisite);
  yopts.accesses_per_txn = 8;
  workload::Ycsb ycsb(&engine, yopts);
  EXPECT_TRUE(ycsb.Setup().ok());
  Rng rng(23);
  host::TxnList txns;
  for (uint32_t w = 0; w < opts.n_workers; ++w) {
    for (uint64_t i = 0; i < 30; ++i) {
      txns.emplace_back(w, ycsb.MakeTxn(&rng, w));
    }
  }
  return Finish(&engine, host::RunToCompletion(&engine, txns));
}

TEST(SimWarpEngine, DenseActivity) {
  ExpectIdentical(RunDense(false), RunDense(true));
}

Outcome RunChaos(bool event_driven) {
  // Every fault class enabled: DRAM spike/stuck windows, bit flips,
  // channel drop/dup/delay (which auto-enables the reliability layer),
  // worker freezes. The precomputed geometric schedule must fire at the
  // same cycles in both modes (digest compared via ExpectIdentical).
  fault::FaultConfig cfg;
  cfg.seed = 23;
  cfg.dram_spike_rate = 5e-4;
  cfg.dram_spike_extra_cycles = 32;
  cfg.dram_stuck_rate = 1e-4;
  cfg.dram_stuck_duration = 64;
  cfg.bitflip_rate = 2e-4;
  cfg.comm_drop_rate = 2e-3;
  cfg.comm_dup_rate = 1e-3;
  cfg.comm_delay_rate = 1e-3;
  cfg.comm_delay_cycles = 32;
  cfg.worker_freeze_rate = 1e-4;
  cfg.worker_freeze_cycles = 64;

  core::EngineOptions opts;
  opts.n_workers = 2;
  opts.timing.event_driven = event_driven;
  core::BionicDb engine(opts);
  fault::FaultScheduler sched(cfg);
  sched.Attach(&engine);
  workload::Ycsb ycsb(
      &engine, SmallYcsb(workload::YcsbOptions::Mode::kMultisite));
  EXPECT_TRUE(ycsb.Setup().ok());
  Rng rng(23);
  host::TxnList txns;
  for (uint32_t w = 0; w < opts.n_workers; ++w) {
    for (uint64_t i = 0; i < 40; ++i) {
      txns.emplace_back(w, ycsb.MakeTxn(&rng, w));
    }
  }
  host::RunResult run = host::RunToCompletion(&engine, txns);
  EXPECT_GT(sched.events().size(), 0u);
  Outcome out = Finish(&engine, run);
  out.fault_digest = sched.ScheduleDigest();
  sched.Detach();
  return out;
}

TEST(SimWarpEngine, FaultChaos) {
  ExpectIdentical(RunChaos(false), RunChaos(true));
}

}  // namespace
}  // namespace bionicdb
