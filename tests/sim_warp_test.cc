// Differential tests for event-driven cycle skipping (DESIGN.md section
// 10): TimingConfig::event_driven must be invisible in everything except
// wall-clock time. Mock-component tests pin the warp mechanics (clock
// positions, tick counts, Step/RunUntil boundary semantics, busy/idle
// attribution, per-block sleeping, Touch ordering, the schedule kept
// across Step calls and lane wakes only on delivering completions); the
// engine tests
// run real workloads — YCSB variants, TPC-C, multisite on two and four
// partitions, seeded fault chaos, a coprocessor held at its in-flight cap
// — in both modes and assert the final cycle count, commit/abort outcomes
// and the complete engine stats JSON are bit-identical, and that the
// event-driven run let blocks sleep while others ticked. Event-driven is
// the default mode, so every per-cycle reference asks for it explicitly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

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

/// The per-cycle reference every event-driven run is compared against.
sim::TimingConfig PerCycle() {
  sim::TimingConfig t;
  t.event_driven = false;
  return t;
}

TEST(SimWarp, StepCoversEveryCycleExactlyOnce) {
  sim::Simulator base(PerCycle());
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
  fast.SettleAll();  // Step returns with sleeping blocks unsettled
  EXPECT_EQ(pulse.real_ticks_ + pulse.skipped_, 123u);
  fast.Step(1);
  EXPECT_EQ(fast.now(), 124u);
}

TEST(SimWarp, RunUntilBudgetSemanticsMatch) {
  // done() never fires: both modes must exhaust the budget at the same
  // clock position and return false.
  sim::Simulator base(PerCycle());
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

/// Wants every cycle up to `dense_until`, then sleeps until `wake_at`.
class BurstThenSleep : public sim::Component {
 public:
  BurstThenSleep(uint64_t dense_until, uint64_t wake_at)
      : sim::Component("burst"), dense_until_(dense_until), wake_at_(wake_at) {}

  void Tick(uint64_t now) override {
    ++real_ticks_;
    if (now > dense_until_ && now < wake_at_) ++ticks_asleep_;
  }
  bool Idle() const override { return false; }
  uint64_t NextWakeCycle(uint64_t now) const override {
    return now >= dense_until_ && now < wake_at_ ? wake_at_ : now + 1;
  }
  void SkipCycles(uint64_t now, uint64_t count) override {
    (void)now;
    skipped_ += count;
  }

  uint64_t dense_until_;
  uint64_t wake_at_;
  uint64_t real_ticks_ = 0;
  uint64_t ticks_asleep_ = 0;
  uint64_t skipped_ = 0;
};

TEST(SimWarp, SleepingBlockCostsNoTicksBesideADenseOne) {
  // A dense block keeps the clock ticking every cycle; the burst block's
  // 10,000-cycle quiescent span after its 1,000 dense cycles must still
  // cost it zero real ticks, and the bookkeeping must match per-cycle.
  class Dense : public sim::Component {
   public:
    Dense() : sim::Component("dense") {}
    void Tick(uint64_t) override {}
    bool Idle() const override { return true; }
  };
  sim::Simulator base(PerCycle());
  Dense base_dense;
  BurstThenSleep base_burst(1'000, 11'000);
  base.AddComponent(&base_dense);
  base.AddComponent(&base_burst);
  base.Step(12'000);

  sim::Simulator::WarpStats warps[2];
  for (sim::Simulator::WarpStats& w : warps) {
    sim::Simulator fast(EventDriven());
    Dense dense;
    BurstThenSleep burst(1'000, 11'000);
    fast.AddComponent(&dense);
    fast.AddComponent(&burst);
    fast.Step(12'000);
    EXPECT_EQ(fast.now(), 12'000u);
    EXPECT_EQ(burst.ticks_asleep_, 0u);
    // Ticks at 1..1,000 and 11,000..12,000; the 9,999 between are skipped.
    EXPECT_EQ(burst.real_ticks_, 2'001u);
    EXPECT_EQ(burst.real_ticks_ + burst.skipped_, base_burst.real_ticks_);
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(fast.component_cycles()[i].busy,
                base.component_cycles()[i].busy);
      EXPECT_EQ(fast.component_cycles()[i].idle,
                base.component_cycles()[i].idle);
    }
    w = fast.warp_stats();
    EXPECT_EQ(w.warps, 0u);  // the dense block is due every cycle
    EXPECT_EQ(w.block_ticks, 12'000u + 2'001u);
  }
  // Scheduling reads only block state, never host time, so it repeats.
  EXPECT_EQ(warps[0].warps, warps[1].warps);
  EXPECT_EQ(warps[0].skipped_cycles, warps[1].skipped_cycles);
  EXPECT_EQ(warps[0].block_ticks, warps[1].block_ticks);
}

/// Sleeps on kNeverWakes until poked; then works one unit per tick, busy
/// while work remains.
class Sleeper : public sim::Component {
 public:
  Sleeper() : sim::Component("sleeper") {}

  void Poke(uint32_t units) { pending_ += units; }

  void Tick(uint64_t now) override {
    ++real_ticks_;
    if (pending_ > 0) {
      --pending_;
      work_cycles_.push_back(now);
    }
  }
  bool Idle() const override { return pending_ == 0; }
  uint64_t NextWakeCycle(uint64_t now) const override {
    return pending_ > 0 ? now + 1 : sim::kNeverWakes;
  }
  void SkipCycles(uint64_t now, uint64_t count) override {
    (void)now;
    skipped_ += count;
  }

  uint32_t pending_ = 0;
  uint64_t real_ticks_ = 0;
  uint64_t skipped_ = 0;
  std::vector<uint64_t> work_cycles_;
};

/// Due every cycle; at cycle `at` it touches `target` and then pokes it.
class Poker : public sim::Component {
 public:
  Poker(Sleeper* target, uint64_t at)
      : sim::Component("poker"), target_(target), at_(at) {}

  void Tick(uint64_t now) override {
    if (now == at_) {
      target_->Touch();
      target_->Poke(3);
    }
  }
  bool Idle() const override { return false; }

  Sleeper* target_;
  uint64_t at_;
};

struct TouchRun {
  uint64_t sleeper_ticks = 0;  // real ticks + skipped cycles
  uint64_t sleeper_real_ticks = 0;
  std::vector<uint64_t> work_cycles;
  std::vector<sim::Simulator::ComponentCycles> cycles;
};

/// Registers poker and sleeper in the given order, pokes at cycle 500 and
/// runs 1,000 cycles.
TouchRun RunTouch(bool event_driven, bool poker_first) {
  sim::Simulator sim(event_driven ? EventDriven() : PerCycle());
  Sleeper sleeper;
  Poker poker(&sleeper, 500);
  if (poker_first) {
    sim.AddComponent(&poker);
    sim.AddComponent(&sleeper);
  } else {
    sim.AddComponent(&sleeper);
    sim.AddComponent(&poker);
  }
  sim.Step(1'000);
  sim.SettleAll();  // Step returns with sleeping blocks unsettled
  TouchRun out;
  out.sleeper_ticks = sleeper.real_ticks_ + sleeper.skipped_;
  out.sleeper_real_ticks = sleeper.real_ticks_;
  out.work_cycles = sleeper.work_cycles_;
  out.cycles = sim.component_cycles();
  return out;
}

void ExpectTouchRunsMatch(const TouchRun& base, const TouchRun& event) {
  EXPECT_EQ(base.sleeper_ticks, 1'000u);
  EXPECT_EQ(event.sleeper_ticks, base.sleeper_ticks);
  EXPECT_EQ(event.work_cycles, base.work_cycles);
  ASSERT_EQ(event.cycles.size(), base.cycles.size());
  for (size_t i = 0; i < base.cycles.size(); ++i) {
    EXPECT_EQ(event.cycles[i].busy, base.cycles[i].busy);
    EXPECT_EQ(event.cycles[i].idle, base.cycles[i].idle);
  }
  // The sleeper ticks only for its three units of work, never while the
  // poker runs dense around it.
  EXPECT_EQ(event.sleeper_real_ticks, 3u);
}

TEST(SimWarp, TouchBeforeTheTouchedBlocksTurnActsThisCycle) {
  const TouchRun base = RunTouch(false, /*poker_first=*/true);
  const TouchRun event = RunTouch(true, /*poker_first=*/true);
  ExpectTouchRunsMatch(base, event);
  EXPECT_EQ(event.work_cycles, (std::vector<uint64_t>{500, 501, 502}));
}

TEST(SimWarp, TouchAfterTheTouchedBlocksTurnActsNextCycle) {
  const TouchRun base = RunTouch(false, /*poker_first=*/false);
  const TouchRun event = RunTouch(true, /*poker_first=*/false);
  ExpectTouchRunsMatch(base, event);
  EXPECT_EQ(event.work_cycles, (std::vector<uint64_t>{501, 502, 503}));
}

/// Sleeps for good from the start, counting the simulator's reads of its
/// hint and its settles.
class CountingSleeper : public sim::Component {
 public:
  CountingSleeper() : sim::Component("counting_sleeper") {}

  void Tick(uint64_t) override { ++real_ticks_; }
  bool Idle() const override { return true; }
  uint64_t NextWakeCycle(uint64_t) const override {
    ++hint_reads_;
    return sim::kNeverWakes;
  }
  void SkipCycles(uint64_t now, uint64_t count) override {
    (void)now;
    ++skip_calls_;
    skipped_ += count;
  }

  uint64_t real_ticks_ = 0;
  mutable uint64_t hint_reads_ = 0;
  uint64_t skip_calls_ = 0;
  uint64_t skipped_ = 0;
};

TEST(SimWarp, StepKeepsTheScheduleAcrossCalls) {
  // The host loops step in 50-cycle quanta. Only the first Step reads the
  // sleeping block's hint; later Steps reuse the schedule and leave the
  // block unsettled, and one SettleAll charges the whole span at once.
  sim::Simulator sim(EventDriven());
  CountingSleeper block;
  sim.AddComponent(&block);
  sim.Step(50);
  sim.SettleAll();
  const uint64_t hint_reads = block.hint_reads_;
  const uint64_t skip_calls = block.skip_calls_;
  const uint64_t skipped = block.skipped_;
  EXPECT_EQ(hint_reads, 1u);
  EXPECT_EQ(skipped, 50u);
  for (int i = 0; i < 100; ++i) sim.Step(50);
#ifdef NDEBUG
  EXPECT_EQ(block.hint_reads_, hint_reads);
#else
  // The debug schedule check reads every hint once per Step.
  EXPECT_EQ(block.hint_reads_, hint_reads + 100);
#endif
  EXPECT_EQ(block.skip_calls_, skip_calls);
  sim.SettleAll();
  EXPECT_EQ(block.skip_calls_, skip_calls + 1);
  EXPECT_EQ(block.skipped_ - skipped, 5'000u);
  EXPECT_EQ(block.real_ticks_, 0u);
  EXPECT_EQ(sim.component_cycles()[0].idle, sim.now());
}

/// At its first tick issues a posted write (no sink) and schedules its
/// own wake `gap` cycles later, where it issues a read with a response;
/// then sleeps until the response arrives. Records every tick.
class PostedThenRead : public sim::Component {
 public:
  PostedThenRead(sim::DramMemory* dram, uint64_t gap)
      : sim::Component("posted_then_read"), dram_(dram), gap_(gap) {}

  void Tick(uint64_t now) override {
    ticks_.push_back(now);
    if (write_at_ == 0) {
      ASSERT_TRUE(dram_->Issue(now, 0x4000, /*is_write=*/true, nullptr, 0));
      write_at_ = now;
    } else if (now == write_at_ + gap_) {
      ASSERT_TRUE(dram_->Issue(now, 0x8000, /*is_write=*/false, &resp_, 0));
    } else if (!resp_.empty()) {
      resp_.pop_front();
      done_ = true;
    }
  }
  bool Idle() const override { return done_; }
  uint64_t NextWakeCycle(uint64_t now) const override {
    if (write_at_ == 0) return now + 1;
    return now < write_at_ + gap_ ? write_at_ + gap_ : sim::kNeverWakes;
  }

  sim::DramMemory* dram_;
  uint64_t gap_;
  uint64_t write_at_ = 0;
  sim::MemResponseQueue resp_;
  bool done_ = false;
  std::vector<uint64_t> ticks_;
};

TEST(SimWarp, PostedCompletionWakesNobody) {
  // The posted write completes while the block sleeps toward its own
  // wake; its lane delivers nothing the block can see, so the block ticks
  // only at its first cycle, its own wake and the read's response.
  sim::TimingConfig timing = EventDriven();
  timing.dram_latency_cycles = 40;
  sim::Simulator sim(timing);
  PostedThenRead block(&sim.dram(), /*gap=*/100);
  sim.AddComponent(&block, /*partition=*/0);
  ASSERT_TRUE(sim.RunUntilIdle(10'000));
  ASSERT_EQ(block.ticks_.size(), 3u);
  EXPECT_EQ(block.ticks_[0], 1u);
  EXPECT_EQ(block.ticks_[1], 101u);
  EXPECT_EQ(block.ticks_[2], 101u + 40u);
  EXPECT_TRUE(sim.dram().Idle());
}

// --- Engine differential runs ------------------------------------------

struct Outcome {
  host::RunResult run;
  uint64_t final_now = 0;
  std::string stats_json;
  uint64_t warps = 0;
  uint64_t skipped_cycles = 0;
  uint64_t block_ticks = 0;
  uint64_t blocks = 0;
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
  // Per-block gating engaged: some block slept through a cycle in which
  // another one ticked.
  EXPECT_LT(event.block_ticks,
            event.blocks * (event.final_now - event.skipped_cycles));
}

Outcome Finish(core::BionicDb* engine, host::RunResult run) {
  Outcome out;
  out.run = run;
  out.final_now = engine->now();
  StatsRegistry reg;
  engine->CollectStats(&reg);
  out.stats_json = reg.ToJson();
  out.warps = engine->simulator().warp_stats().warps;
  out.skipped_cycles = engine->simulator().warp_stats().skipped_cycles;
  out.block_ticks = engine->simulator().warp_stats().block_ticks;
  out.blocks = engine->simulator().components().size();
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

/// A coprocessor held at its in-flight cap: two slots against sixteen
/// reads per transaction and 4x DRAM latency, so the softcore spends most
/// cycles retrying a dispatch the full coprocessor rejects. Those retries
/// are quiescent until the coprocessor frees a slot.
Outcome RunCapSaturated(bool event_driven) {
  core::EngineOptions opts;
  opts.n_workers = 2;
  opts.coproc.max_inflight = 2;
  opts.timing.dram_latency_cycles = 380;
  opts.timing.event_driven = event_driven;
  core::BionicDb engine(opts);
  workload::YcsbOptions yopts = SmallYcsb(workload::YcsbOptions::Mode::kReadOnly);
  yopts.accesses_per_txn = 16;
  workload::Ycsb ycsb(&engine, yopts);
  EXPECT_TRUE(ycsb.Setup().ok());
  Rng rng(31);
  host::TxnList txns;
  for (uint32_t w = 0; w < opts.n_workers; ++w) {
    for (uint64_t i = 0; i < 20; ++i) {
      txns.emplace_back(w, ycsb.MakeTxn(&rng, w));
    }
  }
  Outcome out = Finish(&engine, host::RunToCompletion(&engine, txns));
  for (uint32_t w = 0; w < opts.n_workers; ++w) {
    core::PartitionWorker& worker = engine.worker(w);
    EXPECT_GT(worker.coprocessor().counters().Get("cap_rejects"), 0u);
    EXPECT_GT(worker.softcore().counters().Get("dispatch_stall_cycles"), 0u);
  }
  return out;
}

TEST(SimWarpEngine, CapSaturatedDispatchSpins) {
  const Outcome base = RunCapSaturated(false);
  const Outcome event = RunCapSaturated(true);
  // Includes coproc/cap_rejects, softcore/dispatch_stall_cycles and the
  // backpressure bucket of every worker's cycle breakdown.
  ExpectIdentical(base, event);
  // The spins are skipped, not ticked.
  EXPECT_GE(2 * event.skipped_cycles, event.final_now);
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
