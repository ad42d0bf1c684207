// Chaos harness for the deterministic fault-injection subsystem (src/fault).
//
// Six scenarios, each recorded in BENCH_fault_chaos.json:
//  1. baseline parity  — a zero-rate FaultScheduler must not perturb the
//     simulation (identical committed count and cycle count);
//  2. fault-rate sweep — DRAM spike/stuck windows + worker freezes at
//     increasing intensity: committed-throughput degradation curve;
//  3. comm chaos       — drop/duplicate/delay on a multisite workload with
//     the ack/retransmit/dedup layer: every transaction still commits;
//  4. corruption scrub — random bit flips in CRC-guarded tuple bytes: every
//     flip is detectable (scrub) and detected on access (txn abort), never
//     a silent wrong answer;
//  5. crash + recovery — mid-batch crash, then checkpoint + command-log
//     replay verified against a functional shadow model;
//  6. determinism      — same seed => byte-identical fault schedule
//     (ScheduleDigest) and identical commit/abort outcomes.
//
// Every scenario doubles as an assertion; the binary exits non-zero if any
// invariant fails, which is what the fault_chaos ctest fixture checks.
#include <algorithm>
#include <cinttypes>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/report.h"
#include "fault/fault.h"
#include "fault/recovery.h"
#include "log/command_log.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

using bench::BenchArgs;

/// Pass/fail bookkeeping shared by all scenarios. Checks run in every mode
/// (they are invariants, not smoke-only); `Absorb` tallies injections per
/// fault class so main() can assert full class coverage at the end.
struct ChaosCheck {
  int failures = 0;
  std::map<std::string, uint64_t> injected;

  void Expect(bool ok, const std::string& what) {
    if (ok) {
      std::printf("  [ok]   %s\n", what.c_str());
    } else {
      ++failures;
      std::fprintf(stderr, "  [FAIL] %s\n", what.c_str());
    }
  }

  void Absorb(const fault::FaultScheduler& sched) {
    for (const fault::FaultEvent& e : sched.events()) {
      ++injected[fault::FaultEventKindName(e.kind)];
    }
  }
};

workload::YcsbOptions UpdateOpts(const BenchArgs& args) {
  workload::YcsbOptions o;
  o.mode = workload::YcsbOptions::Mode::kUpdateMix;
  o.records_per_partition = args.smoke ? 400 : args.quick ? 1'000 : 10'000;
  o.payload_len = 32;
  o.accesses_per_txn = 4;
  o.updates_per_txn = 2;
  return o;
}

uint64_t TxnsPerWorker(const BenchArgs& args) {
  return args.smoke ? 100 : args.quick ? 300 : 2'000;
}

core::EngineOptions EngineOpts(const BenchArgs& args) {
  core::EngineOptions o;
  args.ApplyMode(&o);
  o.n_workers = 2;
  return o;
}

/// Builds the seeded transaction list and runs it to completion.
host::RunResult RunYcsb(core::BionicDb* engine, workload::Ycsb* ycsb,
                        uint64_t seed, uint64_t txns_per_worker,
                        bool retry_aborts = true) {
  Rng rng(seed);
  host::TxnList txns;
  for (uint32_t w = 0; w < engine->options().n_workers; ++w) {
    for (uint64_t i = 0; i < txns_per_worker; ++i) {
      txns.emplace_back(w, ycsb->MakeTxn(&rng, w));
    }
  }
  return host::RunToCompletion(engine, txns, retry_aborts);
}

StatsRegistry& Record(bench::BenchReport* report, const std::string& label,
                      core::BionicDb* engine, const host::RunResult& result,
                      const fault::FaultScheduler* sched) {
  StatsRegistry& reg = report->AddEngineRun(label, engine, result);
  if (sched != nullptr) sched->CollectStats(StatsScope(&reg, "fault"));
  return reg;
}

// --- Scenario 1: a zero-rate scheduler must be invisible ------------------

void RunBaselineParity(const BenchArgs& args, bench::BenchReport* report,
                       ChaosCheck* check) {
  bench::PrintHeader("chaos/parity", "zero fault rates leave the run intact");
  const uint64_t txns = TxnsPerWorker(args);

  core::BionicDb plain(EngineOpts(args));
  workload::Ycsb ycsb_plain(&plain, UpdateOpts(args));
  if (!ycsb_plain.Setup().ok()) return;
  host::RunResult base = RunYcsb(&plain, &ycsb_plain, args.seed, txns);
  Record(report, "parity/no_scheduler", &plain, base, nullptr);

  core::BionicDb faulted(EngineOpts(args));
  fault::FaultScheduler sched(fault::FaultConfig{.seed = args.seed});
  sched.Attach(&faulted);  // all rates zero: hooks installed but inert
  workload::Ycsb ycsb_faulted(&faulted, UpdateOpts(args));
  if (!ycsb_faulted.Setup().ok()) return;
  host::RunResult hooked = RunYcsb(&faulted, &ycsb_faulted, args.seed, txns);
  Record(report, "parity/zero_rate_scheduler", &faulted, hooked, &sched);

  check->Expect(base.committed == hooked.committed,
                "zero-rate scheduler: committed count unchanged");
  check->Expect(base.cycles == hooked.cycles,
                "zero-rate scheduler: cycle count unchanged");
  check->Expect(sched.events().empty() && sched.ScheduleDigest() == 0,
                "zero-rate scheduler: no events injected");
  std::printf("  committed=%" PRIu64 " cycles=%" PRIu64 "\n", base.committed,
              base.cycles);
}

// --- Scenario 2: DRAM + worker fault sweep --------------------------------

void RunFaultSweep(const BenchArgs& args, bench::BenchReport* report,
                   ChaosCheck* check) {
  bench::PrintHeader("chaos/sweep",
                     "throughput degradation under DRAM + worker faults");
  struct Level {
    const char* name;
    double mult;
  };
  std::vector<Level> levels = args.smoke
                                  ? std::vector<Level>{{"none", 0}, {"heavy", 4}}
                                  : std::vector<Level>{{"none", 0},
                                                       {"light", 1},
                                                       {"medium", 2},
                                                       {"heavy", 4}};
  TablePrinter table({"faults", "throughput (kTps)", "degradation", "spikes",
                      "stuck", "freezes"});
  double base_tps = 0;
  for (const Level& level : levels) {
    fault::FaultConfig cfg;
    cfg.seed = args.seed;
    cfg.dram_spike_rate = 4e-4 * level.mult;
    cfg.dram_spike_extra_cycles = 64;
    cfg.dram_stuck_rate = 1e-4 * level.mult;
    cfg.dram_stuck_duration = 256;
    cfg.worker_freeze_rate = 1e-4 * level.mult;
    cfg.worker_freeze_cycles = 512;

    core::BionicDb engine(EngineOpts(args));
    fault::FaultScheduler sched(cfg);
    sched.Attach(&engine);
    workload::Ycsb ycsb(&engine, UpdateOpts(args));
    if (!ycsb.Setup().ok()) return;
    host::RunResult r = RunYcsb(&engine, &ycsb, args.seed, TxnsPerWorker(args));
    Record(report, std::string("sweep/") + level.name, &engine, r, &sched);

    if (level.mult == 0) base_tps = r.tps;
    uint64_t spikes = 0, stuck = 0, freezes = 0;
    for (const fault::FaultEvent& e : sched.events()) {
      spikes += e.kind == fault::FaultEvent::Kind::kDramSpike;
      stuck += e.kind == fault::FaultEvent::Kind::kDramStuck;
      freezes += e.kind == fault::FaultEvent::Kind::kWorkerFreeze;
    }
    table.AddRow({level.name, bench::Ktps(r.tps),
                  base_tps > 0
                      ? TablePrinter::Num(100.0 * (1.0 - r.tps / base_tps), 1) +
                            "%"
                      : "-",
                  std::to_string(spikes), std::to_string(stuck),
                  std::to_string(freezes)});
    // Latency/availability faults slow transactions down but never corrupt
    // them: everything must still commit.
    check->Expect(r.failed == 0, std::string("sweep/") + level.name +
                                     ": no transaction permanently failed");
    if (level.mult >= 4) {
      check->Expect(spikes >= 1 && stuck >= 1 && freezes >= 1,
                    "sweep/heavy: every DRAM/worker fault class injected");
      check->Expect(engine.simulator().dram().fault_spike_cycles() > 0,
                    "sweep/heavy: spike windows added DRAM latency");
      check->Expect(engine.simulator().dram().fault_stuck_rejects() > 0,
                    "sweep/heavy: stuck windows rejected admissions");
    }
    check->Absorb(sched);
  }
  table.Print();
}

// --- Scenario 3: lossy channels behind the reliability layer --------------

void RunCommChaos(const BenchArgs& args, bench::BenchReport* report,
                  ChaosCheck* check) {
  bench::PrintHeader("chaos/comm",
                     "drop/duplicate/delay with ack/retransmit/dedup");
  workload::YcsbOptions yopts = UpdateOpts(args);
  yopts.mode = workload::YcsbOptions::Mode::kMultisite;
  yopts.remote_fraction = 0.75;

  fault::FaultConfig cfg;
  cfg.seed = args.seed;
  cfg.comm_drop_rate = 0.02;
  cfg.comm_dup_rate = 0.02;
  cfg.comm_delay_rate = 0.05;
  cfg.comm_delay_cycles = 32;

  core::BionicDb engine(EngineOpts(args));
  fault::FaultScheduler sched(cfg);
  sched.Attach(&engine);  // auto-enables the fabric reliability layer
  workload::Ycsb ycsb(&engine, yopts);
  if (!ycsb.Setup().ok()) return;
  host::RunResult r = RunYcsb(&engine, &ycsb, args.seed, TxnsPerWorker(args));
  Record(report, "comm_chaos/multisite", &engine, r, &sched);

  uint64_t drops = 0, dups = 0, delays = 0;
  for (const fault::FaultEvent& e : sched.events()) {
    drops += e.kind == fault::FaultEvent::Kind::kCommDrop;
    dups += e.kind == fault::FaultEvent::Kind::kCommDup;
    delays += e.kind == fault::FaultEvent::Kind::kCommDelay;
  }
  std::printf("  drops=%" PRIu64 " dups=%" PRIu64 " delays=%" PRIu64
              " retransmits=%" PRIu64 " dedup=%" PRIu64 "\n",
              drops, dups, delays, engine.fabric().retransmits(),
              engine.fabric().counters().Get("duplicates_suppressed"));
  check->Expect(engine.fabric().reliability().enabled,
                "comm chaos: reliability layer auto-enabled");
  check->Expect(drops >= 1 && dups >= 1 && delays >= 1,
                "comm chaos: every comm fault class injected");
  check->Expect(r.failed == 0 && r.committed == r.submitted,
                "comm chaos: every transaction committed despite loss");
  check->Expect(engine.fabric().retransmits() >= 1,
                "comm chaos: dropped packets were retransmitted");
  check->Expect(engine.fabric().counters().Get("duplicates_suppressed") >= 1,
                "comm chaos: duplicate deliveries suppressed");
  check->Absorb(sched);
}

// --- Scenario 4: bit flips are detected, never silent ---------------------

/// Probes every key once through the registered update-mix procedure;
/// returns {committed, aborted} probe counts. Any probe whose hash-chain
/// walk touches a corrupted tuple aborts with CpStatus::kCorrupted.
std::pair<uint64_t, uint64_t> ProbeAllKeys(core::BionicDb* engine,
                                           const workload::YcsbOptions& yopts) {
  const uint32_t n = yopts.accesses_per_txn;
  const uint32_t u = std::min(yopts.updates_per_txn, n);
  const uint64_t r = yopts.records_per_partition;
  std::vector<sim::Addr> blocks;
  for (uint32_t w = 0; w < engine->options().n_workers; ++w) {
    for (uint64_t k0 = 0; k0 < r; k0 += n) {
      db::TxnBlock block = engine->AllocateBlock(workload::Ycsb::kTxnType);
      for (uint32_t i = 0; i < n; ++i) {
        block.WriteKeyU64(int64_t(8 * i), w * r + (k0 + i) % r);
      }
      for (uint32_t i = 0; i < u; ++i) {
        block.WriteU64(int64_t(8 * n + 8 * i), 0xC0FFEEull + i);
      }
      engine->Submit(w, block.base());
      blocks.push_back(block.base());
    }
  }
  engine->Drain();
  uint64_t committed = 0, aborted = 0;
  for (sim::Addr addr : blocks) {
    db::TxnBlock block(&engine->simulator().dram(), addr);
    (block.state() == db::TxnState::kCommitted ? committed : aborted)++;
  }
  return {committed, aborted};
}

void RunCorruptionScrub(const BenchArgs& args, bench::BenchReport* report,
                        ChaosCheck* check) {
  bench::PrintHeader("chaos/corruption",
                     "bit flips in guarded tuple bytes: detected, not silent");
  fault::FaultConfig cfg;
  cfg.seed = args.seed;
  cfg.bitflip_rate = args.smoke ? 2e-4 : 5e-5;

  core::BionicDb engine(EngineOpts(args));
  fault::FaultScheduler sched(cfg);
  sched.Attach(&engine);  // before Setup: bulk-loaded tuples get guards
  workload::YcsbOptions yopts = UpdateOpts(args);
  workload::Ycsb ycsb(&engine, yopts);
  if (!ycsb.Setup().ok()) return;
  // No abort retry: a transaction that touched a corrupted tuple can never
  // succeed (corruption is persistent until repair, which is out of scope).
  host::RunResult r = RunYcsb(&engine, &ycsb, args.seed, TxnsPerWorker(args),
                              /*retry_aborts=*/false);

  std::vector<sim::Addr> flipped = sched.flipped_tuples();
  std::vector<sim::Addr> scrub = sched.ScrubAll();
  std::sort(flipped.begin(), flipped.end());
  // Every corruption the scrub finds must be one we injected, and every
  // injected flip must be detectable by the scrub — zero silent corruption.
  check->Expect(!flipped.empty(), "corruption: at least one bit flipped");
  check->Expect(scrub == flipped,
                "corruption: scrub detects exactly the flipped tuples");

  // Deterministically touch every key so at least one access crosses a
  // corrupted tuple: those probes must abort, not return wrong data.
  auto [probe_ok, probe_aborted] = ProbeAllKeys(&engine, yopts);
  std::printf("  flips=%zu scrubbed=%zu probes ok=%" PRIu64
              " aborted=%" PRIu64 " detections=%" PRIu64 "\n",
              flipped.size(), scrub.size(), probe_ok, probe_aborted,
              sched.corruption_detected());
  check->Expect(probe_aborted >= 1,
                "corruption: probing corrupted keys aborts transactions");
  check->Expect(sched.corruption_detected() >= 1,
                "corruption: CRC guard mismatches were detected on access");

  StatsRegistry& reg = Record(report, "corruption/bitflips", &engine, r,
                              &sched);
  reg.SetCounter("probe/committed", probe_ok);
  reg.SetCounter("probe/aborted", probe_aborted);
  check->Absorb(sched);
}

// --- Scenario 5: mid-batch crash + verified recovery ----------------------

void RunCrashRecovery(const BenchArgs& args, bench::BenchReport* report,
                      ChaosCheck* check) {
  bench::PrintHeader("chaos/crash",
                     "mid-batch crash, command-log replay, shadow verify");
  const workload::YcsbOptions yopts = UpdateOpts(args);
  const uint64_t txns_per_worker = TxnsPerWorker(args);

  fault::FaultConfig cfg;
  cfg.seed = args.seed;
  cfg.dram_spike_rate = 2e-4;
  cfg.worker_freeze_rate = 5e-5;
  cfg.worker_freeze_cycles = 256;

  core::BionicDb crashed(EngineOpts(args));
  fault::FaultScheduler sched(cfg);
  sched.Attach(&crashed);
  workload::Ycsb ycsb(&crashed, yopts);
  if (!ycsb.Setup().ok()) return;
  log::Checkpoint initial = log::Checkpoint::Capture(crashed.database());

  log::CommandLog cmd_log(&crashed);
  Rng rng(args.seed);
  std::vector<std::pair<size_t, sim::Addr>> submitted;
  for (uint32_t w = 0; w < crashed.options().n_workers; ++w) {
    for (uint64_t i = 0; i < txns_per_worker; ++i) {
      sim::Addr block = ycsb.MakeTxn(&rng, w);
      submitted.emplace_back(cmd_log.Append(w, block), block);
      crashed.Submit(w, block);
    }
  }
  // Run to roughly half the batch, then pull the plug mid-flight.
  const uint64_t target = submitted.size() / 2;
  const uint64_t deadline = crashed.now() + (4ull << 30);
  while (crashed.TotalCommitted() < target && crashed.now() < deadline) {
    crashed.Step(256);
  }
  sched.RecordCrash(crashed.now());
  for (const auto& [rec, block] : submitted) cmd_log.MarkOutcome(rec, block);

  uint64_t committed_records = 0;
  for (const log::LogRecord& rec : cmd_log.records()) {
    committed_records += rec.committed;
  }
  const uint64_t lost = submitted.size() - committed_records;
  std::printf("  crash at cycle %" PRIu64 ": %" PRIu64 " committed, %" PRIu64
              " in flight/unsubmitted\n",
              crashed.now(), committed_records, lost);
  check->Expect(committed_records >= 1 && lost >= 1,
                "crash: genuinely mid-batch (some committed, some not)");

  // Recover into a fresh engine: same schema + procedures, no population.
  core::BionicDb recovered(EngineOpts(args));
  for (const db::TableSchema& schema :
       crashed.database().catalogue().tables()) {
    if (!recovered.database().CreateTable(schema).ok()) return;
  }
  const db::ProcedureInfo* proc =
      crashed.database().catalogue().FindProcedure(workload::Ycsb::kTxnType);
  if (proc == nullptr ||
      !recovered
           .RegisterProcedure(workload::Ycsb::kTxnType, proc->program,
                              proc->block_data_size)
           .ok()) {
    check->Expect(false, "crash: procedure re-registration failed");
    return;
  }
  check->Expect(log::Recover(&recovered, initial, cmd_log).ok(),
                "crash: checkpoint + log replay succeeded");

  fault::RecoveryVerifier::Result verdict = fault::RecoveryVerifier::Verify(
      initial, cmd_log,
      fault::MakeYcsbUpdateMixApplier(yopts.records_per_partition,
                                      yopts.accesses_per_txn,
                                      yopts.updates_per_txn),
      recovered.database());
  if (!verdict.equivalent) {
    std::fprintf(stderr, "  first divergence: %s\n",
                 verdict.first_diff.c_str());
  }
  std::printf("  shadow diff: %" PRIu64 " tuples compared, %" PRIu64
              " missing, %" PRIu64 " unexpected, %" PRIu64 " mismatched\n",
              verdict.tuples_compared, verdict.missing, verdict.unexpected,
              verdict.mismatched);
  check->Expect(verdict.applier_errors == 0,
                "crash: shadow applier accepted every committed record");
  check->Expect(verdict.equivalent,
                "crash: recovered state equals shadow reconstruction");

  host::RunResult partial;
  partial.submitted = submitted.size();
  partial.committed = committed_records;
  partial.failed = lost;
  partial.cycles = crashed.now();
  partial.tps = crashed.options().timing.Throughput(committed_records,
                                                    crashed.now());
  StatsRegistry& reg =
      Record(report, "crash_recovery/crashed_engine", &crashed, partial,
             &sched);
  reg.SetCounter("recovery/tuples_compared", verdict.tuples_compared);
  reg.SetCounter("recovery/equivalent", verdict.equivalent ? 1 : 0);
  check->Absorb(sched);
}

// --- Scenario 6: same seed => identical schedule and outcomes -------------

struct ChaosOutcome {
  uint32_t digest = 0;
  size_t events = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t cycles = 0;
};

ChaosOutcome RunChaosOnce(const BenchArgs& args, uint64_t seed,
                          bench::BenchReport* report,
                          const std::string& label, ChaosCheck* check) {
  workload::YcsbOptions yopts = UpdateOpts(args);
  yopts.mode = workload::YcsbOptions::Mode::kMultisite;

  fault::FaultConfig cfg;
  cfg.seed = seed;
  cfg.dram_spike_rate = 2e-4;
  cfg.dram_stuck_rate = 5e-5;
  cfg.dram_stuck_duration = 128;
  cfg.comm_drop_rate = 0.01;
  cfg.comm_dup_rate = 0.01;
  cfg.comm_delay_rate = 0.02;
  cfg.worker_freeze_rate = 5e-5;
  cfg.worker_freeze_cycles = 256;

  core::BionicDb engine(EngineOpts(args));
  fault::FaultScheduler sched(cfg);
  sched.Attach(&engine);
  workload::Ycsb ycsb(&engine, yopts);
  if (!ycsb.Setup().ok()) return {};
  host::RunResult r = RunYcsb(&engine, &ycsb, seed, TxnsPerWorker(args));
  Record(report, label, &engine, r, &sched);
  check->Absorb(sched);
  return {sched.ScheduleDigest(), sched.events().size(), r.committed,
          r.failed,               r.retries,             r.cycles};
}

void RunDeterminism(const BenchArgs& args, bench::BenchReport* report,
                    ChaosCheck* check) {
  bench::PrintHeader("chaos/determinism",
                     "same seed replays the same fault schedule");
  ChaosOutcome a = RunChaosOnce(args, args.seed, report, "determinism/run_a",
                                check);
  ChaosOutcome b = RunChaosOnce(args, args.seed, report, "determinism/run_b",
                                check);
  ChaosOutcome c = RunChaosOnce(args, args.seed + 1, report,
                                "determinism/other_seed", check);
  std::printf("  run_a digest=%08x events=%zu committed=%" PRIu64
              " cycles=%" PRIu64 "\n",
              a.digest, a.events, a.committed, a.cycles);
  check->Expect(a.events > 0, "determinism: chaos run injected faults");
  check->Expect(a.digest == b.digest && a.events == b.events,
                "determinism: same seed => byte-identical fault schedule");
  check->Expect(a.committed == b.committed && a.failed == b.failed &&
                    a.retries == b.retries && a.cycles == b.cycles,
                "determinism: same seed => identical outcomes");
  check->Expect(c.digest != a.digest,
                "determinism: different seed => different schedule");
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  using bionicdb::fault::FaultEvent;
  auto args = bionicdb::bench::BenchArgs::Parse(argc, argv);
  bionicdb::bench::BenchReport report("fault_chaos");
  bionicdb::ChaosCheck check;

  bionicdb::RunBaselineParity(args, &report, &check);
  bionicdb::RunFaultSweep(args, &report, &check);
  bionicdb::RunCommChaos(args, &report, &check);
  bionicdb::RunCorruptionScrub(args, &report, &check);
  bionicdb::RunCrashRecovery(args, &report, &check);
  bionicdb::RunDeterminism(args, &report, &check);

  // Across all scenarios every fault class must have fired at least once.
  for (FaultEvent::Kind kind :
       {FaultEvent::Kind::kDramSpike, FaultEvent::Kind::kDramStuck,
        FaultEvent::Kind::kBitFlip, FaultEvent::Kind::kCommDrop,
        FaultEvent::Kind::kCommDup, FaultEvent::Kind::kCommDelay,
        FaultEvent::Kind::kWorkerFreeze, FaultEvent::Kind::kCrash}) {
    const char* name = bionicdb::fault::FaultEventKindName(kind);
    check.Expect(check.injected[name] >= 1,
                 std::string("coverage: >=1 injected fault of class ") + name);
  }

  report.WriteFile();
  if (check.failures > 0) {
    std::fprintf(stderr, "fault_chaos: %d check(s) FAILED\n", check.failures);
    return 1;
  }
  std::printf("fault_chaos: all chaos checks passed\n");
  return 0;
}
