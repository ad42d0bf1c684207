// Simulator-speed harness: how much wall-clock time does event-driven
// cycle skipping (TimingConfig::event_driven, the default mode; DESIGN.md
// section 10) save over per-cycle ticking, and is it really free?
//
// Each leg runs the exact same workload in both modes — cycle-by-cycle,
// then event-driven — on freshly built engines, asserts the two modes
// agree bit-for-bit (committed/failed/retries, final cycle count, the
// full engine stats JSON), and reports simulated-cycles-per-wall-second
// for both plus the speedup, and how many blocks the event-driven run
// ticked per simulated cycle. Each (leg, mode) is timed over repeated runs
// on fresh engines until at least kMinTimedSeconds of wall time has
// accumulated, and the median run is reported (--smoke: one run), so even
// a leg that takes milliseconds gives the perf gate a stable figure.
// Equivalence violations exit non-zero, so the ctest smoke fixture
// doubles as a coarse differential test (the fine grained one is
// tests/sim_warp_test).
//
// Legs:
//  * dram_heavy — dependency-serialized YCSB (one access per transaction,
//    one softcore context, 4x DRAM latency): the worker spends almost
//    every cycle parked in a quiescent DRAM wait (block ingest, RET
//    blocked on the single outstanding index op), the best case for
//    warping. This is the headline speedup number.
//  * default — YCSB-C under the paper's default configuration, where
//    batched dispatch keeps the softcore retrying against the
//    coprocessor's in-flight cap; those retries are quiescent until the
//    coprocessor frees a slot, so the win is real but smaller.
//  * dense — the adversarial case for warping: YCSB-C with near-SRAM DRAM
//    latency and deep softcore contexts, so the workers are busy nearly
//    every cycle and there is almost nothing to skip. This leg is the
//    per-cycle ticking stress test the simulator-performance work (and
//    scripts/perf_gate.py) tracks.
//  * multisite — 4-partition multisite YCSB: every transaction sends index
//    requests to other partitions, so the on-chip message fabric (wires,
//    inboxes, remote dispatch) is on the hot path. The fabric-heavy leg.
//  * scan — YCSB-E: one 50-row skiplist scan per transaction under the
//    default configuration. Each scan is a chain of dependent DRAM reads,
//    so most cycles are quiescent waits: the sparse regime the
//    event-driven default is for.
//  * closed_loop — the scan leg's transactions driven the way perfbench
//    and the latency benches drive the engine: host::RunClosedLoop keeps
//    16 in flight per worker and steps in its default 50-cycle quantum,
//    generating each transaction as a slot frees. Every other leg submits
//    everything and drains, so this is the leg where the cost of a run
//    call (one Step per quantum) shows.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "bench/report.h"
#include "common/parallel.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

using bench::BenchArgs;

/// Wall time each (leg, mode) accumulates over repeated runs before the
/// median run is reported.
constexpr double kMinTimedSeconds = 1.0;

struct Leg {
  const char* name;
  uint32_t workers;
  uint32_t max_contexts;
  uint32_t accesses_per_txn;
  uint32_t dram_latency_cycles;
  workload::YcsbOptions::Mode ycsb_mode =
      workload::YcsbOptions::Mode::kReadOnly;
  /// Drive host::RunClosedLoop instead of submitting everything up front.
  bool closed_loop = false;
};

struct ModeResult {
  host::RunResult run;
  std::string engine_stats_json;
  sim::Simulator::WarpStats warp;
  uint64_t blocks = 0;  // registered simulator blocks
};

/// One run on a fresh engine. With `report`, also records the engine run
/// under "<leg>/<mode>" and points `*recorded` at its registry.
ModeResult RunMode(const BenchArgs& args, const Leg& leg, bool event_driven,
                   bench::BenchReport* report, StatsRegistry** recorded) {
  core::EngineOptions opts;
  opts.n_workers = leg.workers;
  opts.softcore.max_contexts = leg.max_contexts;
  opts.timing.dram_latency_cycles = leg.dram_latency_cycles;
  opts.timing.event_driven = event_driven;
  core::BionicDb engine(opts);

  workload::YcsbOptions yopts;
  yopts.mode = leg.ycsb_mode;
  yopts.accesses_per_txn = leg.accesses_per_txn;
  yopts.records_per_partition = args.smoke ? 2'000 : args.quick ? 5'000
                                                               : 20'000;
  yopts.payload_len = args.quick ? 64 : 256;
  workload::Ycsb ycsb(&engine, yopts);
  if (auto s = ycsb.Setup(); !s.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }

  const uint64_t txns_per_worker = args.smoke ? 200 : args.quick ? 400
                                                                 : 2'000;
  Rng rng(args.seed);
  ModeResult mr;
  if (leg.closed_loop) {
    host::ClosedLoopOptions copts;
    copts.inflight_per_worker = 16;  // perfbench's closed-phase clients
    copts.txns_per_worker = txns_per_worker;
    const host::ClosedLoopResult c =
        host::RunClosedLoop(&engine, ycsb.Factory(&rng), copts);
    mr.run = host::RunResult{.submitted = c.submitted,
                             .committed = c.committed,
                             .failed = c.failed,
                             .retries = c.retries,
                             .cycles = c.cycles,
                             .tps = c.tps,
                             .wall_seconds = c.wall_seconds};
  } else {
    host::TxnList txns;
    for (uint32_t w = 0; w < leg.workers; ++w) {
      for (uint64_t i = 0; i < txns_per_worker; ++i) {
        txns.emplace_back(w, ycsb.MakeTxn(&rng, w));
      }
    }
    mr.run = host::RunToCompletion(&engine, txns);
  }
  StatsRegistry engine_stats;
  engine.CollectStats(&engine_stats);
  mr.engine_stats_json = engine_stats.ToJson(0);
  mr.warp = engine.simulator().warp_stats();
  mr.blocks = engine.simulator().components().size();

  if (report != nullptr) {
    std::string label = std::string(leg.name) + "/" +
                        (event_driven ? "event_driven" : "cycle_accurate");
    *recorded = &report->AddEngineRun(label, &engine, mr.run);
  }
  return mr;
}

/// Asserts two runs produced bit-identical simulation outcomes.
void CheckEquivalent(const Leg& leg, const ModeResult& base,
                     const ModeResult& event) {
  bool ok = base.run.committed == event.run.committed &&
            base.run.failed == event.run.failed &&
            base.run.retries == event.run.retries &&
            base.run.cycles == event.run.cycles &&
            base.engine_stats_json == event.engine_stats_json;
  if (ok) return;
  std::fprintf(stderr,
               "sim_speed: leg '%s': runs DIVERGED (event-driven vs "
               "cycle-accurate, or a repetition vs the first run)\n"
               "  committed %llu vs %llu, failed %llu vs %llu, "
               "retries %llu vs %llu, cycles %llu vs %llu, stats %s\n",
               leg.name, (unsigned long long)base.run.committed,
               (unsigned long long)event.run.committed,
               (unsigned long long)base.run.failed,
               (unsigned long long)event.run.failed,
               (unsigned long long)base.run.retries,
               (unsigned long long)event.run.retries,
               (unsigned long long)base.run.cycles,
               (unsigned long long)event.run.cycles,
               base.engine_stats_json == event.engine_stats_json
                   ? "identical"
                   : "DIFFER");
  std::exit(1);
}

/// Times one (leg, mode): repeated runs on fresh engines until
/// kMinTimedSeconds of wall time has accumulated (one run with --smoke),
/// each checked against the first. Records the first run's engine stats
/// with the median run's wall time, and returns the median run.
ModeResult TimeMode(const BenchArgs& args, const Leg& leg, bool event_driven,
                    bench::BenchReport* report) {
  StatsRegistry* recorded = nullptr;
  std::vector<ModeResult> runs;
  double wall = 0;
  do {
    runs.push_back(RunMode(args, leg, event_driven,
                           runs.empty() ? report : nullptr, &recorded));
    CheckEquivalent(leg, runs.front(), runs.back());
    wall += runs.back().run.wall_seconds;
  } while (!args.smoke && wall < kMinTimedSeconds);
  std::sort(runs.begin(), runs.end(),
            [](const ModeResult& a, const ModeResult& b) {
              return a.run.wall_seconds < b.run.wall_seconds;
            });
  const ModeResult& median = runs[runs.size() / 2];
  // No run was added since `recorded`, so the reference is still live.
  recorded->SetGauge("run/wall_seconds", median.run.wall_seconds);
  recorded->SetGauge("run/sim_cycles_per_second",
                     median.run.SimCyclesPerSecond());
  return median;
}

void RunLeg(const BenchArgs& args, const Leg& leg, TablePrinter* table,
            bench::BenchReport* report) {
  ModeResult base = TimeMode(args, leg, /*event_driven=*/false, report);
  ModeResult event = TimeMode(args, leg, /*event_driven=*/true, report);
  CheckEquivalent(leg, base, event);

  const double base_cps = base.run.SimCyclesPerSecond();
  const double event_cps = event.run.SimCyclesPerSecond();
  const double speedup = base_cps > 0 ? event_cps / base_cps : 0;

  StatsRegistry& reg = report->AddRun(std::string("speed/") + leg.name);
  reg.SetCounter("cycles", base.run.cycles);
  reg.SetCounter("blocks", event.blocks);
  reg.SetGauge("cycle_accurate/wall_seconds", base.run.wall_seconds);
  reg.SetGauge("cycle_accurate/sim_cycles_per_second", base_cps);
  reg.SetGauge("event_driven/wall_seconds", event.run.wall_seconds);
  reg.SetGauge("event_driven/sim_cycles_per_second", event_cps);
  reg.SetCounter("event_driven/warps", event.warp.warps);
  reg.SetCounter("event_driven/skipped_cycles", event.warp.skipped_cycles);
  reg.SetCounter("event_driven/block_ticks", event.warp.block_ticks);
  reg.SetGauge("speedup_vs_cycle_accurate", speedup);

  const double cycles = double(base.run.cycles);
  const double skipped_pct =
      cycles > 0 ? 100.0 * double(event.warp.skipped_cycles) / cycles : 0;
  // Blocks ticked per simulated cycle: every block every cycle per-cycle,
  // only the due blocks event-driven.
  const double blocks_per_cycle =
      cycles > 0 ? double(event.warp.block_ticks) / cycles : 0;
  table->AddRow({leg.name, "cycle_accurate",
                 std::to_string(base.run.cycles),
                 TablePrinter::Num(base.run.wall_seconds * 1e3, 1),
                 bench::Mops(base_cps), std::to_string(base.blocks), "-",
                 "-"});
  table->AddRow({leg.name, "event_driven",
                 std::to_string(event.run.cycles),
                 TablePrinter::Num(event.run.wall_seconds * 1e3, 1),
                 bench::Mops(event_cps),
                 TablePrinter::Num(blocks_per_cycle, 2),
                 TablePrinter::Num(skipped_pct, 1),
                 TablePrinter::Num(speedup, 1) + "x"});
}

/// Fixed-work host calibration microloop: a deterministic xorshift chain
/// whose iterations/second gauge a machine's single-thread integer speed.
/// scripts/perf_gate.py divides sim-cycles/s by this before comparing a
/// fresh report against the checked-in baseline, so a slower CI runner
/// does not read as a simulator regression. Best-of-3 so a scheduler
/// hiccup degrades toward the true machine speed, not away from it.
void RunCalibration(bench::BenchReport* report) {
  constexpr uint64_t kIters = 20'000'000;
  double best_ops = 0;
  uint64_t sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    const auto t1 = std::chrono::steady_clock::now();
    sink += x;  // keep the loop observable
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    if (secs > 0) best_ops = std::max(best_ops, double(kIters) / secs);
  }
  StatsRegistry& reg = report->AddRun("calibration");
  reg.SetGauge("host_ops_per_second", best_ops);
  reg.SetCounter("host_hardware_threads", HostHardwareThreads());
  reg.SetCounter("iterations", kIters);
  reg.SetCounter("checksum", sink & 0xffff);
}

void Run(const BenchArgs& args, bench::BenchReport* report) {
  bench::PrintHeader("sim_speed",
                     "event-driven cycle skipping vs per-cycle ticking");
  TablePrinter table({"workload", "mode", "cycles", "wall (ms)",
                      "Mcycles/s", "blocks/cycle", "skipped %", "speedup"});
  RunCalibration(report);
  // 4x the HC-2's already-high random-access latency + a fully
  // dependency-serialized workload (one context, one access per txn):
  // nearly every cycle is a quiescent DRAM wait.
  RunLeg(args, Leg{"dram_heavy", 1, 1, 1, 380}, &table, report);
  RunLeg(args, Leg{"default", args.smoke ? 2u : 4u, 32, 16, 95}, &table,
         report);
  // Dense activity: near-SRAM latency keeps every pipeline stage fed, so
  // the stall fraction collapses and per-cycle ticking throughput is pure
  // simulator overhead (the perf-gate's most sensitive probe).
  RunLeg(args, Leg{"dense", args.smoke ? 2u : 4u, 64, 8, 12}, &table,
         report);
  RunLeg(args,
         Leg{"multisite", 4, 32, 4, 95,
             workload::YcsbOptions::Mode::kMultisite},
         &table, report);
  // YCSB-E: the workload's default 50-row scans on a skiplist table.
  RunLeg(args,
         Leg{"scan", args.smoke ? 2u : 4u, 32, 1, 95,
             workload::YcsbOptions::Mode::kScanOnly},
         &table, report);
  RunLeg(args,
         Leg{"closed_loop", args.smoke ? 2u : 4u, 32, 1, 95,
             workload::YcsbOptions::Mode::kScanOnly, /*closed_loop=*/true},
         &table, report);
  table.Print();
  std::printf("(all modes asserted bit-identical: cycles, outcomes, "
              "engine stats JSON)\n");
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  auto args = bionicdb::bench::BenchArgs::Parse(argc, argv);
  bionicdb::bench::BenchReport report("sim_speed");
  bionicdb::Run(args, &report);
  report.WriteFile();
  return 0;
}
