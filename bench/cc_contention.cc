// CC-diversity contention study: T/O vs SGT vs MVCC on SmallBank.
//
// Sweeps contention level x CC scheme on both tiers:
//
//   * Hardware tier — the simulated engine with EngineOptions::cc_mode set
//     to kTimestamp (the paper's blind-reject T/O), kSgt or kMvcc. Every
//     point is run in both simulator modes (serial and event-driven) and
//     the engine statistic trees must be byte-identical — CC units are
//     part of the determinism envelope.
//   * Software tier — the Silo OCC engine vs the software SGT/MVTO
//     engines (baseline/cc_scheme.h) on the shared-everything SmallBank.
//
// Self-enforced expectations (hardware tier; deterministic, so enforced at
// every size including --smoke):
//   * low contention: T/O throughput is not beaten by the richer schemes
//     by more than a whisker — the CC machinery must be ~free when there
//     are no conflicts;
//   * high contention (write-heavy hotspot): SGT beats T/O — commit-ordered
//     admission (dirty marks only reserve; data moves in timestamp-ordered
//     commit handlers) retains work that blind reject burns;
//   * high contention read-heavy: MVCC beats T/O — stale-snapshot reads
//     commit where T/O rejects on dirty or bumped timestamps.
// Every hardware run must also pass SmallBank conservation.
//
// The software tier enforces conservation (a lost update fails the run)
// and reports throughput/abort numbers without asserting a wall-clock
// crossover: the reference SGT/MVTO engines serialise under one latch for
// auditability (see baseline/cc_scheme.h), so their absolute speed is not
// the experiment.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "baseline/cc_workloads.h"
#include "bench/bench_util.h"
#include "bench/report.h"
#include "workload/smallbank.h"

namespace bionicdb {
namespace {

bench::BenchReport* g_report = nullptr;
int g_failures = 0;

struct Contention {
  const char* name;
  double hotspot_fraction;
  uint32_t hotspot_accounts;
  // balance / deposit / transact / amalgamate / write_check weights
  uint32_t mix[5];
};

constexpr Contention kContentions[] = {
    {"low", 0.0, 0, {15, 25, 25, 10, 25}},
    {"high", 0.9, 16, {5, 30, 30, 15, 20}},
    {"high_read", 0.9, 16, {70, 8, 8, 4, 10}},
};

struct HwScheme {
  const char* name;  // --cc filter name and report label
  cc::CcMode mode;
};

constexpr HwScheme kHwSchemes[] = {
    {"to", cc::CcMode::kTimestamp},
    {"sgt", cc::CcMode::kSgt},
    {"mvcc", cc::CcMode::kMvcc},
};

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++g_failures;
  }
}

struct HwOutcome {
  host::RunResult result;
  std::string stats_json;  // full engine stats tree (no wall clocks)
  uint64_t final_now = 0;
  uint64_t warps = 0;  // clock jumps taken (0 for the per-cycle oracle)
  bool conserve = false;
};

/// Sums one CC-unit counter over all partitions (0 in T/O mode).
uint64_t SumCcCounter(const core::BionicDb& engine, const std::string& key) {
  uint64_t sum = 0;
  for (uint32_t w = 0; w < engine.options().n_workers; ++w) {
    sum += engine.cc_unit(w).counters().Get(key);
  }
  return sum;
}

workload::SmallBankOptions MakeSbOptions(const bench::BenchArgs& args,
                                         const Contention& c) {
  workload::SmallBankOptions sbo;
  sbo.accounts_per_partition = args.smoke ? 200 : (args.quick ? 800 : 2'000);
  sbo.hotspot_fraction = c.hotspot_fraction;
  sbo.hotspot_accounts = c.hotspot_accounts;
  sbo.mix_balance = c.mix[0];
  sbo.mix_deposit = c.mix[1];
  sbo.mix_transact = c.mix[2];
  sbo.mix_amalgamate = c.mix[3];
  sbo.mix_write_check = c.mix[4];
  return sbo;
}

/// One hardware point: engine + SmallBank + open-loop drive. `record` adds
/// the run to the report (only the serial leg records; the other modes
/// exist to be digest-compared against it).
HwOutcome RunHw(const bench::BenchArgs& args, const Contention& c,
                const HwScheme& scheme, bench::BenchArgs::SimMode mode,
                bool record) {
  core::EngineOptions opts;
  opts.n_workers = 4;
  opts.cc_mode = scheme.mode;
  bench::BenchArgs mode_args = args;
  mode_args.mode = mode;
  mode_args.ApplyMode(&opts);
  core::BionicDb engine(opts);
  workload::SmallBank sb(&engine, MakeSbOptions(args, c));
  HwOutcome out;
  if (!sb.Setup().ok()) {
    Check(false, std::string("smallbank setup: ") + c.name);
    return out;
  }
  Rng rng(args.seed);
  const uint64_t per_worker = args.smoke ? 60 : (args.quick ? 200 : 600);
  host::TxnList list;
  for (uint32_t w = 0; w < opts.n_workers; ++w) {
    for (uint64_t i = 0; i < per_worker; ++i) {
      list.emplace_back(w, sb.MakeTxn(&rng, w));
    }
  }
  out.result = host::RunToCompletion(&engine, list);
  out.conserve = sb.VerifyConservation(list);
  out.final_now = engine.now();
  out.warps = engine.simulator().warp_stats().warps;
  StatsRegistry reg;
  engine.CollectStats(&reg);
  out.stats_json = reg.ToJson();
  if (record) {
    const std::string label =
        std::string("cc/") + c.name + "/" + scheme.name;
    StatsRegistry& run = g_report->AddEngineRun(label, &engine, out.result);
    StatsScope cc_scope(&run, "run/cc");
    cc_scope.SetCounter("scheme", uint64_t(scheme.mode));
    cc_scope.SetCounter("retries", out.result.retries);
    cc_scope.SetCounter("aborts", engine.TotalAborted());
    cc_scope.SetCounter("conservation_ok", out.conserve ? 1 : 0);
    if (scheme.mode == cc::CcMode::kSgt) {
      cc_scope.SetCounter("cycle_aborts",
                          SumCcCounter(engine, "sgt/cycle_aborts"));
      cc_scope.SetCounter("edges_added",
                          SumCcCounter(engine, "sgt/edges_added"));
      cc_scope.SetCounter("prunes", SumCcCounter(engine, "sgt/prunes"));
    }
    if (scheme.mode == cc::CcMode::kMvcc) {
      cc_scope.SetCounter("versions_created",
                          SumCcCounter(engine, "mvcc/versions_created"));
      cc_scope.SetCounter("versions_freed",
                          SumCcCounter(engine, "mvcc/versions_freed"));
      cc_scope.SetCounter("gc_runs", SumCcCounter(engine, "mvcc/gc_runs"));
      cc_scope.SetCounter("version_reads",
                          SumCcCounter(engine, "mvcc/version_reads"));
    }
  }
  return out;
}

/// Runs one hardware point in both simulator modes, checks the digests
/// match, records the serial leg, and returns it.
HwOutcome RunHwAllModes(const bench::BenchArgs& args, const Contention& c,
                        const HwScheme& scheme) {
  HwOutcome serial =
      RunHw(args, c, scheme, bench::BenchArgs::SimMode::kSerial, true);
  Check(serial.conserve, std::string("conservation: cc/") + c.name + "/" +
                             scheme.name);
  HwOutcome event = RunHw(args, c, scheme,
                          bench::BenchArgs::SimMode::kEventDriven, false);
  // A serial run that warped would make the comparison event vs event.
  Check(serial.warps == 0, std::string("serial oracle ticked every cycle: "
                                       "cc/") + c.name + "/" + scheme.name);
  Check(event.stats_json == serial.stats_json &&
            event.final_now == serial.final_now &&
            event.result.committed == serial.result.committed &&
            event.result.retries == serial.result.retries,
        std::string("mode determinism: cc/") + c.name + "/" + scheme.name);
  return serial;
}

void RunSoftwareTier(const bench::BenchArgs& args, TablePrinter* table) {
  using baseline::CcSchemeKind;
  for (const Contention& c : kContentions) {
    for (CcSchemeKind kind : {CcSchemeKind::kOcc, CcSchemeKind::kSgt,
                              CcSchemeKind::kMvcc}) {
      // The --cc filter names the hardware schemes; OCC is the software
      // twin of "to" (both are the optimistic single-version side).
      const char* filter_name = kind == CcSchemeKind::kOcc ? "to"
                                : kind == CcSchemeKind::kSgt ? "sgt"
                                                             : "mvcc";
      if (!args.CcEnabled(filter_name)) continue;
      auto db = baseline::MakeCcDb(kind);
      baseline::CcSmallBankOptions opt;
      opt.accounts = args.quick ? 4'000 : 20'000;
      opt.hotspot_fraction = c.hotspot_fraction;
      opt.hotspot_accounts = c.hotspot_accounts;
      opt.mix_balance = c.mix[0];
      opt.mix_deposit = c.mix[1];
      opt.mix_transact = c.mix[2];
      opt.mix_amalgamate = c.mix[3];
      opt.mix_write_check = c.mix[4];
      baseline::CcSmallBank sb(db.get(), opt);
      sb.Setup();
      const uint32_t threads = bench::MaxBaselineThreads() < 8
                                   ? bench::MaxBaselineThreads()
                                   : 8;
      auto r = sb.RunMix(threads, args.quick ? 2'000 : 10'000, args.seed);
      db->GcSweep();
      const bool conserve = sb.VerifyConservation();
      Check(conserve, std::string("sw conservation: ") + c.name + "/" +
                          baseline::CcSchemeKindName(kind));
      const std::string label = std::string("sw/") + c.name + "/" +
                                baseline::CcSchemeKindName(kind);
      StatsRegistry& reg = g_report->AddRun(label);
      StatsScope run(&reg, "run");
      run.SetCounter("submitted", r.committed);  // closed loop: all commit
      run.SetCounter("committed", r.committed);
      run.SetCounter("aborted", r.aborted);
      run.SetGauge("tps", r.tps);
      StatsScope cc_scope(&reg, "run/cc");
      cc_scope.SetCounter("scheme", uint64_t(kind));
      cc_scope.SetCounter("retries", r.aborted);
      cc_scope.SetCounter("aborts", db->stats().aborts.load());
      cc_scope.SetCounter("conservation_ok", conserve ? 1 : 0);
      cc_scope.SetCounter("cycle_aborts", db->stats().cycle_aborts.load());
      cc_scope.SetCounter("versions_created",
                          db->stats().versions_created.load());
      cc_scope.SetCounter("versions_freed", db->stats().versions_freed.load());
      table->AddRow({c.name, baseline::CcSchemeKindName(kind),
                     std::to_string(threads), bench::Ktps(r.tps),
                     std::to_string(r.aborted), conserve ? "yes" : "LOST"});
    }
  }
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  using namespace bionicdb;
  auto args = bench::BenchArgs::Parse(argc, argv);
  bench::BenchReport report("cc_contention");
  g_report = &report;
  bench::PrintHeader("CC contention",
                     "T/O vs SGT vs MVCC on SmallBank, both tiers");

  // --- Hardware tier -----------------------------------------------------
  std::printf("\nSimulated engine (4 workers, all sim modes digest-checked):\n");
  TablePrinter hw({"contention", "scheme", "throughput (kTps)", "retries",
                   "aborts", "conserved"});
  std::map<std::string, double> tps;  // "<contention>/<scheme>" -> tps
  for (const Contention& c : kContentions) {
    for (const HwScheme& s : kHwSchemes) {
      if (!args.CcEnabled(s.name)) continue;
      HwOutcome o = RunHwAllModes(args, c, s);
      tps[std::string(c.name) + "/" + s.name] = o.result.tps;
      hw.AddRow({c.name, s.name, bench::Ktps(o.result.tps),
                 std::to_string(o.result.retries),
                 std::to_string(o.result.failed + o.result.retries),
                 o.conserve ? "yes" : "LOST"});
    }
  }
  hw.Print();

  // Crossover expectations need all three schemes present.
  if (args.cc == "all") {
    Check(tps["low/to"] >= 0.90 * tps["low/sgt"],
          "low contention: T/O within 10% of SGT");
    Check(tps["low/to"] >= 0.90 * tps["low/mvcc"],
          "low contention: T/O within 10% of MVCC");
    Check(tps["high/sgt"] >= 1.02 * tps["high/to"],
          "high contention: SGT beats T/O by >= 2%");
    Check(tps["high_read/mvcc"] >= 1.02 * tps["high_read/to"],
          "read-heavy high contention: MVCC beats T/O by >= 2%");
  }

  // --- Software tier -----------------------------------------------------
  if (!args.smoke) {
    std::printf("\nSoftware baseline (shared-everything SmallBank):\n");
    bench::PrintHostInfo();
    TablePrinter sw({"contention", "scheme", "threads", "throughput (kTps)",
                     "aborts", "conserved"});
    RunSoftwareTier(args, &sw);
    sw.Print();
  }

  report.WriteFile();
  if (g_failures != 0) {
    std::fprintf(stderr, "cc_contention: %d check(s) failed\n", g_failures);
    return 1;
  }
  return 0;
}
