// Fleet-scale configuration sweep: many full engine runs fanned out over
// host cores through host::RunSweep, merged into ONE BENCH_sim_sweep.json.
//
// Each sweep point is a self-contained simulated machine (its own engine,
// DRAM, workload) exploring the workers x DRAM-latency grid that the
// simulator-performance work cares about: the dense corner (low latency,
// many workers) stresses per-cycle ticking, the sparse corner (high
// latency, one worker) stresses event-driven warping. Points run
// concurrently — an N-point sweep costs roughly max (not sum) of its
// points' wall clock on a multicore host — yet every simulated result is
// bit-identical to running the points one at a time, because sweep points
// share no mutable state (asserted here by re-running one grid point
// serially and comparing its engine stats JSON byte-for-byte).
//
// scripts/sweep.py wraps this binary for ad-hoc fleet runs and prints a
// digest of the merged report.
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/report.h"
#include "common/parallel.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

using bench::BenchArgs;

struct Point {
  uint32_t workers;
  uint32_t dram_latency_cycles;
  bool event_driven;
};

std::string PointLabel(const Point& p) {
  return "sweep/w" + std::to_string(p.workers) + "_lat" +
         std::to_string(p.dram_latency_cycles) +
         (p.event_driven ? "_event" : "_serial");
}

/// Runs one grid point on a fresh engine and records the full engine tree
/// plus run metrics into `reg` (the same shape AddEngineRun produces, so
/// validate_report's engine-run checks apply to every sweep point).
void RunPoint(const BenchArgs& args, const Point& p, StatsRegistry* reg) {
  core::EngineOptions opts;
  opts.n_workers = p.workers;
  opts.timing.dram_latency_cycles = p.dram_latency_cycles;
  opts.timing.event_driven = p.event_driven;
  core::BionicDb engine(opts);

  workload::YcsbOptions yopts;
  yopts.mode = workload::YcsbOptions::Mode::kReadOnly;
  yopts.accesses_per_txn = 8;
  yopts.records_per_partition = args.smoke ? 1'000 : args.quick ? 4'000
                                                                : 10'000;
  yopts.payload_len = 64;
  workload::Ycsb ycsb(&engine, yopts);
  if (auto s = ycsb.Setup(); !s.ok()) {
    std::fprintf(stderr, "sweep setup failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }

  const uint64_t txns_per_worker = args.smoke ? 100 : args.quick ? 250
                                                                 : 1'000;
  Rng rng(args.seed);
  host::TxnList txns;
  for (uint32_t w = 0; w < p.workers; ++w) {
    for (uint64_t i = 0; i < txns_per_worker; ++i) {
      txns.emplace_back(w, ycsb.MakeTxn(&rng, w));
    }
  }
  host::RunResult run = host::RunToCompletion(&engine, txns);
  engine.CollectStats(reg);
  StatsScope scope(reg, "run");
  scope.SetCounter("submitted", run.submitted);
  scope.SetCounter("committed", run.committed);
  scope.SetCounter("failed", run.failed);
  scope.SetCounter("retries", run.retries);
  scope.SetCounter("cycles", run.cycles);
  scope.SetGauge("tps", run.tps);
  scope.SetGauge("wall_seconds", run.wall_seconds);
  scope.SetGauge("sim_cycles_per_second", run.SimCyclesPerSecond());
}

void Run(const BenchArgs& args, bench::BenchReport* report) {
  bench::PrintHeader("sim_sweep",
                     "configuration grid fanned out over host cores");
  std::vector<Point> grid;
  const std::vector<uint32_t> worker_counts =
      args.smoke ? std::vector<uint32_t>{1, 2} : std::vector<uint32_t>{1, 2, 4};
  const std::vector<uint32_t> latencies =
      args.smoke ? std::vector<uint32_t>{95} : std::vector<uint32_t>{12, 95,
                                                                     380};
  for (uint32_t w : worker_counts) {
    for (uint32_t lat : latencies) {
      grid.push_back(Point{w, lat, false});
      grid.push_back(Point{w, lat, true});
    }
  }

  std::vector<host::SweepJob> jobs;
  jobs.reserve(grid.size());
  for (const Point& p : grid) {
    jobs.push_back(host::SweepJob{
        PointLabel(p), [args, p](StatsRegistry* reg) { RunPoint(args, p, reg); }});
  }
  std::vector<host::SweepResult> results = host::RunSweep(std::move(jobs));

  // Determinism spot check: re-run the first grid point serially on this
  // thread; its simulated stats (everything except host wall clock) must
  // match the fanned-out run byte-for-byte.
  StatsRegistry redo;
  RunPoint(args, grid[0], &redo);
  StatsRegistry& sweep_copy = results[0].stats;
  auto simulated_view = [](const StatsRegistry& r) {
    std::string json;
    for (const auto& [k, v] : r.counters()) {
      if (k != "run/cycles" && k.rfind("run/", 0) == 0) continue;
      json += k + "=" + std::to_string(v) + ";";
    }
    return json;
  };
  if (simulated_view(redo) != simulated_view(sweep_copy)) {
    std::fprintf(stderr,
                 "sim_sweep: fanned-out point '%s' DIVERGED from its serial "
                 "re-run\n",
                 results[0].label.c_str());
    std::exit(1);
  }

  TablePrinter table({"point", "cycles", "committed", "Mcycles/s"});
  for (host::SweepResult& r : results) {
    StatsRegistry& reg = report->AddRun(r.label);
    reg = std::move(r.stats);
    table.AddRow({r.label, std::to_string(reg.GetCounter("sim/cycles")),
                  std::to_string(reg.GetCounter("run/committed")),
                  bench::Mops(reg.gauges().count("run/sim_cycles_per_second")
                                  ? reg.gauges().at("run/sim_cycles_per_second")
                                  : 0)});
  }
  table.Print();
  std::printf("(%zu sweep points merged; fanned out over %u host threads; "
              "point 0 asserted identical to a serial re-run)\n",
              results.size(), HostHardwareThreads());
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  auto args = bionicdb::bench::BenchArgs::Parse(argc, argv);
  bionicdb::bench::BenchReport report("sim_sweep");
  bionicdb::Run(args, &report);
  report.WriteFile();
  return 0;
}
