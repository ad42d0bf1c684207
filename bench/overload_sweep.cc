// Extension — open-loop overload sweep: offered load vs latency SLOs.
//
// Production OLTP systems are provisioned by the question this figure
// answers: as offered load approaches and passes the service capacity,
// where do p50/p99/p999 leave the SLO band, and how much goodput does the
// system hold past saturation? The closed-loop harnesses cannot see this
// knee (a slow server throttles its own clients); here a seeded open-loop
// Poisson client offers transactions on its own timeline, a bounded
// admission queue sheds what the engine cannot absorb, and latency is
// measured arrival-to-commit including queue wait.
//
// The harness first measures closed-loop capacity, then sweeps offered
// load across it (0.25x .. 1.5x). A built-in knee check fails the binary
// if the report does not show the signature of saturation: goodput
// plateauing while p99 rises sharply. A short bursty (MMPP) leg shows the
// same offered load arriving in bursts costing materially more tail
// latency. Results are bit-identical for a fixed seed across the
// simulator's two modes (--mode=serial|event).
#include <cmath>
#include <vector>

#include "bench/bench_util.h"
#include "bench/report.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

using bench::BenchArgs;
using host::ArrivalOptions;

bench::BenchReport* g_report = nullptr;

core::EngineOptions EngineOpts(const BenchArgs& args) {
  core::EngineOptions opts;
  opts.n_workers = 4;
  args.ApplyMode(&opts);
  return opts;
}

workload::YcsbOptions Workload(const BenchArgs& args) {
  workload::YcsbOptions yopts;
  yopts.records_per_partition = args.quick ? 5'000 : 20'000;
  yopts.payload_len = args.quick ? 64 : 1024;
  return yopts;
}

/// Service capacity estimate: committed rate under a saturating closed
/// loop. Deterministic, so every mode derives the same sweep points.
double MeasureCapacityTps(const BenchArgs& args) {
  core::EngineOptions opts = EngineOpts(args);
  core::BionicDb engine(opts);
  workload::Ycsb ycsb(&engine, Workload(args));
  if (!ycsb.Setup().ok()) return 0;
  host::ClosedLoopOptions copts;
  copts.inflight_per_worker = 16;
  copts.txns_per_worker = args.smoke ? 100 : args.quick ? 200 : 500;
  Rng rng(args.seed);
  return host::RunClosedLoop(&engine, ycsb.Factory(&rng), copts).tps;
}

struct SweepPoint {
  double load_factor = 0;
  host::OpenLoopResult result;
};

SweepPoint RunPoint(const BenchArgs& args, double capacity_tps,
                    double load_factor, ArrivalOptions::Process process) {
  core::EngineOptions opts = EngineOpts(args);
  core::BionicDb engine(opts);
  workload::Ycsb ycsb(&engine, Workload(args));
  SweepPoint point;
  point.load_factor = load_factor;
  if (!ycsb.Setup().ok()) return point;

  host::OpenLoopOptions oopts;
  oopts.arrival.process = process;
  oopts.arrival.offered_tps = load_factor * capacity_tps;
  oopts.arrival.seed = args.seed;
  oopts.total_txns = args.smoke ? 400 : args.quick ? 1'000 : 4'000;
  oopts.admission_queue_depth = 16;
  oopts.inflight_per_worker = 8;
  Rng rng(args.seed);
  point.result = host::RunOpenLoop(&engine, ycsb.Factory(&rng), oopts);

  char label[96];
  std::snprintf(label, sizeof label, "ycsb_c/%s/offered=%.2fx",
                process == ArrivalOptions::Process::kPoisson ? "poisson"
                                                             : "bursty",
                load_factor);
  g_report->AddEngineRun(label, &engine, point.result);
  return point;
}

void PrintRow(TablePrinter* table, const SweepPoint& p, double us_per_cycle) {
  const host::OpenLoopResult& r = p.result;
  table->AddRow(
      {TablePrinter::Num(p.load_factor, 2), bench::Ktps(r.offered_tps),
       bench::Ktps(r.goodput_tps),
       TablePrinter::Num(r.latency_cycles.Quantile(0.5) * us_per_cycle, 1),
       TablePrinter::Num(r.latency_cycles.Quantile(0.99) * us_per_cycle, 1),
       TablePrinter::Num(r.latency_cycles.Quantile(0.999) * us_per_cycle, 1),
       std::to_string(r.shed), std::to_string(r.retries)});
}

/// The saturation-knee signature the sweep must show (deterministic, so
/// this is a regression gate, not a flaky assertion): past capacity the
/// system sheds load and keeps goodput near its plateau while p99 climbs
/// steeply; far below capacity nothing is shed.
bool CheckKnee(const std::vector<SweepPoint>& sweep) {
  const SweepPoint& lightest = sweep.front();
  const SweepPoint& heaviest = sweep.back();
  bool ok = true;
  if (lightest.result.shed != 0) {
    std::printf("KNEE CHECK FAIL: shed %llu transactions at %.2fx load\n",
                (unsigned long long)lightest.result.shed,
                lightest.load_factor);
    ok = false;
  }
  if (heaviest.result.shed == 0) {
    std::printf("KNEE CHECK FAIL: no load shedding at %.2fx load\n",
                heaviest.load_factor);
    ok = false;
  }
  const double p99_light = lightest.result.latency_cycles.Quantile(0.99);
  const double p99_heavy = heaviest.result.latency_cycles.Quantile(0.99);
  if (!(p99_heavy >= 2.0 * p99_light)) {
    std::printf("KNEE CHECK FAIL: p99 %.0f at %.2fx vs %.0f at %.2fx — no "
                "latency knee\n",
                p99_heavy, heaviest.load_factor, p99_light,
                lightest.load_factor);
    ok = false;
  }
  // Goodput plateaus: offered grows past capacity but goodput stays within
  // 25% of the best point's (it cannot keep scaling with offered load).
  double best_goodput = 0;
  for (const SweepPoint& p : sweep) {
    best_goodput = std::max(best_goodput, p.result.goodput_tps);
  }
  if (!(heaviest.result.goodput_tps >= 0.75 * best_goodput &&
        heaviest.result.goodput_tps <
            0.95 * heaviest.result.offered_tps)) {
    std::printf("KNEE CHECK FAIL: goodput %.0f at %.2fx (best %.0f, "
                "offered %.0f) — no plateau\n",
                heaviest.result.goodput_tps, heaviest.load_factor,
                best_goodput, heaviest.result.offered_tps);
    ok = false;
  }
  return ok;
}

bool Sweep(const BenchArgs& args) {
  bench::PrintHeader("Overload sweep",
                     "YCSB-C open loop, offered load vs latency SLOs");
  const double capacity = MeasureCapacityTps(args);
  const double us_per_cycle = 1.0 / EngineOpts(args).timing.clock_mhz;
  std::printf("(closed-loop capacity estimate: %s kTps; mode: %s)\n",
              bench::Ktps(capacity).c_str(), args.ModeName());

  std::vector<double> points;
  if (args.smoke) {
    points = {0.5, 1.0, 1.5};
  } else {
    points = {0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5};
  }

  TablePrinter table({"offered/capacity", "offered kTps", "goodput kTps",
                      "p50 (us)", "p99 (us)", "p999 (us)", "shed",
                      "retries"});
  std::vector<SweepPoint> sweep;
  for (double x : points) {
    sweep.push_back(
        RunPoint(args, capacity, x, ArrivalOptions::Process::kPoisson));
    PrintRow(&table, sweep.back(), us_per_cycle);
  }
  table.Print();

  // Bursty leg: same long-run offered load, arriving in bursts.
  bench::PrintHeader("Overload sweep",
                     "bursty (MMPP) arrivals at the same offered load");
  TablePrinter btable({"offered/capacity", "offered kTps", "goodput kTps",
                       "p50 (us)", "p99 (us)", "p999 (us)", "shed",
                       "retries"});
  std::vector<double> bursty_points =
      args.smoke ? std::vector<double>{0.9}
                 : std::vector<double>{0.5, 0.75, 0.9};
  for (double x : bursty_points) {
    SweepPoint p =
        RunPoint(args, capacity, x, ArrivalOptions::Process::kBursty);
    PrintRow(&btable, p, us_per_cycle);
  }
  btable.Print();

  return CheckKnee(sweep);
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  auto args = bionicdb::bench::BenchArgs::Parse(argc, argv);
  bionicdb::bench::BenchReport report("overload_sweep");
  bionicdb::g_report = &report;
  const bool knee_ok = bionicdb::Sweep(args);
  report.WriteFile();
  if (!knee_ok) {
    std::fprintf(stderr, "overload_sweep: saturation-knee check failed\n");
    return 1;
  }
  return 0;
}
