// Cluster scale-out: throughput vs multisite fraction at 1/4/16 chips.
//
// Builds an engine of N chips (DESIGN.md section 14), each with
// `kWorkersPerChip` partition workers, and drives the multisite
// update workload closed-loop while sweeping the fraction of transactions
// that write a foreign chip (and therefore commit through the two-phase
// distributed protocol over the inter-chip fabric tier).
//
// The harness enforces the scale-out story it exists to demonstrate and
// exits non-zero on violation:
//  * at a fixed chip count, throughput is monotone non-increasing in the
//    multisite fraction (2PC rounds are strictly extra work);
//  * at 0% multisite, the largest chip count beats one chip by at least
//    the sharding floor (16 chips >= 10x one chip; the smoke pair of 4
//    chips >= 2x) — partitions are independent, so sharding must scale.
//
// Emits BENCH_cluster_scaleout.json; the cluster_scaleout ctest fixture
// runs `--smoke` and validates the report (per-chip closure, inter-chip
// link counters, cross-run monotonicity) with validate_report.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/report.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "host/driver.h"
#include "workload/ycsb.h"

namespace bionicdb::bench {
namespace {

constexpr uint32_t kWorkersPerChip = 2;

struct Point {
  uint32_t n_chips = 0;
  double fraction = 0;
  double tps = 0;
  double p50 = 0;
  double p99 = 0;
  uint64_t committed = 0;
  uint64_t retries = 0;
};

Point RunOne(const BenchArgs& args, BenchReport* report, uint32_t n_chips,
             double fraction) {
  core::EngineOptions opts;
  opts.n_workers = n_chips * kWorkersPerChip;
  opts.workers_per_chip = kWorkersPerChip;
  opts.seed = args.seed;
  args.ApplyMode(&opts);
  core::BionicDb engine(opts);

  workload::YcsbOptions wopts;
  wopts.mode = workload::YcsbOptions::Mode::kMultisiteUpdate;
  wopts.records_per_partition = args.quick ? 2'000 : 20'000;
  wopts.payload_len = 64;
  wopts.accesses_per_txn = 4;
  wopts.updates_per_txn = 2;
  wopts.multisite_fraction = fraction;
  workload::Ycsb ycsb(&engine, wopts);
  Status st = ycsb.Setup();
  if (!st.ok()) {
    std::fprintf(stderr, "cluster_scaleout: setup failed: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }

  // Seeded per chip count only: at a fixed chip count every fraction
  // starts from the same stream, so the single-chip runs (which never
  // draw the multisite coin) are byte-identical across the sweep and the
  // multi-chip runs differ only where the coin decides.
  Rng rng(args.seed ^ (uint64_t(n_chips) << 32));
  host::ClosedLoopOptions lopts;
  lopts.inflight_per_worker = 4;
  lopts.txns_per_worker = args.quick ? 40 : 250;
  host::ClosedLoopResult result =
      host::RunClosedLoop(&engine, ycsb.Factory(&rng), lopts);

  char label[64];
  std::snprintf(label, sizeof label, "chips%u_f%.2f", n_chips, fraction);
  report->AddClusterRun(label, &engine, result, fraction);

  Point p;
  p.n_chips = n_chips;
  p.fraction = fraction;
  p.tps = result.tps;
  p.p50 = result.latency_cycles.Quantile(0.5);
  p.p99 = result.latency_cycles.Quantile(0.99);
  p.committed = result.committed;
  p.retries = result.retries;
  return p;
}

int Main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintHeader("cluster_scaleout",
              "sharded throughput vs multisite fraction (2PC over the "
              "inter-chip fabric tier)");
  std::printf("(mode: %s)\n", args.ModeName());

  const std::vector<uint32_t> chip_counts =
      args.smoke ? std::vector<uint32_t>{1, 4}
                 : std::vector<uint32_t>{1, 4, 16};
  const std::vector<double> fractions =
      args.smoke ? std::vector<double>{0.0, 0.5}
                 : std::vector<double>{0.0, 0.05, 0.2, 0.5, 1.0};

  BenchReport report("cluster_scaleout");
  TablePrinter table({"chips", "multisite", "tps", "p50 cyc", "p99 cyc",
                      "committed", "retries"});
  std::map<uint32_t, std::vector<Point>> by_chips;
  for (uint32_t chips : chip_counts) {
    for (double f : fractions) {
      Point p = RunOne(args, &report, chips, f);
      by_chips[chips].push_back(p);
      table.AddRow({std::to_string(chips), TablePrinter::Num(f, 2),
                    Ktps(p.tps) + " K", TablePrinter::Num(p.p50, 0),
                    TablePrinter::Num(p.p99, 0), std::to_string(p.committed),
                    std::to_string(p.retries)});
    }
  }
  table.Print();
  report.WriteFile();

  // Self-enforced acceptance: monotone degradation with multisite fraction
  // at every chip count (5% slack for workload-mix noise).
  bool ok = true;
  for (const auto& [chips, points] : by_chips) {
    for (size_t i = 1; i < points.size(); ++i) {
      if (points[i].tps > points[i - 1].tps * 1.05) {
        std::fprintf(stderr,
                     "FAIL: %u chips: tps rose %.0f -> %.0f as multisite "
                     "fraction rose %.2f -> %.2f\n",
                     chips, points[i - 1].tps, points[i].tps,
                     points[i - 1].fraction, points[i].fraction);
        ok = false;
      }
    }
  }
  // Scale-out floor at 0% multisite: independent shards must scale.
  const double base_tps = by_chips.begin()->second.front().tps;
  const uint32_t top_chips = chip_counts.back();
  const double top_tps = by_chips[top_chips].front().tps;
  const double floor = top_chips >= 16 ? 10.0 : 2.0;
  if (top_tps < base_tps * floor) {
    std::fprintf(stderr,
                 "FAIL: %u-chip tps %.0f < %.1fx the 1-chip tps %.0f at 0%% "
                 "multisite\n",
                 top_chips, top_tps, floor, base_tps);
    ok = false;
  }
  if (ok) {
    std::printf("scale-out checks passed: monotone in multisite fraction; "
                "%u-chip/1-chip ratio %.1fx (floor %.1fx)\n",
                top_chips, top_tps / base_tps, floor);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bionicdb::bench

int main(int argc, char** argv) { return bionicdb::bench::Main(argc, argv); }
