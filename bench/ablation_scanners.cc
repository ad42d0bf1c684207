// Ablation — scan throughput vs number of scanner modules.
//
// The paper (section 5.5): a single scanner bottlenecks the skiplist
// pipeline on scan-heavy loads; "to catch up with SW skiplist, at least 5
// scanners would be required". This sweep regenerates that estimate with
// the hardware design knob the paper could not afford to build (Virtex-5
// resource limits).
#include "baseline/workloads.h"
#include "bench/bench_util.h"
#include "bench/report.h"
#include "power/model.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

bench::BenchReport* g_report = nullptr;

double RunHwScan(const bench::BenchArgs& args, uint32_t n_scanners) {
  core::EngineOptions opts;
  args.ApplyMode(&opts);
  opts.n_workers = 4;
  opts.coproc.max_inflight = 24;
  opts.coproc.skiplist.n_scanners = n_scanners;
  core::BionicDb engine(opts);
  workload::YcsbOptions yopts;
  yopts.mode = workload::YcsbOptions::Mode::kScanOnly;
  yopts.records_per_partition = args.quick ? 2'000 : 20'000;
  yopts.payload_len = args.quick ? 64 : 1024;
  yopts.scan_len = 50;
  workload::Ycsb ycsb(&engine, yopts);
  if (!ycsb.Setup().ok()) return 0;
  Rng rng(args.seed);
  const uint64_t txns = args.quick ? 60 : 300;
  host::TxnList list;
  for (uint32_t w = 0; w < 4; ++w) {
    for (uint64_t i = 0; i < txns; ++i) {
      list.emplace_back(w, ycsb.MakeTxn(&rng, w));
    }
  }
  auto r = host::RunToCompletion(&engine, list);
  g_report->AddEngineRun("scanners=" + std::to_string(n_scanners), &engine,
                         r);
  return r.tps;
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  using namespace bionicdb;
  auto args = bench::BenchArgs::Parse(argc, argv);
  bench::BenchReport report("ablation_scanners");
  g_report = &report;
  bench::PrintHeader("Ablation", "Scan throughput vs scanner modules");

  // Software skiplist reference (4 threads), the Fig. 11d target.
  baseline::SiloYcsbOptions sopts;
  sopts.records = args.quick ? 8'000 : 80'000;
  sopts.payload_len = args.quick ? 64 : 256;
  sopts.index = baseline::SiloIndexKind::kSkiplist;
  baseline::SiloYcsb silo(sopts);
  silo.Setup();
  double sw = silo.RunScans(4, args.quick ? 2'000 : 20'000).tps;

  TablePrinter table({"scanners", "throughput (kTps)", "vs SW skiplist",
                      "4-worker LUTs"});
  for (uint32_t scanners : {1u, 2u, 3u, 4u, 5u, 6u, 8u}) {
    double tps = RunHwScan(args, scanners);
    // What the extra scanner modules cost in fabric (resource model).
    power::DesignConfig cfg;
    cfg.n_workers = 4;
    cfg.n_scanners = scanners;
    uint64_t luts = 0;
    for (const auto& row : power::ResourceModel(cfg).ModuleBreakdown()) {
      if (row.name == "Skiplist") luts = row.usage.luts;
    }
    table.AddRow({std::to_string(scanners), bench::Ktps(tps),
                  TablePrinter::Num(sw > 0 ? tps / sw : 0, 2) + "x",
                  std::to_string(luts)});
  }
  table.Print();
  std::printf("SW skiplist (4 threads): %s kTps\n", bench::Ktps(sw).c_str());
  report.WriteFile();
  return 0;
}
