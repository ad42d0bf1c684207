// Figure 11 — skiplist pipelining: (a) sequential load, (b) point query,
// (c) scan throughput vs in-flight cap, and (d) scan comparison against
// Masstree (OLC B+tree stand-in) and a software skiplist, 4 workers each.
//
// Paper result shapes to reproduce:
//  * (a)/(b) saturate around 8 in-flight ops — index parallelism is bound
//    by pipeline DEPTH, since traversal stages hold an op across multiple
//    memory stalls (unlike the hash pipeline);
//  * (c) deteriorates further: the single scanner module is the
//    bottleneck;
//  * (d) the hardware skiplist loses to Masstree (~20 %) and to the
//    software skiplist (~5x) on scans with one scanner.
#include "baseline/workloads.h"
#include "bench/bench_util.h"
#include "bench/report.h"
#include "workload/kv.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

using bench::BenchArgs;

const std::vector<uint32_t> kInflight = {1, 4, 8, 12, 16, 20, 24};

bench::BenchReport* g_report = nullptr;

void LoadAndPointCurves(const BenchArgs& args) {
  const uint64_t preload = args.quick ? 2'000 : 20'000;
  const uint64_t txns = args.quick ? 10 : 60;  // x60 ops each

  bench::PrintHeader("Figure 11a/11b",
                     "Skiplist sequential load + point query vs in-flight");
  TablePrinter table({"in-flight", "insert (kOps)", "point query (kTps)"});
  for (uint32_t inflight : kInflight) {
    double results[2];
    for (int mode = 0; mode < 2; ++mode) {
      core::EngineOptions opts;
      args.ApplyMode(&opts);
      opts.n_workers = 4;
      opts.coproc.max_inflight = inflight;
      core::BionicDb engine(opts);
      workload::KvOptions kopts;
      kopts.index = db::IndexKind::kSkiplist;
      kopts.preload_per_partition = preload;
      workload::KvBench kv(&engine, kopts);
      if (!kv.Setup().ok()) return;
      Rng rng(args.seed);
      host::TxnList list;
      for (uint32_t w = 0; w < 4; ++w) {
        for (uint64_t i = 0; i < txns; ++i) {
          list.emplace_back(w, mode == 0
                                   ? kv.MakeInsertTxn(w, /*sequential=*/true)
                                   : kv.MakeSearchTxn(&rng, w));
        }
      }
      auto r = host::RunToCompletion(&engine, list);
      g_report->AddEngineRun(std::string("skiplist_") +
                                 (mode == 0 ? "load" : "point") +
                                 "/inflight=" + std::to_string(inflight),
                             &engine, r);
      results[mode] = r.tps * kopts.ops_per_txn;
    }
    table.AddRow({std::to_string(inflight),
                  TablePrinter::Num(results[0] / 1e3, 0),
                  TablePrinter::Num(results[1] / 1e3, 0)});
  }
  table.Print();
}

double RunHwScan(const BenchArgs& args, uint32_t inflight,
                 uint32_t n_scanners) {
  core::EngineOptions opts;
  args.ApplyMode(&opts);
  opts.n_workers = 4;
  opts.coproc.max_inflight = inflight;
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
  host::TxnList list;
  const uint64_t txns = args.quick ? 60 : 300;
  for (uint32_t w = 0; w < 4; ++w) {
    for (uint64_t i = 0; i < txns; ++i) {
      list.emplace_back(w, ycsb.MakeTxn(&rng, w));
    }
  }
  auto r = host::RunToCompletion(&engine, list);
  g_report->AddEngineRun("scan/inflight=" + std::to_string(inflight) +
                             "/scanners=" + std::to_string(n_scanners),
                         &engine, r);
  return r.tps;
}

void ScanCurve(const BenchArgs& args) {
  bench::PrintHeader("Figure 11c",
                     "Modified YCSB-E scan-only (50 tuples) vs in-flight");
  TablePrinter table({"in-flight", "throughput (kTps)"});
  for (uint32_t inflight : kInflight) {
    table.AddRow({std::to_string(inflight),
                  bench::Ktps(RunHwScan(args, inflight, /*n_scanners=*/1))});
  }
  table.Print();
}

void ScanVsSoftware(const BenchArgs& args) {
  bench::PrintHeader("Figure 11d",
                     "Scan throughput: BionicDB vs Masstree vs SW skiplist");
  TablePrinter table({"system", "throughput (kTps)"});
  table.AddRow({"BionicDB (1 scanner)",
                bench::Ktps(RunHwScan(args, 16, 1))});

  const uint64_t silo_txns = args.quick ? 2'000 : 20'000;
  for (auto [name, kind] :
       {std::pair{"Masstree (OLC B+tree)", baseline::SiloIndexKind::kBTree},
        std::pair{"SW skiplist", baseline::SiloIndexKind::kSkiplist}}) {
    baseline::SiloYcsbOptions sopts;
    sopts.records = args.quick ? 8'000 : 80'000;
    sopts.payload_len = args.quick ? 64 : 256;
    sopts.index = kind;
    sopts.scan_len = 50;
    baseline::SiloYcsb silo(sopts);
    silo.Setup();
    auto r = silo.RunScans(/*threads=*/4, silo_txns);
    table.AddRow({name, bench::Ktps(r.tps)});
  }
  table.Print();
  std::printf(
      "(The paper estimates >=5 scanners are needed to match the software\n"
      " skiplist; see ablation_scanners for that sweep.)\n");
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  auto args = bionicdb::bench::BenchArgs::Parse(argc, argv);
  bionicdb::bench::BenchReport report("fig11_skiplist");
  bionicdb::g_report = &report;
  bionicdb::LoadAndPointCurves(args);
  bionicdb::ScanCurve(args);
  bionicdb::ScanVsSoftware(args);
  report.WriteFile();
  return 0;
}
