// Figure 10 — hash-index pipelining: throughput vs the maximum number of
// in-flight DB requests over the index coprocessor.
//
// Paper result shapes to reproduce:
//  (a) KV insert/search peak ~8.5/7 Mops, saturating between 12 and 16
//      in-flight requests;
//  (b) YCSB-C and (c) TPC-C NewOrder follow the same saturation trend
//      (ample intra-transaction parallelism);
//  (d) TPC-C Payment stops improving after ~4 (only 4 index operations).
//
// All transactions are local (the coprocessor is the unit under test).
#include "bench/bench_util.h"
#include "bench/report.h"
#include "workload/kv.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

using bench::BenchArgs;

const std::vector<uint32_t> kInflight = {1, 4, 8, 12, 16, 20, 24};

bench::BenchReport* g_report = nullptr;

std::vector<uint32_t> InflightSweep(const BenchArgs& args) {
  if (args.smoke) return {4, 16};
  return kInflight;
}

core::EngineOptions EngineOpts(const BenchArgs& args, uint32_t inflight) {
  core::EngineOptions opts;
  args.ApplyMode(&opts);
  opts.n_workers = 4;
  opts.coproc.max_inflight = inflight;
  return opts;
}

void KvCurves(const BenchArgs& args) {
  bench::PrintHeader("Figure 10a",
                     "KeyValue bulk insert/search (Mops) vs in-flight cap");
  const uint64_t preload = args.quick ? 5'000 : 50'000;
  const uint64_t txns = args.quick ? 30 : 200;  // x60 ops each

  TablePrinter table({"in-flight", "insert (Mops)", "search (Mops)"});
  for (uint32_t inflight : InflightSweep(args)) {
    double mops[2];
    for (int mode = 0; mode < 2; ++mode) {
      core::BionicDb engine(EngineOpts(args, inflight));
      workload::KvOptions kopts;
      kopts.preload_per_partition = preload;
      workload::KvBench kv(&engine, kopts);
      if (!kv.Setup().ok()) return;
      Rng rng(args.seed);
      host::TxnList list;
      for (uint32_t w = 0; w < 4; ++w) {
        for (uint64_t i = 0; i < txns; ++i) {
          list.emplace_back(w, mode == 0
                                   ? kv.MakeInsertTxn(w, /*sequential=*/false)
                                   : kv.MakeSearchTxn(&rng, w));
        }
      }
      auto r = host::RunToCompletion(&engine, list);
      g_report->AddEngineRun(std::string("kv_") +
                                 (mode == 0 ? "insert" : "search") +
                                 "/inflight=" + std::to_string(inflight),
                             &engine, r);
      mops[mode] = r.tps * kopts.ops_per_txn;
    }
    table.AddRow({std::to_string(inflight), bench::Mops(mops[0]),
                  bench::Mops(mops[1])});
  }
  table.Print();
}

void YcsbCurve(const BenchArgs& args) {
  bench::PrintHeader("Figure 10b", "YCSB-C (kTps) vs in-flight cap");
  const uint32_t records = args.quick ? 5'000 : 50'000;
  const uint64_t txns = args.quick ? 200 : 1'500;
  TablePrinter table({"in-flight", "throughput (kTps)"});
  for (uint32_t inflight : InflightSweep(args)) {
    core::BionicDb engine(EngineOpts(args, inflight));
    workload::YcsbOptions yopts;
    yopts.records_per_partition = records;
    yopts.payload_len = args.quick ? 64 : 1024;
    workload::Ycsb ycsb(&engine, yopts);
    if (!ycsb.Setup().ok()) return;
    Rng rng(args.seed);
    host::TxnList list;
    for (uint32_t w = 0; w < 4; ++w) {
      for (uint64_t i = 0; i < txns; ++i) {
        list.emplace_back(w, ycsb.MakeTxn(&rng, w));
      }
    }
    auto r = host::RunToCompletion(&engine, list);
    g_report->AddEngineRun("ycsb_c/inflight=" + std::to_string(inflight),
                           &engine, r);
    table.AddRow({std::to_string(inflight), bench::Ktps(r.tps)});
  }
  table.Print();
}

void TpccCurves(const BenchArgs& args) {
  workload::TpccOptions topts;
  if (args.quick) {
    topts.districts_per_warehouse = 4;
    topts.customers_per_district = 100;
    topts.items = 2'000;
  }
  const uint64_t txns = args.quick ? 100 : 600;

  for (int which = 0; which < 2; ++which) {
    bench::PrintHeader(which == 0 ? "Figure 10c" : "Figure 10d",
                       which == 0 ? "TPC-C NewOrder (kTps) vs in-flight cap"
                                  : "TPC-C Payment (kTps) vs in-flight cap");
    TablePrinter table({"in-flight", "throughput (kTps)"});
    for (uint32_t inflight : InflightSweep(args)) {
      core::EngineOptions opts = EngineOpts(args, inflight);
      opts.softcore.max_contexts = 4;
      core::BionicDb engine(opts);
      // Local-only variant: the coprocessor is the unit under test.
      workload::TpccOptions local = topts;
      local.remote_neworder_fraction = 0;
      local.remote_payment_fraction = 0;
      workload::Tpcc tpcc(&engine, local);
      if (!tpcc.Setup().ok()) return;
      Rng rng(args.seed);
      host::TxnList list;
      for (uint32_t w = 0; w < 4; ++w) {
        for (uint64_t i = 0; i < txns; ++i) {
          list.emplace_back(w, which == 0 ? tpcc.MakeNewOrder(&rng, w)
                                          : tpcc.MakePayment(&rng, w));
        }
      }
      auto r = host::RunToCompletion(&engine, list);
      g_report->AddEngineRun(
          std::string(which == 0 ? "tpcc_neworder" : "tpcc_payment") +
              "/inflight=" + std::to_string(inflight),
          &engine, r);
      table.AddRow({std::to_string(inflight), bench::Ktps(r.tps)});
    }
    table.Print();
  }
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  auto args = bionicdb::bench::BenchArgs::Parse(argc, argv);
  bionicdb::bench::BenchReport report("fig10_hash");
  bionicdb::g_report = &report;
  bionicdb::KvCurves(args);
  bionicdb::YcsbCurve(args);
  bionicdb::TpccCurves(args);
  report.WriteFile();
  return 0;
}
