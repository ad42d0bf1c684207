// Figure 12 — transaction interleaving vs serial execution.
//
// Paper result shapes to reproduce:
//  (a) YCSB-C with 1..64 DB accesses per transaction: interleaving wins
//      ~3x at 1 access (inter-transaction parallelism substitutes for
//      missing intra-transaction parallelism); the gap shrinks as the
//      footprint grows;
//  (b) TPC-C NewOrder and Payment: no noticeable difference — data
//      dependency forces the softcore to wait inside the logic phase,
//      eliminating the interleaving opportunity.
#include "bench/bench_util.h"
#include "bench/report.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

using bench::BenchArgs;

bench::BenchReport* g_report = nullptr;

double RunYcsb(const BenchArgs& args, uint32_t accesses, bool interleaving) {
  core::EngineOptions opts;
  args.ApplyMode(&opts);
  opts.n_workers = 4;
  opts.softcore.interleaving = interleaving;
  core::BionicDb engine(opts);
  workload::YcsbOptions yopts;
  yopts.accesses_per_txn = accesses;
  yopts.records_per_partition = args.quick ? 5'000 : 50'000;
  yopts.payload_len = args.quick ? 64 : 1024;
  workload::Ycsb ycsb(&engine, yopts);
  if (!ycsb.Setup().ok()) return 0;
  Rng rng(args.seed);
  // Hold work (DB accesses) constant-ish across footprints.
  const uint64_t txns =
      std::max<uint64_t>(50, (args.quick ? 3'000 : 24'000) / accesses);
  host::TxnList list;
  for (uint32_t w = 0; w < 4; ++w) {
    for (uint64_t i = 0; i < txns; ++i) {
      list.emplace_back(w, ycsb.MakeTxn(&rng, w));
    }
  }
  auto r = host::RunToCompletion(&engine, list);
  g_report->AddEngineRun("ycsb/accesses=" + std::to_string(accesses) +
                             (interleaving ? "/interleaved" : "/serial"),
                         &engine, r);
  return r.tps;
}

double RunTpcc(const BenchArgs& args, bool neworder, bool interleaving) {
  core::EngineOptions opts;
  args.ApplyMode(&opts);
  opts.n_workers = 4;
  opts.softcore.interleaving = interleaving;
  opts.softcore.max_contexts = 4;
  core::BionicDb engine(opts);
  workload::TpccOptions topts;
  if (args.quick) {
    topts.districts_per_warehouse = 4;
    topts.customers_per_district = 100;
    topts.items = 2'000;
  }
  topts.remote_neworder_fraction = 0;  // all-local, like the paper
  topts.remote_payment_fraction = 0;
  workload::Tpcc tpcc(&engine, topts);
  if (!tpcc.Setup().ok()) return 0;
  Rng rng(args.seed);
  const uint64_t txns = args.quick ? 100 : 600;
  host::TxnList list;
  for (uint32_t w = 0; w < 4; ++w) {
    for (uint64_t i = 0; i < txns; ++i) {
      list.emplace_back(w, neworder ? tpcc.MakeNewOrder(&rng, w)
                                    : tpcc.MakePayment(&rng, w));
    }
  }
  auto r = host::RunToCompletion(&engine, list);
  g_report->AddEngineRun(std::string(neworder ? "tpcc_neworder" :
                                                "tpcc_payment") +
                             (interleaving ? "/interleaved" : "/serial"),
                         &engine, r);
  return r.tps;
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  using namespace bionicdb;
  auto args = bench::BenchArgs::Parse(argc, argv);
  bench::BenchReport report("fig12_interleaving");
  g_report = &report;

  bench::PrintHeader("Figure 12a",
                     "Interleaving vs serial, YCSB-C footprint sweep");
  TablePrinter ycsb_table({"DB accesses/txn", "interleaving (kTps)",
                           "serial (kTps)", "speedup"});
  for (uint32_t accesses : {1u, 16u, 32u, 48u, 64u}) {
    double inter = RunYcsb(args, accesses, true);
    double serial = RunYcsb(args, accesses, false);
    ycsb_table.AddRow({std::to_string(accesses), bench::Ktps(inter),
                       bench::Ktps(serial),
                       TablePrinter::Num(serial > 0 ? inter / serial : 0, 2)});
  }
  ycsb_table.Print();

  bench::PrintHeader("Figure 12b", "Interleaving vs serial, TPC-C");
  TablePrinter tpcc_table({"transaction", "interleaving (kTps)",
                           "serial (kTps)", "speedup"});
  for (bool neworder : {true, false}) {
    double inter = RunTpcc(args, neworder, true);
    double serial = RunTpcc(args, neworder, false);
    tpcc_table.AddRow({neworder ? "NewOrder" : "Payment", bench::Ktps(inter),
                       bench::Ktps(serial),
                       TablePrinter::Num(serial > 0 ? inter / serial : 0, 2)});
  }
  tpcc_table.Print();
  report.WriteFile();
  return 0;
}
