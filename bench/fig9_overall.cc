// Figure 9 — overall performance: BionicDB (1..4 workers, simulated at
// 125 MHz) vs the Silo baseline (native threads) on (a) YCSB-C and (b) the
// TPC-C NewOrder/Payment 50:50 mix.
//
// Paper result shapes to reproduce:
//  * YCSB-C: BionicDB beats Silo by ~4.5x at equal worker counts; Silo
//    needs many cores to match 4 BionicDB workers.
//  * TPC-C: comparable at equal workers — BionicDB is underutilised by the
//    Payment transaction's tiny index footprint and NewOrder's data
//    dependency.
#include "baseline/workloads.h"
#include "bench/bench_util.h"
#include "bench/report.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

using bench::BenchArgs;

void RunYcsbC(const BenchArgs& args, bench::BenchReport* report) {
  bench::PrintHeader("Figure 9a", "YCSB-C (read-only) overall throughput");
  const uint32_t records = args.smoke ? 2'000 : args.quick ? 5'000 : 50'000;
  const uint32_t payload = args.quick ? 64 : 1024;
  const uint64_t txns_per_worker =
      args.smoke ? 200 : args.quick ? 300 : 2'000;

  TablePrinter table({"system", "workers/threads", "throughput (kTps)"});
  const uint32_t max_workers = args.smoke ? 2 : 4;
  for (uint32_t workers = 1; workers <= max_workers; ++workers) {
    core::EngineOptions opts;
    args.ApplyMode(&opts);
    opts.n_workers = workers;
    core::BionicDb engine(opts);
    workload::YcsbOptions yopts;
    yopts.mode = workload::YcsbOptions::Mode::kReadOnly;
    yopts.records_per_partition = records;
    yopts.payload_len = payload;
    workload::Ycsb ycsb(&engine, yopts);
    if (auto s = ycsb.Setup(); !s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      return;
    }
    Rng rng(args.seed);
    host::TxnList txns;
    for (uint32_t w = 0; w < workers; ++w) {
      for (uint64_t i = 0; i < txns_per_worker; ++i) {
        txns.emplace_back(w, ycsb.MakeTxn(&rng, w));
      }
    }
    auto r = host::RunToCompletion(&engine, txns);
    report->AddEngineRun("ycsb_c/workers=" + std::to_string(workers),
                         &engine, r);
    table.AddRow({"BionicDB", std::to_string(workers), bench::Ktps(r.tps)});
  }
  if (args.smoke) {
    table.Print();
    return;  // smoke: skip the native Silo sweep
  }

  const uint64_t silo_txns = args.quick ? 2'000 : 20'000;
  for (uint32_t threads : {1u, 2u, 4u, 8u, 12u, 16u, 20u, 24u}) {
    if (threads > bench::MaxBaselineThreads()) break;
    baseline::SiloYcsbOptions sopts;
    sopts.records = uint64_t(records) * 4;
    sopts.payload_len = args.quick ? 64 : 256;
    baseline::SiloYcsb silo(sopts);
    silo.Setup();
    auto r = silo.RunPointTxns(threads, silo_txns);
    table.AddRow({"Silo (Xeon)", std::to_string(threads), bench::Ktps(r.tps)});
  }
  table.Print();
  bench::PrintHostInfo();
}

void RunTpcc(const BenchArgs& args, bench::BenchReport* report) {
  bench::PrintHeader("Figure 9b", "TPC-C NewOrder+Payment 50:50 mix");
  workload::TpccOptions topts;
  if (args.quick) {
    topts.districts_per_warehouse = 4;
    topts.customers_per_district = 100;
    topts.items = 2'000;
    topts.ol_cnt = 10;
  }
  const uint64_t txns_per_worker = args.quick ? 150 : 1'000;

  TablePrinter table(
      {"system", "workers/threads", "throughput (kTps)", "retry rate"});
  const uint32_t max_workers = args.smoke ? 2 : 4;
  for (uint32_t workers = 1; workers <= max_workers; ++workers) {
    core::EngineOptions opts;
    args.ApplyMode(&opts);
    opts.n_workers = workers;
    // Small batches keep single-warehouse contention manageable under the
    // blind-reject timestamp CC (see EXPERIMENTS.md).
    opts.softcore.max_contexts = 4;
    core::BionicDb engine(opts);
    workload::Tpcc tpcc(&engine, topts);
    if (auto s = tpcc.Setup(); !s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      return;
    }
    Rng rng(args.seed);
    host::TxnList txns;
    for (uint32_t w = 0; w < workers; ++w) {
      for (uint64_t i = 0; i < txns_per_worker; ++i) {
        txns.emplace_back(w, tpcc.MakeMixed(&rng, w));
      }
    }
    auto r = host::RunToCompletion(&engine, txns);
    report->AddEngineRun("tpcc_mix/workers=" + std::to_string(workers),
                         &engine, r);
    table.AddRow({"BionicDB", std::to_string(workers), bench::Ktps(r.tps),
                  TablePrinter::Num(double(r.retries) /
                                        double(r.committed ? r.committed : 1),
                                    2)});
  }
  if (args.smoke) {
    table.Print();
    return;  // smoke: skip the native Silo sweep
  }

  const uint64_t silo_txns = args.quick ? 1'000 : 5'000;
  for (uint32_t threads : {1u, 2u, 4u, 8u, 12u, 16u, 20u, 24u}) {
    if (threads > bench::MaxBaselineThreads()) break;
    baseline::SiloTpccOptions sopts;
    sopts.warehouses = threads;  // partition-per-thread, like the paper
    sopts.districts_per_warehouse = topts.districts_per_warehouse;
    sopts.customers_per_district = topts.customers_per_district;
    sopts.items = topts.items;
    sopts.ol_cnt = topts.ol_cnt;
    baseline::SiloTpcc silo(sopts);
    silo.Setup();
    auto r = silo.RunMix(threads, silo_txns);
    table.AddRow({"Silo (Xeon)", std::to_string(threads), bench::Ktps(r.tps),
                  TablePrinter::Num(double(r.aborted) /
                                        double(r.committed ? r.committed : 1),
                                    2)});
  }
  table.Print();
  bench::PrintHostInfo();
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  auto args = bionicdb::bench::BenchArgs::Parse(argc, argv);
  bionicdb::bench::BenchReport report("fig9_overall");
  bionicdb::RunYcsbC(args, &report);
  bionicdb::RunTpcc(args, &report);
  report.WriteFile();
  return 0;
}
