// Extension — throughput/latency profile under closed-loop load.
//
// The paper reports throughput only; OLTP deployments also care where the
// latency knee sits. This harness drives the engine with a closed-loop
// client (fixed outstanding transactions per worker) and reports the
// throughput and commit-latency percentiles as offered load grows, for
// YCSB-C and the TPC-C mix.
#include "bench/bench_util.h"
#include "bench/report.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

using bench::BenchArgs;

bench::BenchReport* g_report = nullptr;

void Profile(const BenchArgs& args, bool tpcc) {
  bench::PrintHeader("Latency profile",
                     tpcc ? "TPC-C NewOrder+Payment (closed loop)"
                          : "YCSB-C (closed loop)");
  TablePrinter table({"inflight/worker", "kTps", "p50 (us)", "p95 (us)",
                      "p99 (us)", "retries"});
  for (uint32_t inflight : {1u, 2u, 4u, 8u, 16u}) {
    core::EngineOptions opts;
    args.ApplyMode(&opts);
    opts.n_workers = 4;
    if (tpcc) opts.softcore.max_contexts = 4;
    core::BionicDb engine(opts);
    const double us_per_cycle = 1.0 / opts.timing.clock_mhz;

    host::ClosedLoopOptions copts;
    copts.inflight_per_worker = inflight;
    copts.txns_per_worker = args.quick ? 100 : 400;

    host::ClosedLoopResult result;
    if (tpcc) {
      workload::TpccOptions topts;
      if (args.quick) {
        topts.districts_per_warehouse = 4;
        topts.customers_per_district = 100;
        topts.items = 2'000;
      }
      workload::Tpcc workload_obj(&engine, topts);
      if (!workload_obj.Setup().ok()) return;
      Rng rng(args.seed);
      result = host::RunClosedLoop(
          &engine,
          [&](db::WorkerId w) { return workload_obj.MakeMixed(&rng, w); },
          copts);
    } else {
      workload::YcsbOptions yopts;
      yopts.records_per_partition = args.quick ? 5'000 : 20'000;
      yopts.payload_len = args.quick ? 64 : 1024;
      workload::Ycsb workload_obj(&engine, yopts);
      if (!workload_obj.Setup().ok()) return;
      Rng rng(args.seed);
      result = host::RunClosedLoop(
          &engine,
          [&](db::WorkerId w) { return workload_obj.MakeTxn(&rng, w); },
          copts);
    }
    g_report->AddEngineRun(std::string(tpcc ? "tpcc_mix" : "ycsb_c") +
                               "/inflight=" + std::to_string(inflight),
                           &engine, result);
    table.AddRow(
        {std::to_string(inflight), bench::Ktps(result.tps),
         TablePrinter::Num(result.latency_cycles.Quantile(0.5) * us_per_cycle,
                           1),
         TablePrinter::Num(
             result.latency_cycles.Quantile(0.95) * us_per_cycle, 1),
         TablePrinter::Num(
             result.latency_cycles.Quantile(0.99) * us_per_cycle, 1),
         std::to_string(result.retries)});
  }
  table.Print();
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  auto args = bionicdb::bench::BenchArgs::Parse(argc, argv);
  bionicdb::bench::BenchReport report("latency_profile");
  bionicdb::g_report = &report;
  bionicdb::Profile(args, /*tpcc=*/false);
  bionicdb::Profile(args, /*tpcc=*/true);
  report.WriteFile();
  return 0;
}
