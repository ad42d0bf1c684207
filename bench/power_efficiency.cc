// Headline result — performance per watt (paper abstract + section 5.8):
// BionicDB delivers an order of magnitude better power efficiency while
// staying performance-competitive.
#include "baseline/workloads.h"
#include "bench/bench_util.h"
#include "bench/report.h"
#include "power/model.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

bench::BenchReport* g_report = nullptr;

double RunBionic(const bench::BenchArgs& args, uint32_t workers) {
  core::EngineOptions opts;
  args.ApplyMode(&opts);
  opts.n_workers = workers;
  core::BionicDb engine(opts);
  workload::YcsbOptions yopts;
  yopts.records_per_partition = args.quick ? 5'000 : 50'000;
  yopts.payload_len = args.quick ? 64 : 1024;
  workload::Ycsb ycsb(&engine, yopts);
  if (!ycsb.Setup().ok()) return 0;
  Rng rng(args.seed);
  const uint64_t txns = args.quick ? 300 : 2'000;
  host::TxnList list;
  for (uint32_t w = 0; w < workers; ++w) {
    for (uint64_t i = 0; i < txns; ++i) {
      list.emplace_back(w, ycsb.MakeTxn(&rng, w));
    }
  }
  auto r = host::RunToCompletion(&engine, list);
  g_report->AddEngineRun("ycsb_c/workers=" + std::to_string(workers),
                         &engine, r);
  return r.tps;
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  using namespace bionicdb;
  auto args = bench::BenchArgs::Parse(argc, argv);
  bench::BenchReport report("power_efficiency");
  g_report = &report;
  bench::PrintHeader("Power efficiency", "YCSB-C transactions/second/watt");

  double bionic_tps = RunBionic(args, 4);
  double bionic_watts = power::PowerModel::BionicDbWatts(4);

  baseline::SiloYcsbOptions sopts;
  sopts.records = args.quick ? 20'000 : 200'000;
  sopts.payload_len = args.quick ? 64 : 256;
  baseline::SiloYcsb silo(sopts);
  silo.Setup();
  uint32_t threads = bench::MaxBaselineThreads();
  double silo_tps =
      silo.RunPointTxns(threads, args.quick ? 2'000 : 20'000).tps;
  // Attribute TDP per chip: 6 cores per Xeon E7-4807.
  uint32_t chips = (threads + 5) / 6;
  double silo_watts = power::PowerModel::XeonWatts(chips);

  TablePrinter table(
      {"system", "kTps", "watts", "kTps/W", "relative efficiency"});
  double bionic_eff = bionic_tps / bionic_watts;
  double silo_eff = silo_tps / silo_watts;
  table.AddRow({"BionicDB (4 workers)", bench::Ktps(bionic_tps),
                TablePrinter::Num(bionic_watts, 1),
                TablePrinter::Num(bionic_eff / 1e3, 2),
                TablePrinter::Num(silo_eff > 0 ? bionic_eff / silo_eff : 0,
                                  1) +
                    "x"});
  table.AddRow({"Silo (" + std::to_string(threads) + " threads)",
                bench::Ktps(silo_tps), TablePrinter::Num(silo_watts, 0),
                TablePrinter::Num(silo_eff / 1e3, 2), "1.0x"});
  table.Print();
  StatsRegistry& reg = report.AddRun("efficiency");
  reg.SetGauge("bionicdb/tps", bionic_tps);
  reg.SetGauge("bionicdb/watts", bionic_watts);
  reg.SetGauge("bionicdb/tps_per_watt", bionic_eff);
  reg.SetGauge("silo/tps", silo_tps);
  reg.SetGauge("silo/watts", silo_watts);
  reg.SetGauge("silo/tps_per_watt", silo_eff);
  report.WriteFile();
  return 0;
}
