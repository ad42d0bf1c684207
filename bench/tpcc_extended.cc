// Extension — TPC-C beyond the paper's NewOrder/Payment mix.
//
// The paper evaluates only NewOrder and Payment; this harness adds the
// Delivery (REMOVE + dynamic data-dependent loops over computed keys) and
// OrderStatus (read-only navigation) transactions and reports a TPC-C-like
// four-transaction mix, plus per-type solo throughput. Delivery/OrderStatus
// stress exactly the machinery the paper says limits TPC-C: long
// data-dependency chains that serialise the softcore.
#include "bench/bench_util.h"
#include "bench/report.h"
#include "workload/tpcc.h"

namespace bionicdb {
namespace {

using bench::BenchArgs;

bench::BenchReport* g_report = nullptr;

struct MixEntry {
  const char* name;
  double neworder, payment, delivery, orderstatus, stocklevel;
};

host::RunResult Run(const BenchArgs& args, const MixEntry& mix) {
  core::EngineOptions opts;
  args.ApplyMode(&opts);
  opts.n_workers = 4;
  opts.softcore.max_contexts = 4;
  opts.softcore.dynamic_switching = true;  // best configuration for TPC-C
  core::BionicDb engine(opts);
  workload::TpccOptions topts;
  if (args.quick) {
    topts.districts_per_warehouse = 4;
    topts.customers_per_district = 100;
    topts.items = 2'000;
  }
  workload::Tpcc tpcc(&engine, topts);
  if (!tpcc.Setup().ok()) return {};
  Rng rng(args.seed);
  // Mixes without NewOrder would otherwise run against empty districts
  // (all no-ops); warm the order tables up first, outside the measurement.
  if (mix.neworder < 0.01) {
    host::TxnList warmup;
    for (uint32_t w = 0; w < 4; ++w) {
      for (uint32_t i = 0; i < topts.districts_per_warehouse * 5; ++i) {
        warmup.emplace_back(w, tpcc.MakeNewOrder(&rng, w));
      }
    }
    host::RunToCompletion(&engine, warmup);
  }
  // StockLevel is ~50x heavier than the others (hundreds of serial RETs);
  // scale the solo run down.
  uint64_t txns = args.quick ? 120 : 600;
  if (mix.stocklevel >= 0.99) txns = args.quick ? 12 : 60;
  host::TxnList list;
  for (uint32_t w = 0; w < 4; ++w) {
    for (uint64_t i = 0; i < txns; ++i) {
      double pick = rng.NextDouble();
      sim::Addr block;
      if (pick < mix.neworder) {
        block = tpcc.MakeNewOrder(&rng, w);
      } else if (pick < mix.neworder + mix.payment) {
        block = tpcc.MakePayment(&rng, w);
      } else if (pick < mix.neworder + mix.payment + mix.delivery) {
        block = tpcc.MakeDelivery(&rng, w);
      } else if (pick <
                 mix.neworder + mix.payment + mix.delivery + mix.stocklevel) {
        block = tpcc.MakeStockLevel(&rng, w, /*threshold=*/30);
      } else {
        block = tpcc.MakeOrderStatus(&rng, w);
      }
      list.emplace_back(w, block);
    }
  }
  auto r = host::RunToCompletion(&engine, list);
  g_report->AddEngineRun(std::string("mix/") + mix.name, &engine, r);
  return r;
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  using namespace bionicdb;
  auto args = bench::BenchArgs::Parse(argc, argv);
  bench::BenchReport report("tpcc_extended");
  g_report = &report;
  bench::PrintHeader("Extension",
                     "the full five-transaction TPC-C suite");
  // The extended mix approximates the TPC-C spec weights (45:43:4:4:4).
  const MixEntry mixes[] = {
      {"NewOrder only", 1, 0, 0, 0, 0},
      {"Payment only", 0, 1, 0, 0, 0},
      {"Delivery only", 0, 0, 1, 0, 0},
      {"OrderStatus only", 0, 0, 0, 1, 0},
      {"StockLevel only", 0, 0, 0, 0, 1},
      {"paper mix (50:50)", 0.5, 0.5, 0, 0, 0},
      {"full TPC-C (45:43:4:4:4)", 0.45, 0.43, 0.04, 0.04, 0.04},
  };
  TablePrinter table(
      {"mix", "throughput (kTps)", "retry rate", "failed"});
  for (const MixEntry& mix : mixes) {
    auto r = Run(args, mix);
    table.AddRow({mix.name, bench::Ktps(r.tps),
                  TablePrinter::Num(
                      r.committed ? double(r.retries) / double(r.committed)
                                  : 0,
                      2),
                  std::to_string(r.failed)});
  }
  table.Print();
  std::printf(
      "(Solo Delivery/OrderStatus/StockLevel rows run against warmed-up\n"
      " districts; in the mixed rows NewOrder keeps them fed. StockLevel\n"
      " inspects ~hundreds of rows per transaction.)\n");
  report.WriteFile();
  return 0;
}
