// Ablation — contention sensitivity: key skew, batch sizing and the
// wait-on-dirty budget.
//
// The paper evaluates uniform YCSB and lightly-contended TPC-C; this
// ablation maps where the blind-reject timestamp CC (section 4.7) starts to
// hurt and what the mitigation knobs buy:
//   * Zipfian skew sweep on a YCSB update mix — retry rate vs theta, with
//     and without the wait-on-dirty extension;
//   * interleaving batch size (softcore context count) sweep on the TPC-C
//     mix — bigger batches expose more index parallelism but put more
//     uncommitted writers in flight on the hot warehouse row;
//   * wait-on-dirty budget sweep (EngineOptions::dirty_wait_cycles) on
//     TPC-C Payment, the paper's most contended transaction: every Payment
//     in a batch updates the same warehouse tuple, so under the blind
//     reject only the first batchmate commits and the rest burn a retry
//     round trip. Parking the conflicting op until the uncommitted writer
//     resolves (bounded by a timeout that also breaks cross-transaction
//     wait cycles) trades those retries for wait cycles. The conflict-free
//     YCSB-C is the no-regression control.
#include "bench/bench_util.h"
#include "bench/report.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

bench::BenchReport* g_report = nullptr;

struct Outcome {
  double ktps = 0;
  double retry_rate = 0;
  uint64_t timeouts = 0;  // dirty-wait timeouts (Payment sweep)
};

Outcome RunSkewed(const bench::BenchArgs& args, bool zipfian,
                  uint32_t wait_cycles) {
  core::EngineOptions opts;
  opts.n_workers = 4;
  opts.dirty_wait_cycles = wait_cycles;
  core::BionicDb engine(opts);
  workload::YcsbOptions yopts;
  yopts.mode = workload::YcsbOptions::Mode::kUpdateMix;
  yopts.records_per_partition = args.quick ? 5'000 : 20'000;
  yopts.payload_len = 64;
  yopts.accesses_per_txn = 16;
  yopts.updates_per_txn = 8;
  yopts.zipfian = zipfian;
  workload::Ycsb ycsb(&engine, yopts);
  if (!ycsb.Setup().ok()) return {};
  Rng rng(args.seed);
  const uint64_t txns = args.quick ? 150 : 800;
  host::TxnList list;
  for (uint32_t w = 0; w < 4; ++w) {
    for (uint64_t i = 0; i < txns; ++i) {
      list.emplace_back(w, ycsb.MakeTxn(&rng, w));
    }
  }
  auto r = host::RunToCompletion(&engine, list);
  g_report->AddEngineRun(std::string("ycsb_update/") +
                             (zipfian ? "zipfian" : "uniform") +
                             "/wait=" + std::to_string(wait_cycles),
                         &engine, r);
  return {r.tps / 1e3,
          r.committed ? double(r.retries) / double(r.committed) : 0};
}

Outcome RunTpccBatch(const bench::BenchArgs& args, uint32_t max_contexts) {
  core::EngineOptions opts;
  opts.n_workers = 4;
  opts.softcore.max_contexts = max_contexts;
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
  const uint64_t txns = args.quick ? 100 : 500;
  host::TxnList list;
  for (uint32_t w = 0; w < 4; ++w) {
    for (uint64_t i = 0; i < txns; ++i) {
      list.emplace_back(w, tpcc.MakeMixed(&rng, w));
    }
  }
  auto r = host::RunToCompletion(&engine, list);
  g_report->AddEngineRun("tpcc_mix/contexts=" + std::to_string(max_contexts),
                         &engine, r);
  return {r.tps / 1e3,
          r.committed ? double(r.retries) / double(r.committed) : 0};
}

Outcome RunPayment(const bench::BenchArgs& args, uint32_t wait_cycles) {
  core::EngineOptions opts;
  opts.n_workers = 4;
  opts.softcore.max_contexts = 4;
  opts.dirty_wait_cycles = wait_cycles;
  core::BionicDb engine(opts);
  workload::TpccOptions topts;
  if (args.quick) {
    topts.districts_per_warehouse = 4;
    topts.customers_per_district = 100;
    topts.items = 2'000;
  }
  topts.remote_payment_fraction = 0.15;
  workload::Tpcc tpcc(&engine, topts);
  if (!tpcc.Setup().ok()) return {};
  Rng rng(args.seed);
  const uint64_t txns = args.quick ? 100 : 600;
  host::TxnList list;
  for (uint32_t w = 0; w < 4; ++w) {
    for (uint64_t i = 0; i < txns; ++i) {
      list.emplace_back(w, tpcc.MakePayment(&rng, w));
    }
  }
  auto r = host::RunToCompletion(&engine, list);
  g_report->AddEngineRun("tpcc_payment/wait=" + std::to_string(wait_cycles),
                         &engine, r);
  Outcome out{r.tps / 1e3,
              r.committed ? double(r.retries) / double(r.committed) : 0};
  for (uint32_t w = 0; w < 4; ++w) {
    out.timeouts += engine.worker(w)
                        .coprocessor()
                        .hash_pipeline()
                        .counters()
                        .Get("dirty_wait_timeouts");
  }
  return out;
}

double RunYcsbControl(const bench::BenchArgs& args, uint32_t wait_cycles) {
  core::EngineOptions opts;
  opts.n_workers = 4;
  opts.dirty_wait_cycles = wait_cycles;
  core::BionicDb engine(opts);
  workload::YcsbOptions yopts;
  yopts.records_per_partition = args.quick ? 5'000 : 20'000;
  yopts.payload_len = 64;
  workload::Ycsb ycsb(&engine, yopts);
  if (!ycsb.Setup().ok()) return 0;
  Rng rng(args.seed);
  const uint64_t txns = args.quick ? 200 : 1'000;
  host::TxnList list;
  for (uint32_t w = 0; w < 4; ++w) {
    for (uint64_t i = 0; i < txns; ++i) {
      list.emplace_back(w, ycsb.MakeTxn(&rng, w));
    }
  }
  auto r = host::RunToCompletion(&engine, list);
  g_report->AddEngineRun("ycsb_c/wait=" + std::to_string(wait_cycles),
                         &engine, r);
  return r.tps;
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  using namespace bionicdb;
  auto args = bench::BenchArgs::Parse(argc, argv);
  bench::BenchReport report("ablation_contention");
  g_report = &report;
  bench::PrintHeader("Ablation",
                     "Contention: skew, batch sizing and dirty waiting");

  std::printf("\nYCSB update mix (8 of 16 accesses update):\n");
  TablePrinter skew({"distribution", "CC policy", "throughput (kTps)",
                     "retry rate"});
  for (bool zipfian : {false, true}) {
    for (uint32_t wait : {0u, 1024u}) {
      auto o = RunSkewed(args, zipfian, wait);
      skew.AddRow({zipfian ? "zipfian(0.99)" : "uniform",
                   wait == 0 ? "blind reject (paper)" : "wait 1024c",
                   TablePrinter::Num(o.ktps, 1),
                   TablePrinter::Num(o.retry_rate, 2)});
    }
  }
  skew.Print();

  std::printf("\nTPC-C mix vs interleaving batch size (softcore contexts):\n");
  TablePrinter batch({"max contexts", "throughput (kTps)", "retry rate"});
  for (uint32_t contexts : {1u, 2u, 4u, 8u, 16u, 32u}) {
    auto o = RunTpccBatch(args, contexts);
    batch.AddRow({std::to_string(contexts), TablePrinter::Num(o.ktps, 1),
                  TablePrinter::Num(o.retry_rate, 2)});
  }
  batch.Print();

  std::printf("\nTPC-C Payment vs wait-on-dirty budget (hot warehouse row):\n");
  TablePrinter wait({"dirty wait (cycles)", "throughput (kTps)",
                     "retry rate", "wait timeouts"});
  for (uint32_t cycles : {0u, 256u, 1024u, 4096u, 16384u}) {
    auto o = RunPayment(args, cycles);
    wait.AddRow({cycles == 0 ? "0 (paper)" : std::to_string(cycles),
                 TablePrinter::Num(o.ktps, 1),
                 TablePrinter::Num(o.retry_rate, 2),
                 std::to_string(o.timeouts)});
  }
  wait.Print();

  std::printf("\nYCSB-C control (conflict-free, must not regress):\n");
  TablePrinter control({"dirty wait (cycles)", "throughput (kTps)"});
  for (uint32_t cycles : {0u, 4096u}) {
    control.AddRow({cycles == 0 ? "0 (paper)" : std::to_string(cycles),
                    bench::Ktps(RunYcsbControl(args, cycles))});
  }
  control.Print();
  report.WriteFile();
  return 0;
}
