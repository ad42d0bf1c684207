// Ablation — DRAM latency sensitivity: the memory-wall thesis.
//
// The paper's starting point (section 3.1) is that OLTP is bound by memory
// stalls that software techniques cannot hide, and that hardware pipelining
// provides the missing memory-level parallelism. This sweep varies the
// simulated DRAM's random-access latency across three machines — the full
// design, intra-transaction parallelism only, and a no-MLP strawman —
// showing the pipelining advantage GROW with latency.
#include "bench/bench_util.h"
#include "bench/report.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

bench::BenchReport* g_report = nullptr;

double Run(const bench::BenchArgs& args, uint32_t latency,
           bool interleaving, uint32_t inflight = 16) {
  core::EngineOptions opts;
  args.ApplyMode(&opts);
  opts.n_workers = 4;
  opts.timing.dram_latency_cycles = latency;
  opts.softcore.interleaving = interleaving;
  opts.coproc.max_inflight = inflight;
  core::BionicDb engine(opts);
  workload::YcsbOptions yopts;
  yopts.records_per_partition = args.quick ? 5'000 : 20'000;
  yopts.payload_len = args.quick ? 64 : 1024;
  workload::Ycsb ycsb(&engine, yopts);
  if (!ycsb.Setup().ok()) return 0;
  Rng rng(args.seed);
  const uint64_t txns = args.quick ? 150 : 800;
  host::TxnList list;
  for (uint32_t w = 0; w < 4; ++w) {
    for (uint64_t i = 0; i < txns; ++i) {
      list.emplace_back(w, ycsb.MakeTxn(&rng, w));
    }
  }
  auto r = host::RunToCompletion(&engine, list);
  g_report->AddEngineRun(
      "latency=" + std::to_string(latency) + "/" +
          (interleaving ? "full" : inflight > 1 ? "intra" : "nomlp"),
      &engine, r);
  return r.tps;
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  using namespace bionicdb;
  auto args = bench::BenchArgs::Parse(argc, argv);
  bench::BenchReport report("ablation_latency");
  g_report = &report;
  bench::PrintHeader("Ablation",
                     "DRAM latency sensitivity, YCSB-C (pipelined vs serial)");
  // Three machines: the full design (interleaving + 16 in-flight index
  // ops), intra-transaction parallelism only (serial execution, 16
  // in-flight), and no memory-level parallelism at all (serial, 1
  // in-flight) — the software-without-prefetching strawman of section 3.1.
  TablePrinter table({"DRAM latency (cycles)", "ns @125MHz", "full (kTps)",
                      "intra-only (kTps)", "no-MLP (kTps)",
                      "full vs no-MLP"});
  double full400 = 0, nomlp400 = 0;
  for (uint32_t latency : {25u, 50u, 95u, 200u, 400u}) {
    double full = Run(args, latency, true, 16);
    double intra = Run(args, latency, false, 16);
    double nomlp = Run(args, latency, false, 1);
    if (latency == 400) {
      full400 = full;
      nomlp400 = nomlp;
    }
    table.AddRow({std::to_string(latency),
                  TablePrinter::Num(latency * 8.0, 0), bench::Ktps(full),
                  bench::Ktps(intra), bench::Ktps(nomlp),
                  TablePrinter::Num(nomlp > 0 ? full / nomlp : 0, 1) + "x"});
  }
  table.Print();
  std::printf(
      "\n(The pipelining advantage GROWS with memory latency — at 400\n"
      " cycles the full design is %.1fx the MLP-less machine. Memory-level\n"
      " parallelism is the whole game, section 3.1.)\n",
      nomlp400 > 0 ? full400 / nomlp400 : 0);
  report.WriteFile();
  return 0;
}
