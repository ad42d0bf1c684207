// Figure 13 — single-site vs multisite transactions over the on-chip
// message-passing channels.
//
// Paper result shape to reproduce: a cross-partition YCSB-C transaction
// with 75 % remote accesses performs almost identically to the all-local
// ideal — the 6-cycle on-chip request/response exchange makes inter-worker
// communication effectively free.
#include "bench/bench_util.h"
#include "bench/report.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

using bench::BenchArgs;

bench::BenchReport* g_report = nullptr;

double Run(const BenchArgs& args, double remote_fraction,
           comm::Topology topology, uint64_t* messages) {
  core::EngineOptions opts;
  args.ApplyMode(&opts);
  opts.n_workers = 4;
  opts.topology = topology;
  core::BionicDb engine(opts);
  workload::YcsbOptions yopts;
  // Both variants use the multisite program (identical instruction
  // overhead); only the partition targets differ.
  yopts.mode = workload::YcsbOptions::Mode::kMultisite;
  yopts.remote_fraction = remote_fraction;
  yopts.records_per_partition = args.quick ? 5'000 : 50'000;
  yopts.payload_len = args.quick ? 64 : 1024;
  workload::Ycsb ycsb(&engine, yopts);
  if (!ycsb.Setup().ok()) return 0;
  Rng rng(args.seed);
  const uint64_t txns = args.quick ? 200 : 1'500;
  host::TxnList list;
  for (uint32_t w = 0; w < 4; ++w) {
    for (uint64_t i = 0; i < txns; ++i) {
      list.emplace_back(w, ycsb.MakeTxn(&rng, w));
    }
  }
  auto r = host::RunToCompletion(&engine, list);
  char label[64];
  std::snprintf(label, sizeof label, "remote=%.2f/%s", remote_fraction,
                topology == comm::Topology::kCrossbar ? "crossbar" : "ring");
  g_report->AddEngineRun(label, &engine, r);
  if (messages != nullptr) *messages = engine.fabric().messages_sent();
  return r.tps;
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  using namespace bionicdb;
  auto args = bench::BenchArgs::Parse(argc, argv);
  bench::BenchReport report("fig13_multisite");
  g_report = &report;
  bench::PrintHeader(
      "Figure 13",
      "Single-site (100% local) vs multisite (75% remote) YCSB-C");
  TablePrinter table(
      {"variant", "throughput (kTps)", "on-chip messages", "overhead"});
  uint64_t m_local = 0, m_remote = 0;
  double local = Run(args, 0.0, comm::Topology::kCrossbar, &m_local);
  double multi = Run(args, 0.75, comm::Topology::kCrossbar, &m_remote);
  table.AddRow({"single-site", bench::Ktps(local), std::to_string(m_local),
                "-"});
  table.AddRow({"multisite 75%", bench::Ktps(multi), std::to_string(m_remote),
                TablePrinter::Num(
                    local > 0 ? (1.0 - multi / local) * 100.0 : 0, 1) +
                    "%"});
  // Future-work topology: a ring instead of the crossbar.
  uint64_t m_ring = 0;
  double ring = Run(args, 0.75, comm::Topology::kRing, &m_ring);
  table.AddRow({"multisite 75% (ring)", bench::Ktps(ring),
                std::to_string(m_ring),
                TablePrinter::Num(
                    local > 0 ? (1.0 - ring / local) * 100.0 : 0, 1) +
                    "%"});
  table.Print();
  report.WriteFile();
  return 0;
}
