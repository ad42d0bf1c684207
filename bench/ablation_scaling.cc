// Ablation — scaling BionicDB beyond the Virtex-5's four workers.
//
// The paper's future-work discussion (sections 4.6/7): datacenter-grade
// FPGAs fit tens-to-hundreds of workers, but the crossbar communication
// fabric "does not scale" — a ring (or tree) topology is required. This
// sweep runs the simulated design at worker counts a VU9P-class part could
// host and compares crossbar vs ring on the multisite workload.
#include "bench/bench_util.h"
#include "bench/report.h"
#include "power/model.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

bench::BenchReport* g_report = nullptr;

double Run(const bench::BenchArgs& args, uint32_t workers,
           comm::Topology topology, double remote_fraction,
           uint32_t workers_per_chip = 0) {
  core::EngineOptions opts;
  args.ApplyMode(&opts);
  opts.n_workers = workers;
  opts.topology = topology;
  opts.workers_per_chip = workers_per_chip;
  core::BionicDb engine(opts);
  workload::YcsbOptions yopts;
  yopts.mode = workload::YcsbOptions::Mode::kMultisite;
  yopts.remote_fraction = remote_fraction;
  yopts.records_per_partition = args.quick ? 2'000 : 10'000;
  yopts.payload_len = 64;
  workload::Ycsb ycsb(&engine, yopts);
  if (!ycsb.Setup().ok()) return 0;
  Rng rng(args.seed);
  const uint64_t txns = args.quick ? 100 : 500;
  host::TxnList list;
  for (uint32_t w = 0; w < workers; ++w) {
    for (uint64_t i = 0; i < txns; ++i) {
      list.emplace_back(w, ycsb.MakeTxn(&rng, w));
    }
  }
  auto r = host::RunToCompletion(&engine, list);
  char label[96];
  std::snprintf(label, sizeof label, "workers=%u/%s/remote=%.2f/nodes=%u",
                workers,
                topology == comm::Topology::kCrossbar ? "crossbar" : "ring",
                remote_fraction, engine.n_chips());
  g_report->AddEngineRun(label, &engine, r);
  return r.tps;
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  using namespace bionicdb;
  auto args = bench::BenchArgs::Parse(argc, argv);
  bench::BenchReport report("ablation_scaling");
  g_report = &report;
  bench::PrintHeader("Ablation",
                     "Worker scaling, crossbar vs ring (75% remote YCSB-C)");
  TablePrinter table({"workers", "crossbar (kTps)", "ring (kTps)",
                      "2 nodes (kTps)", "local-only (kTps)"});
  for (uint32_t workers : {2u, 4u, 8u, 16u, 32u}) {
    if (args.quick && workers > 8) break;
    double xbar = Run(args, workers, comm::Topology::kCrossbar, 0.75);
    double ring = Run(args, workers, comm::Topology::kRing, 0.75);
    // Shared-nothing cluster of two FPGA nodes (section 4.6 future work):
    // remote accesses crossing the node boundary pay a ~2 us network hop.
    double nodes = Run(args, workers, comm::Topology::kCrossbar, 0.75,
                       workers > 1 ? workers / 2 : 0);
    double local = Run(args, workers, comm::Topology::kCrossbar, 0.0);
    table.AddRow({std::to_string(workers), bench::Ktps(xbar),
                  bench::Ktps(ring), bench::Ktps(nodes),
                  bench::Ktps(local)});
  }
  table.Print();

  power::DesignConfig per_worker;
  std::printf("\n(A VU9P-class device fits ~%u workers by the resource "
              "model; see table4_resources.)\n",
              power::ResourceModel::MaxWorkers(
                  power::VirtexUltrascalePlusVu9p(), per_worker));
  report.WriteFile();
  return 0;
}
