// Ablation — cost and necessity of pipeline-stall hazard prevention.
//
// DESIGN.md calls out the lock-table coordination scheme (paper Figs. 6/7)
// as a design choice worth quantifying: what does the hazard check cost,
// how often does it stall, and what breaks without it?
//
// WARNING: the "OFF" row runs a deliberately broken configuration; the
// lost-tuples column shows why the lock table exists.
#include "bench/bench_util.h"
#include "bench/report.h"
#include "db/hash_layout.h"
#include "workload/kv.h"

namespace bionicdb {
namespace {

bench::BenchReport* g_report = nullptr;

struct Outcome {
  double mops = 0;
  uint64_t stall_cycles = 0;
  uint64_t lost_tuples = 0;
};

Outcome Run(const bench::BenchArgs& args, bool prevention) {
  core::EngineOptions opts;
  args.ApplyMode(&opts);
  opts.n_workers = 1;
  opts.coproc.max_inflight = 24;
  opts.coproc.hash.hazard_prevention = prevention;
  core::BionicDb engine(opts);
  workload::KvOptions kopts;
  // No preload: KvBench then sizes the table at ~1K buckets, so the 24
  // in-flight inserts regularly collide — exactly the hazard window.
  kopts.preload_per_partition = 0;
  kopts.ops_per_txn = 60;
  workload::KvBench kv(&engine, kopts);
  if (!kv.Setup().ok()) return {};

  const uint64_t txns = args.quick ? 30 : 150;
  host::TxnList list;
  uint64_t expected = 0;
  for (uint64_t i = 0; i < txns; ++i) {
    list.emplace_back(0, kv.MakeInsertTxn(0, /*sequential=*/false));
    expected += kopts.ops_per_txn;
  }
  auto r = host::RunToCompletion(&engine, list, /*retry_aborts=*/false);
  g_report->AddEngineRun(prevention ? "prevention=on" : "prevention=off",
                         &engine, r);
  Outcome out;
  out.mops = r.tps * kopts.ops_per_txn;
  out.stall_cycles = engine.worker(0)
                         .coprocessor()
                         .hash_pipeline()
                         .counters()
                         .Get("hash_lock_stall_cycles");
  uint64_t survivors = 0;
  engine.database().hash_index(0, 0)->ForEach([&](db::TupleAccessor) {
    ++survivors;
    return true;
  });
  out.lost_tuples = expected > survivors ? expected - survivors : 0;
  return out;
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  using namespace bionicdb;
  auto args = bench::BenchArgs::Parse(argc, argv);
  bench::BenchReport report("ablation_hazards");
  g_report = &report;
  bench::PrintHeader("Ablation",
                     "Hash-pipeline hazard prevention: cost and necessity");
  TablePrinter table({"prevention", "insert (Mops)", "lock-stall cycles",
                      "lost tuples"});
  for (bool prevention : {true, false}) {
    auto o = Run(args, prevention);
    table.AddRow({prevention ? "on" : "OFF (broken)", bench::Mops(o.mops),
                  std::to_string(o.stall_cycles),
                  std::to_string(o.lost_tuples)});
  }
  table.Print();
  std::printf(
      "(Prevention costs only the stall cycles shown; disabling it loses\n"
      " tuples whenever racing inserts share a bucket — Fig. 6a.)\n");
  report.WriteFile();
  return 0;
}
