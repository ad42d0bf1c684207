// Ablation — hash-chain pressure and Traverse decoupling.
//
// Paper section 4.4.1: the Traverse stage is decoupled from KeyComp so
// long conflict chains do not block ops that terminate at the first node,
// and "multiple Traverse stages could be populated" for chain-heavy
// workloads. This sweep loads a deliberately undersized hash table at
// several fill factors and measures search throughput vs the number of
// Traverse units.
#include "bench/bench_util.h"
#include "bench/report.h"
#include "workload/kv.h"

namespace bionicdb {
namespace {

bench::BenchReport* g_report = nullptr;

double Run(const bench::BenchArgs& args, uint64_t keys_per_partition,
           uint32_t n_traverse) {
  core::EngineOptions opts;
  args.ApplyMode(&opts);
  opts.n_workers = 1;
  opts.coproc.max_inflight = 16;
  opts.coproc.hash.n_traverse_units = n_traverse;
  core::BionicDb engine(opts);
  // Fixed 1K-bucket table: fill factor = keys / 1024 = average chain length.
  db::TableSchema schema;
  schema.id = 0;
  schema.key_len = 8;
  schema.payload_len = 8;
  schema.hash_buckets = 1024;
  if (!engine.database().CreateTable(schema).ok()) return 0;
  uint64_t payload = 1;
  for (uint64_t k = 0; k < keys_per_partition; ++k) {
    if (!engine.database().LoadU64(0, 0, k, &payload, 8).ok()) return 0;
  }
  // Register the bulk-search procedure through KvBench's program by hand:
  // reuse KvBench on a second table is not possible (table ids are dense),
  // so assemble the same 60-op search procedure here.
  isa::ProgramBuilder b;
  constexpr uint32_t kOps = 60;
  b.Logic();
  for (uint32_t i = 0; i < kOps; ++i) {
    b.Search({.table_id = 0, .cp = isa::Reg(i), .key_offset = int32_t(8 * i)});
  }
  b.Yield();
  b.Commit();
  for (uint32_t i = 0; i < kOps; ++i) b.Ret(1, isa::Reg(i));
  b.CommitTxn();
  b.Abort().AbortTxn();
  auto program = b.Build();
  if (!program.ok()) return 0;
  if (!engine.RegisterProcedure(1, program.value(), 8 * kOps).ok()) return 0;

  Rng rng(args.seed);
  const uint64_t txns = args.quick ? 20 : 100;
  host::TxnList list;
  for (uint64_t i = 0; i < txns; ++i) {
    db::TxnBlock block = engine.AllocateBlock(1);
    for (uint32_t a = 0; a < kOps; ++a) {
      block.WriteKeyU64(int64_t(8 * a), rng.NextUint64(keys_per_partition));
    }
    list.emplace_back(0, block.base());
  }
  auto r = host::RunToCompletion(&engine, list);
  g_report->AddEngineRun("keys=" + std::to_string(keys_per_partition) +
                             "/traverse_units=" + std::to_string(n_traverse),
                         &engine, r);
  return r.tps * kOps;
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  using namespace bionicdb;
  auto args = bench::BenchArgs::Parse(argc, argv);
  bench::BenchReport report("ablation_traverse");
  g_report = &report;
  bench::PrintHeader("Ablation",
                     "Search throughput vs chain length and Traverse units");
  TablePrinter table({"avg chain length", "1 unit (Mops)", "2 units (Mops)",
                      "4 units (Mops)"});
  for (uint64_t chain : {1u, 4u, 8u, 16u}) {
    uint64_t keys = 1024 * chain;
    table.AddRow({std::to_string(chain), bench::Mops(Run(args, keys, 1)),
                  bench::Mops(Run(args, keys, 2)),
                  bench::Mops(Run(args, keys, 4))});
  }
  table.Print();
  report.WriteFile();
  return 0;
}
