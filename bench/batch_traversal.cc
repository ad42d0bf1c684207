// Batched level-wise index traversal — intra- vs inter-operation
// pipelining ablation (DESIGN.md section 17).
//
// The baseline coprocessor pipelines WITHIN an operation: each probe's
// key fetch / bucket read / node walk overlap with other in-flight
// probes, but every DRAM access pays the full closed-row latency. The
// batched mode pipelines ACROSS operations (the BonsaiKV argument):
// probes are collected, sorted, and walked level by level, so same-page
// accesses coalesce into DRAM row hits and each unique tower is fetched
// once per batch.
//
// Legs, all self-enforced (the simulator is deterministic, so the
// crossovers are stable facts about the model, not flaky thresholds):
//  * dense point probes (UCSB batch-get shape, skiplist): batched must
//    win by >= 1.5x index-ops/s at the largest batch size, swept over
//    batch_size x mode;
//  * long range scans (widened YCSB-E, skiplist): batched must win the
//    longest-scan leg, swept over scan_len x mode — the scanner's
//    next-hop row hits dominate;
//  * batch_size=1 closed-loop tail latency: per-op must win (batching a
//    single probe only adds collector and phase-barrier overhead);
//  * simulator-mode determinism: a batched run's engine stats tree must be
//    byte-identical across serial and event-driven.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/report.h"
#include "index/db_op.h"
#include "workload/kv.h"
#include "workload/ycsb.h"

namespace bionicdb {
namespace {

using bench::BenchArgs;

bench::BenchReport* g_report = nullptr;
int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++g_failures;
  }
}

/// Aggregates the per-pipeline batch counters
/// (workers/<w>/coproc/{hash,skiplist}/batch/*) into the run-level
/// run/index/batch/* block the report validator checks.
void RecordBatchCounters(StatsRegistry* run, core::BionicDb* engine) {
  StatsRegistry reg;
  engine->CollectStats(&reg);
  auto sum_suffix = [&reg](const char* suffix) {
    const std::string suf = std::string("/batch/") + suffix;
    uint64_t sum = 0;
    for (const auto& [key, value] : reg.counters()) {
      if (key.size() > suf.size() &&
          key.compare(key.size() - suf.size(), suf.size(), suf) == 0) {
        sum += value;
      }
    }
    return sum;
  };
  StatsScope scope(run, "run/index/batch");
  scope.SetCounter("batches_flushed", sum_suffix("batches_flushed"));
  scope.SetCounter("burst_total_accesses", sum_suffix("burst_total_accesses"));
  scope.SetCounter("burst_coalesced_accesses",
                   sum_suffix("burst_coalesced_accesses"));
  Summary probes;
  const std::string suf = "/batch/probes_per_batch";
  for (const auto& [key, s] : reg.summaries()) {
    if (key.size() > suf.size() &&
        key.compare(key.size() - suf.size(), suf.size(), suf) == 0) {
      probes.MergeFrom(s);
    }
  }
  scope.SetGauge("probes_per_batch_p50", probes.Quantile(0.5));
}

core::EngineOptions MakeOpts(const BenchArgs& args, bool batched,
                             uint32_t batch_size) {
  core::EngineOptions opts;
  opts.n_workers = 4;
  args.ApplyMode(&opts);
  opts.coproc.traversal = batched ? index::TraversalMode::kBatched
                                  : index::TraversalMode::kPerOp;
  opts.coproc.batch_size = batch_size;
  return opts;
}

// ---------------------------------------------------------------------------
// Dense point probes (skiplist, UCSB batch-get shape).
//
// Both modes get the same 16-entry probe pool (the shared hardware
// budget, not part of the ablation) and an identical workload: every
// transaction bulk-searches 60 SEQUENTIAL preloaded keys from a random
// window. Per-op traversal walks a full tower path per probe — ~log(n)
// dependent closed-row DRAM reads each. The batched walk sorts the
// probes, descends level by level, and fetches each tower once per
// batch, so the shared path prefix of 16 adjacent keys is paid once and
// the sorted bottom-level hops coalesce into DRAM row hits.

double RunDenseProbe(const BenchArgs& args, bool batched,
                     uint32_t batch_size, const std::string& label) {
  core::EngineOptions opts = MakeOpts(args, batched, batch_size);
  // The paper's hardware budget: a 16-entry probe pool, which is also the
  // regime where the index pipeline (not the softcore) is the bottleneck
  // and the traversal strategy is what's being measured.
  opts.coproc.max_inflight = 16;
  core::BionicDb engine(opts);
  workload::KvOptions kopts;
  kopts.index = db::IndexKind::kSkiplist;
  kopts.preload_per_partition = args.smoke ? 2'000 : (args.quick ? 4'000 : 20'000);
  kopts.dense = true;
  kopts.batch_framing = true;  // per-op ignores the framing; same program
  workload::KvBench kv(&engine, kopts);
  if (!kv.Setup().ok()) {
    Check(false, "kv setup: " + label);
    return 0;
  }
  Rng rng(args.seed);
  const uint64_t txns = args.smoke ? 20 : (args.quick ? 50 : 200);
  host::TxnList list;
  for (uint32_t w = 0; w < opts.n_workers; ++w) {
    for (uint64_t i = 0; i < txns; ++i) {
      list.emplace_back(w, kv.MakeSearchTxn(&rng, w));
    }
  }
  auto r = host::RunToCompletion(&engine, list);
  Check(r.committed == r.submitted, "all committed: " + label);
  StatsRegistry& run = g_report->AddEngineRun(label, &engine, r);
  if (batched) RecordBatchCounters(&run, &engine);
  return r.tps * kopts.ops_per_txn;
}

void DensePointLeg(const BenchArgs& args) {
  bench::PrintHeader("batch_traversal A",
                     "Dense point probes (skiplist): index ops/s vs batch size");
  std::vector<uint32_t> batch_sizes =
      args.smoke ? std::vector<uint32_t>{1, 16}
                 : std::vector<uint32_t>{1, 4, 8, 16};
  if (args.batch != 0) batch_sizes = {args.batch};
  // batch_size is a no-op for the per-op pipeline, so one baseline run
  // serves the whole sweep.
  const double perop = RunDenseProbe(args, false, 8, "point/perop");
  TablePrinter table({"batch", "per-op (Mops)", "batched (Mops)", "ratio"});
  double at_batch1 = 0, at_max_batch = 0;
  for (uint32_t b : batch_sizes) {
    const double ops = RunDenseProbe(
        args, true, b, "point/batched/batch=" + std::to_string(b));
    if (b == 1) at_batch1 = ops;
    at_max_batch = ops;  // sizes ascend; last one is the largest
    table.AddRow({std::to_string(b), bench::Mops(perop), bench::Mops(ops),
                  TablePrinter::Num(perop > 0 ? ops / perop : 0, 2)});
  }
  table.Print();
  const double ratio = perop > 0 ? at_max_batch / perop : 0;
  std::printf("dense-probe speedup at batch=%u: %.2fx (floor 1.50x)\n",
              batch_sizes.back(), ratio);
  Check(ratio >= 1.5, "batched wins dense point probes by >=1.5x");
  // The curve is not monotone in batch depth — mid sizes can win by
  // overlapping several smaller batches in the pool — but real batching
  // must always beat degenerate batches of one.
  if (at_batch1 > 0 && batch_sizes.size() > 1) {
    Check(at_max_batch > at_batch1,
          "inter-op pipelining beats batch=1 collection overhead");
  }
}

// ---------------------------------------------------------------------------
// Long range scans (skiplist, widened YCSB-E).
//
// Scan lengths are drawn per transaction from [scan_len/2, scan_len]
// through the Scan op's scan_reg override. The scanner walks the
// bottom-level list serially, so its hop latency bounds throughput;
// bulk-loaded sequential keys make consecutive tuples address-adjacent
// and the batched scanner's next hop a DRAM row hit.

double RunScan(const BenchArgs& args, bool batched, uint32_t scan_len,
               const std::string& label) {
  core::EngineOptions opts = MakeOpts(args, batched, args.batch ? args.batch : 8);
  opts.coproc.max_inflight = 16;
  core::BionicDb engine(opts);
  workload::YcsbOptions yopts;
  yopts.mode = workload::YcsbOptions::Mode::kScanOnly;
  yopts.records_per_partition = args.smoke ? 2'000 : (args.quick ? 4'000 : 20'000);
  yopts.payload_len = 64;
  yopts.scan_len = scan_len;
  yopts.scan_len_min = scan_len / 2 > 0 ? scan_len / 2 : 1;
  workload::Ycsb ycsb(&engine, yopts);
  if (!ycsb.Setup().ok()) {
    Check(false, "ycsb setup: " + label);
    return 0;
  }
  Rng rng(args.seed);
  const uint64_t txns = args.smoke ? 40 : (args.quick ? 80 : 300);
  host::TxnList list;
  for (uint32_t w = 0; w < opts.n_workers; ++w) {
    for (uint64_t i = 0; i < txns; ++i) {
      list.emplace_back(w, ycsb.MakeTxn(&rng, w));
    }
  }
  auto r = host::RunToCompletion(&engine, list);
  Check(r.committed == r.submitted, "all committed: " + label);
  StatsRegistry& run = g_report->AddEngineRun(label, &engine, r);
  if (batched) RecordBatchCounters(&run, &engine);
  return r.tps;
}

void ScanLeg(const BenchArgs& args) {
  bench::PrintHeader("batch_traversal B",
                     "Range scans (skiplist): throughput vs scan length");
  std::vector<uint32_t> scan_lens = args.smoke
                                        ? std::vector<uint32_t>{8, 64}
                                        : std::vector<uint32_t>{8, 32, 128};
  if (args.scan_len != 0) scan_lens = {args.scan_len};
  TablePrinter table({"scan len", "per-op (kTps)", "batched (kTps)", "ratio"});
  double perop_long = 0, batched_long = 0;
  for (uint32_t len : scan_lens) {
    const std::string suffix = "/len=" + std::to_string(len);
    const double perop = RunScan(args, false, len, "scan/perop" + suffix);
    const double batched =
        RunScan(args, true, len, "scan/batched" + suffix);
    perop_long = perop;      // lengths ascend; keep the longest
    batched_long = batched;
    table.AddRow({std::to_string(len), bench::Ktps(perop),
                  bench::Ktps(batched),
                  TablePrinter::Num(perop > 0 ? batched / perop : 0, 2)});
  }
  table.Print();
  const double ratio = perop_long > 0 ? batched_long / perop_long : 0;
  std::printf("long-scan speedup at len=%u: %.2fx (floor 1.20x)\n",
              scan_lens.back(), ratio);
  Check(ratio >= 1.2, "batched wins the longest-scan leg by >=1.2x");
}

// ---------------------------------------------------------------------------
// batch_size=1 closed-loop tail latency: collecting a batch of one buys
// nothing and costs admission + phase-barrier cycles, so per-op traversal
// must hold the p99 edge. One client per worker isolates per-probe
// latency from queueing.

void TailLatencyLeg(const BenchArgs& args) {
  bench::PrintHeader("batch_traversal C",
                     "batch=1 closed-loop latency: per-op must win the tail");
  double p99[2] = {0, 0};
  for (int batched = 0; batched < 2; ++batched) {
    core::EngineOptions opts = MakeOpts(args, batched != 0, 1);
    core::BionicDb engine(opts);
    workload::YcsbOptions yopts;
    yopts.mode = workload::YcsbOptions::Mode::kBatchGet;
    yopts.records_per_partition = args.quick ? 2'000 : 20'000;
    yopts.payload_len = 64;
    workload::Ycsb ycsb(&engine, yopts);
    if (!ycsb.Setup().ok()) {
      Check(false, "ycsb setup: latency leg");
      return;
    }
    Rng rng(args.seed);
    host::ClosedLoopOptions copts;
    copts.inflight_per_worker = 1;
    copts.txns_per_worker = args.quick ? 100 : 400;
    auto factory = ycsb.Factory(&rng);
    auto r = host::RunClosedLoop(&engine, factory, copts);
    p99[batched] = r.latency_cycles.Quantile(0.99);
    g_report->AddEngineRun(
        std::string("latency/batch=1/") + (batched != 0 ? "batched" : "perop"),
        &engine, r);
  }
  std::printf("p99 latency (cycles): per-op %.0f, batched %.0f\n", p99[0],
              p99[1]);
  Check(p99[0] <= p99[1], "per-op wins batch=1 tail latency");
}

// ---------------------------------------------------------------------------
// Determinism: one batched update-mix configuration, both simulator modes,
// byte-identical engine stats trees (the batch units are part of the
// determinism envelope like every other pipeline).

void ModeIdentityLeg(const BenchArgs& args) {
  bench::PrintHeader("batch_traversal D",
                     "Batched runs across serial/event simulators");
  struct Outcome {
    host::RunResult result;
    std::string stats_json;
    uint64_t final_now = 0;
    uint64_t warps = 0;
  };
  auto run_mode = [&args](BenchArgs::SimMode mode, bool record) {
    core::EngineOptions opts;
    opts.n_workers = 4;
    opts.coproc.traversal = index::TraversalMode::kBatched;
    opts.coproc.batch_size = args.batch ? args.batch : 8;
    BenchArgs mode_args = args;
    mode_args.mode = mode;
    mode_args.ApplyMode(&opts);
    core::BionicDb engine(opts);
    workload::YcsbOptions yopts;
    yopts.mode = workload::YcsbOptions::Mode::kBatchPut;
    yopts.records_per_partition = args.quick ? 2'000 : 10'000;
    yopts.payload_len = 64;
    workload::Ycsb ycsb(&engine, yopts);
    Outcome out;
    if (!ycsb.Setup().ok()) {
      Check(false, "ycsb setup: mode identity leg");
      return out;
    }
    Rng rng(args.seed);
    const uint64_t txns = args.quick ? 60 : 200;
    host::TxnList list;
    for (uint32_t w = 0; w < opts.n_workers; ++w) {
      for (uint64_t i = 0; i < txns; ++i) {
        list.emplace_back(w, ycsb.MakeTxn(&rng, w));
      }
    }
    out.result = host::RunToCompletion(&engine, list);
    out.final_now = engine.now();
    out.warps = engine.simulator().warp_stats().warps;
    StatsRegistry reg;
    engine.CollectStats(&reg);
    out.stats_json = reg.ToJson();
    if (record) {
      StatsRegistry& run =
          g_report->AddEngineRun("modes/batched_put", &engine, out.result);
      RecordBatchCounters(&run, &engine);
    }
    return out;
  };
  const Outcome serial = run_mode(BenchArgs::SimMode::kSerial, true);
  const Outcome event = run_mode(BenchArgs::SimMode::kEventDriven, false);
  // A serial run that warped would make the comparison event vs event.
  Check(serial.warps == 0, "serial oracle ticked every cycle");
  Check(event.final_now == serial.final_now,
        "final cycle matches serial: event");
  Check(event.result.committed == serial.result.committed &&
            event.result.failed == serial.result.failed,
        "txn counts match serial: event");
  Check(event.stats_json == serial.stats_json,
        "stats tree byte-identical to serial: event");
  std::printf("serial/event: %llu committed, final cycle %llu\n",
              static_cast<unsigned long long>(serial.result.committed),
              static_cast<unsigned long long>(serial.final_now));
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  auto args = bionicdb::bench::BenchArgs::Parse(argc, argv);
  bionicdb::bench::BenchReport report("batch_traversal");
  bionicdb::g_report = &report;
  bionicdb::DensePointLeg(args);
  bionicdb::ScanLeg(args);
  bionicdb::TailLatencyLeg(args);
  bionicdb::ModeIdentityLeg(args);
  report.WriteFile();
  if (bionicdb::g_failures != 0) {
    std::fprintf(stderr, "batch_traversal: %d check(s) failed\n",
                 bionicdb::g_failures);
    return 1;
  }
  std::printf("batch_traversal: all checks passed\n");
  return 0;
}
