// End-to-end benchmark driver: runs one named workload, single-threaded,
// for a wall-clock window and writes one JSON record with its modelled
// results, its host-side costs, its per-layer counters and the outcome of
// its output and closure checks. perfbench/run.py builds and invokes it;
// perfbench/WORKLOADS.md says why each workload exists.
//
// A repetition builds a fresh engine and runs Setup() (timed: set-up),
// then a saturating closed-loop phase and a fixed-rate open-loop Poisson
// phase (timed: host time), then CollectStats and the checks. The amount
// of work is fixed per workload, and modelled results depend only on the
// workload and --seed, so every repetition must reproduce the first one
// exactly. Set-up time is the median over the repetitions that fit in the
// window, host speed that of the slowest one.
//
// Everything here observes the engine from outside: modelled counters come
// from BionicDb::CollectStats and Simulator::warp_stats(), host times from
// timers around this file's own calls into the public API. With --trace 1
// every other repetition records spans (one per public call, one per
// generated transaction) and the record carries the tracing overhead
// measured against the untraced repetitions of the same process.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/engine.h"
#include "db/tuple.h"
#include "db/txn_block.h"
#include "host/driver.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace bionicdb::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// The paper's fabric clock; sim_tps is re-derived at this rate as a
/// closure check on the driver's own throughput figure.
constexpr double kClockHz = 125e6;

/// Repetitions every run makes, however short its window.
constexpr int kMinReps = 3;

/// Arrival seed of the first open-loop call; call i uses kArrivalSeed + i.
constexpr uint64_t kArrivalSeed = 42;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Sorted-sample interpolation, the rule Summary::Quantile uses while its
/// reservoir still holds every sample.
double ExactQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * double(sorted.size() - 1);
  const size_t lo = size_t(std::floor(pos));
  const size_t hi = size_t(std::ceil(pos));
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - double(lo));
}

// --- Workloads -------------------------------------------------------------

enum class Kind { kYcsbRead, kTpccMix, kYcsbScan, kSmallBankSgt };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  /// Closed loop: outstanding transactions per worker, and the fixed
  /// number each worker commits.
  uint32_t closed_clients_per_worker;
  uint64_t closed_txns_per_worker;
  /// Open loop: a constant offered rate (about 70% of the saturated
  /// sim_tps at the reference seed, so a parent and a change see the same
  /// load), run as `open_phases` back-to-back RunOpenLoop calls of
  /// `open_txns_per_phase` arrivals, each with its own fixed arrival seed.
  /// At most 4,096 arrivals per call keeps every latency sample in the
  /// Summary's reservoir, so the pooled quantiles are exact, not bucketed.
  double open_offered_tps;
  uint32_t open_phases;
  uint64_t open_txns_per_phase;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"ycsb_read", Kind::kYcsbRead, 16, 6000, 950'000, 1, 4000},
    {"tpcc_mix", Kind::kTpccMix, 4, 500, 70'000, 4, 4000},
    {"ycsb_scan", Kind::kYcsbScan, 16, 400, 70'000, 1, 2000},
    {"smallbank_sgt", Kind::kSmallBankSgt, 16, 20000, 930'000, 4, 4000},
};

/// One freshly built engine with its workload loaded.
struct Instance {
  std::unique_ptr<core::BionicDb> engine;
  std::unique_ptr<workload::Ycsb> ycsb;
  std::unique_ptr<workload::Tpcc> tpcc;
  std::unique_ptr<workload::SmallBank> smallbank;

  host::TxnFactory Factory(Rng* rng) {
    if (ycsb) return ycsb->Factory(rng);
    if (tpcc) return tpcc->Factory(rng);
    return smallbank->Factory(rng);
  }
};

/// Engine construction plus Setup(): catalogue, procedure assembly and
/// bulk load. Engines keep the default EngineOptions (per-cycle simulator,
/// no host parallelism) apart from the settings each workload names.
Status Build(Kind kind, Instance* inst) {
  core::EngineOptions opts;
  if (kind == Kind::kTpccMix) opts.softcore.max_contexts = 4;  // Fig. 9b
  if (kind == Kind::kSmallBankSgt) opts.cc_mode = cc::CcMode::kSgt;
  inst->engine = std::make_unique<core::BionicDb>(opts);
  core::BionicDb* engine = inst->engine.get();
  switch (kind) {
    case Kind::kYcsbRead: {
      // YCSB-C: 16 uniform hash point reads over 300k x 1 KB records per
      // partition (the YcsbOptions defaults, paper section 5.3).
      workload::YcsbOptions y;
      y.mode = workload::YcsbOptions::Mode::kReadOnly;
      inst->ycsb = std::make_unique<workload::Ycsb>(engine, y);
      return inst->ycsb->Setup();
    }
    case Kind::kYcsbScan: {
      // YCSB-E scan-only: 50-record skiplist scans, 100k x 1 KB records.
      workload::YcsbOptions y;
      y.mode = workload::YcsbOptions::Mode::kScanOnly;
      y.records_per_partition = 100'000;
      y.scan_len = 50;
      inst->ycsb = std::make_unique<workload::Ycsb>(engine, y);
      return inst->ycsb->Setup();
    }
    case Kind::kTpccMix:
      // Full-population warehouse per worker; 1% / 15% remote NewOrder /
      // Payment (the TpccOptions defaults).
      inst->tpcc = std::make_unique<workload::Tpcc>(engine,
                                                    workload::TpccOptions{});
      return inst->tpcc->Setup();
    case Kind::kSmallBankSgt: {
      // cc_contention's "high" point: 90% of transactions on a 16-account
      // hotspot, write-heavy 5/30/30/15/20 profile mix.
      workload::SmallBankOptions s;
      s.accounts_per_partition = 10'000;
      s.hotspot_fraction = 0.9;
      s.hotspot_accounts = 16;
      s.mix_balance = 5;
      s.mix_deposit = 30;
      s.mix_transact = 30;
      s.mix_amalgamate = 15;
      s.mix_write_check = 20;
      inst->smallbank = std::make_unique<workload::SmallBank>(engine, s);
      return inst->smallbank->Setup();
    }
  }
  return Status::Ok();
}

// --- Tracing ---------------------------------------------------------------

/// In-memory span recorder for the benchmark's own calls; written once, at
/// exit, as Chrome trace-event JSON.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint32_t rep;  // repetition within the run
    int64_t parent;  // index into spans(), -1 at the root
    Clock::time_point begin;
    Clock::time_point end;
  };

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  size_t Begin(const char* name, uint32_t rep) {
    const int64_t parent = open_.empty() ? -1 : int64_t(open_.back());
    spans_.push_back(Span{name, rep, parent, Clock::now(), {}});
    open_.push_back(spans_.size() - 1);
    return open_.back();
  }
  void End(size_t id) {
    spans_[id].end = Clock::now();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// `run` identifies the process; each span carries its repetition.
  bool WriteChromeJson(const std::string& path, const std::string& run) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "{\"otherData\":{\"run\":\"%s\"},\"displayTimeUnit\":"
                 "\"ns\",\"traceEvents\":[\n",
                 run.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"rep\":%u,"
                   "\"span\":%zu,\"parent\":%" PRId64 "}}\n",
                   i == 0 ? "" : ",", s.name, Seconds(s.begin - epoch_) * 1e6,
                   Seconds(s.end - s.begin) * 1e6, s.rep, i, s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint32_t rep)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, rep) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  size_t id_;
};

// --- One repetition --------------------------------------------------------

struct RepResult {
  bool traced = false;
  double setup_s = 0;
  /// Wall seconds inside RunClosedLoop + RunOpenLoop (generation included).
  double host_s = 0;
  /// Traced repetitions: wall seconds in workload.gen spans, and the
  /// host.* spans' self time (duration minus their workload.gen children).
  double gen_s = 0;
  double host_self_s = 0;
  uint64_t committed = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // failed + shed
  uint64_t cycles = 0;
  /// Every modelled number (end-to-end and per-layer) by metric name.
  std::map<std::string, double> modelled;
  /// Canonical text of every modelled outcome; repetitions must agree.
  std::string fingerprint;
  std::vector<std::string> errors;

  double HostRate() const { return Ratio(double(committed), host_s); }
};

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Output checks on the engine state and the generated blocks.
void CheckOutputs(const WorkloadSpec& spec, Instance& inst,
                  const host::TxnList& blocks, uint64_t committed,
                  uint64_t retries, std::vector<std::string>* errors) {
  core::BionicDb& engine = *inst.engine;
  sim::DramMemory& dram = engine.simulator().dram();
  switch (spec.kind) {
    case Kind::kYcsbRead:
      if (retries != 0 || engine.TotalAborted() != 0) {
        errors->push_back("ycsb_read: " + std::to_string(retries) +
                          " retries, " + std::to_string(engine.TotalAborted()) +
                          " aborts (want 0)");
      }
      break;
    case Kind::kTpccMix: {
      // Every Payment adds its amount to both W_YTD and its home
      // district's D_YTD, so each warehouse's YTD is its districts' sum.
      auto ytd = [&](db::TableId table, uint64_t key, uint32_t w,
                     int64_t field) -> uint64_t {
        sim::Addr t = engine.database().FindU64Le(table, w, key);
        if (t == sim::kNullAddr) {
          errors->push_back("tpcc_mix: missing tuple in table " +
                            std::to_string(table));
          return 0;
        }
        db::TupleAccessor acc(&dram, t);
        uint64_t v = 0;
        dram.ReadBytes(acc.payload_addr() + field, &v, 8);
        return v;
      };
      const workload::Tpcc& tpcc = *inst.tpcc;
      for (uint32_t w = 0; w < engine.options().n_workers; ++w) {
        const uint64_t w_ytd = ytd(workload::Tpcc::kWarehouse,
                                   tpcc.WarehouseKey(w), w,
                                   workload::Tpcc::kWarehouseYtd);
        uint64_t d_sum = 0;
        for (uint32_t d = 0; d < tpcc.options().districts_per_warehouse; ++d) {
          d_sum += ytd(workload::Tpcc::kDistrict, tpcc.DistrictKey(w, d), w,
                       workload::Tpcc::kDistrictYtd);
        }
        if (w_ytd != d_sum) {
          errors->push_back("tpcc_mix: warehouse " + std::to_string(w) +
                            " W_YTD " + std::to_string(w_ytd) +
                            " != sum of D_YTD " + std::to_string(d_sum));
        }
      }
      break;
    }
    case Kind::kYcsbScan: {
      // Each committed scan returns scan_len payload addresses at data
      // offset 16; the big-endian key sits in the 8 bytes before each
      // payload and must run consecutively from the start key.
      const uint32_t scan_len = inst.ycsb->options().scan_len;
      uint64_t checked = 0;
      for (const auto& [worker, addr] : blocks) {
        db::TxnBlock block(&dram, addr);
        if (block.state() != db::TxnState::kCommitted) continue;
        ++checked;
        const uint64_t start = block.ReadKeyU64(0);
        for (uint32_t i = 0; i < scan_len; ++i) {
          const sim::Addr payload = block.ReadU64(16 + 8 * int64_t(i));
          uint8_t kbuf[8] = {};
          if (payload >= 8) dram.ReadBytes(payload - 8, kbuf, 8);
          if (payload < 8 || db::DecodeKeyU64(kbuf) != start + i) {
            errors->push_back("ycsb_scan: block at " + std::to_string(addr) +
                              " result " + std::to_string(i) +
                              " is not key start+" + std::to_string(i));
            return;
          }
        }
      }
      if (checked != committed) {
        errors->push_back("ycsb_scan: " + std::to_string(checked) +
                          " committed blocks for " +
                          std::to_string(committed) + " commits");
      }
      break;
    }
    case Kind::kSmallBankSgt:
      if (!inst.smallbank->VerifyConservation(blocks)) {
        errors->push_back("smallbank_sgt: money not conserved");
      }
      break;
  }
}

/// Sums a counter over every worker's subtree.
uint64_t SumWorkers(const StatsRegistry& reg, uint32_t workers,
                    const std::string& suffix) {
  uint64_t sum = 0;
  for (uint32_t w = 0; w < workers; ++w) {
    sum += reg.GetCounter("workers/" + std::to_string(w) + "/" + suffix);
  }
  return sum;
}

double Gauge(const StatsRegistry& reg, const std::string& path) {
  auto it = reg.gauges().find(path);
  return it == reg.gauges().end() ? 0 : it->second;
}

/// Busy-cycle-weighted mean occupancy of one pipeline over all workers.
double MeanOccupancy(const StatsRegistry& reg, uint32_t workers,
                     const std::string& pipeline) {
  double weighted = 0;
  uint64_t busy = 0;
  for (uint32_t w = 0; w < workers; ++w) {
    const std::string p = "workers/" + std::to_string(w) + "/coproc/" +
                          pipeline;
    const uint64_t b = reg.GetCounter(p + "/busy_cycles");
    weighted += Gauge(reg, p + "/mean_occupancy") * double(b);
    busy += b;
  }
  return Ratio(weighted, double(busy));
}

/// Modelled per-layer metrics, per committed transaction unless the name
/// says otherwise, plus the cycle-bucket closure check.
void LayerMetrics(const StatsRegistry& reg, uint32_t workers,
                  uint64_t committed, uint64_t retries, uint64_t cycles,
                  const sim::Simulator::WarpStats& warp,
                  std::map<std::string, double>* m,
                  std::vector<std::string>* errors) {
  const double txns = double(committed);
  auto per_txn = [&](uint64_t v) { return Ratio(double(v), txns); };

  // DESIGN.md section 8.1: each worker's five buckets sum to its total.
  uint64_t total = 0;
  const char* kBuckets[] = {"busy", "dram_stall", "hazard_block",
                            "backpressure", "idle"};
  std::map<std::string, uint64_t> bucket_sum;
  for (uint32_t w = 0; w < workers; ++w) {
    const std::string p = "workers/" + std::to_string(w) + "/cycles/";
    const uint64_t t = reg.GetCounter(p + "total");
    uint64_t parts = 0;
    for (const char* b : kBuckets) {
      parts += reg.GetCounter(p + b);
      bucket_sum[b] += reg.GetCounter(p + b);
    }
    if (parts != t) {
      errors->push_back("worker " + std::to_string(w) + " cycle buckets sum " +
                        std::to_string(parts) + " != total " +
                        std::to_string(t));
    }
    total += t;
  }
  for (const char* b : kBuckets) {
    (*m)[std::string("worker.") + b + "_frac"] =
        Ratio(double(bucket_sum[b]), double(total));
  }

  (*m)["sim.cycles_per_txn"] = per_txn(cycles);
  (*m)["sim.warp_skip_frac"] = Ratio(double(warp.skipped_cycles),
                                     double(cycles));

  (*m)["softcore.instructions_per_txn"] =
      per_txn(SumWorkers(reg, workers, "softcore/instructions"));
  (*m)["softcore.ret_wait_cycles_per_txn"] =
      per_txn(SumWorkers(reg, workers, "softcore/ret_wait_cycles"));
  (*m)["softcore.dispatch_stall_cycles_per_txn"] =
      per_txn(SumWorkers(reg, workers, "softcore/dispatch_stall_cycles"));
  (*m)["softcore.context_switches_per_txn"] =
      per_txn(SumWorkers(reg, workers, "softcore/context_switches"));

  (*m)["index.ops_per_txn"] =
      per_txn(SumWorkers(reg, workers, "coproc/hash/ops_admitted"));
  (*m)["index.hash_occupancy"] = MeanOccupancy(reg, workers, "hash");
  (*m)["index.cap_rejects_per_txn"] =
      per_txn(SumWorkers(reg, workers, "coproc/cap_rejects"));
  (*m)["index.lock_stall_cycles_per_txn"] =
      per_txn(SumWorkers(reg, workers, "coproc/hash/hash_lock_stall_cycles"));
  (*m)["index.skiplist_busy_frac"] = Ratio(
      double(SumWorkers(reg, workers, "coproc/skiplist/busy_cycles")),
      double(total));
  (*m)["index.skiplist_occupancy"] = MeanOccupancy(reg, workers, "skiplist");
  (*m)["index.tower_visits_per_op"] = Ratio(
      double(SumWorkers(reg, workers, "coproc/skiplist/tower_visits")),
      double(SumWorkers(reg, workers, "coproc/skiplist/ops_admitted")));

  (*m)["dram.accesses_per_txn"] = per_txn(reg.GetCounter("sim/dram/reads") +
                                          reg.GetCounter("sim/dram/writes"));
  auto wait = reg.summaries().find("sim/dram/queue_wait_cycles");
  (*m)["dram.queue_wait_p99_cycles"] =
      wait == reg.summaries().end() ? 0 : wait->second.Quantile(0.99);
  double util_max = 0;
  for (const auto& [path, v] : reg.gauges()) {
    if (path.rfind("sim/dram/channels/", 0) == 0 &&
        path.size() > 18 &&
        path.compare(path.size() - 18, 18, "/issue_utilization") == 0) {
      util_max = std::max(util_max, v);
    }
  }
  (*m)["dram.channel_util_max"] = util_max;
  (*m)["dram.rejects_per_txn"] =
      per_txn(reg.GetCounter("sim/dram/backpressure_rejects"));

  const uint64_t aborted = SumWorkers(reg, workers, "softcore/aborted");
  (*m)["cc.commit_frac"] = Ratio(txns, txns + double(aborted));
  (*m)["cc.retries_per_commit"] = per_txn(retries);
  (*m)["cc.sgt_edges_per_txn"] =
      per_txn(SumWorkers(reg, workers, "coproc/cc/sgt/edges_added"));
  (*m)["cc.sgt_dfs_visits_per_txn"] =
      per_txn(SumWorkers(reg, workers, "coproc/cc/sgt/dfs_visits"));
  (*m)["cc.dirty_waits_per_txn"] =
      per_txn(SumWorkers(reg, workers, "coproc/hash/dirty_waits"));

  (*m)["comm.messages_per_txn"] =
      per_txn(reg.GetCounter("fabric/messages_sent"));
  Summary rtt;
  for (uint32_t w = 0; w < workers; ++w) {
    auto it = reg.summaries().find("workers/" + std::to_string(w) +
                                   "/remote_rtt_cycles");
    if (it != reg.summaries().end()) rtt.MergeFrom(it->second);
  }
  (*m)["comm.remote_rtt_p50_cycles"] = rtt.Quantile(0.5);
}

void SpinFor(Clock::duration d) {
  const Clock::time_point until = Clock::now() + d;
  while (Clock::now() < until) {
  }
}

RepResult RunRep(const WorkloadSpec& spec, uint64_t seed, uint32_t rep,
                 Tracer* tracer, Clock::duration gen_delay) {
  RepResult r;
  r.traced = tracer != nullptr;
  Instance inst;
  {
    ScopedSpan span(tracer, "workload.setup", rep);
    const Clock::time_point t0 = Clock::now();
    Status s = Build(spec.kind, &inst);
    r.setup_s = Seconds(Clock::now() - t0);
    if (!s.ok()) {
      r.errors.push_back("setup failed: " + s.ToString());
      return r;
    }
  }
  core::BionicDb& engine = *inst.engine;
  const uint32_t workers = engine.options().n_workers;

  // The seed reaches the engine only through the generated blocks.
  Rng rng(seed);
  host::TxnFactory inner = inst.Factory(&rng);
  host::TxnList blocks;
  // The benchmark's own generator wrapper: records each block for the
  // output checks, traces each call, and burns the optional fixed host
  // delay of the sensitivity test (host time only; the engine never sees
  // it).
  host::TxnFactory factory = [&](db::WorkerId w) {
    ScopedSpan span(tracer, "workload.gen", rep);
    if (gen_delay.count() > 0) SpinFor(gen_delay);
    const sim::Addr block = inner(w);
    blocks.emplace_back(w, block);
    return block;
  };

  host::ClosedLoopOptions closed_opts;
  closed_opts.inflight_per_worker = spec.closed_clients_per_worker;
  closed_opts.txns_per_worker = spec.closed_txns_per_worker;
  host::OpenLoopOptions open_opts;
  open_opts.arrival.process = host::ArrivalOptions::Process::kPoisson;
  open_opts.arrival.offered_tps = spec.open_offered_tps;
  open_opts.total_txns = spec.open_txns_per_phase;

  const size_t first_span = tracer ? tracer->spans().size() : 0;
  host::ClosedLoopResult closed;
  {
    ScopedSpan span(tracer, "host.closed_loop", rep);
    const Clock::time_point t0 = Clock::now();
    closed = host::RunClosedLoop(&engine, factory, closed_opts);
    r.host_s += Seconds(Clock::now() - t0);
  }
  host::OpenLoopResult open;  // totals over the open-loop phases
  std::vector<double> latencies;
  for (uint32_t phase = 0; phase < spec.open_phases; ++phase) {
    open_opts.arrival.seed = kArrivalSeed + phase;
    host::OpenLoopResult p;
    {
      ScopedSpan span(tracer, "host.open_loop", rep);
      const Clock::time_point t0 = Clock::now();
      p = host::RunOpenLoop(&engine, factory, open_opts);
      r.host_s += Seconds(Clock::now() - t0);
    }
    open.submitted += p.submitted;
    open.committed += p.committed;
    open.failed += p.failed;
    open.shed += p.shed;
    open.retries += p.retries;
    open.cycles += p.cycles;
    if (p.submitted != p.committed + p.failed + p.shed) {
      r.errors.push_back("driver accounting: open loop submitted != "
                         "committed + failed + shed");
    }
    const std::vector<double>& samples = p.latency_cycles.reservoir();
    if (samples.size() != p.latency_cycles.count()) {
      r.errors.push_back("open-loop latency reservoir dropped samples");
    }
    latencies.insert(latencies.end(), samples.begin(), samples.end());
  }
  std::sort(latencies.begin(), latencies.end());
  StatsRegistry reg;
  {
    ScopedSpan span(tracer, "core.collect_stats", rep);
    engine.CollectStats(&reg);
  }
  const sim::Simulator::WarpStats warp = engine.simulator().warp_stats();

  if (tracer != nullptr) {
    double loop_s = 0;
    for (size_t i = first_span; i < tracer->spans().size(); ++i) {
      const Tracer::Span& s = tracer->spans()[i];
      const std::string name = s.name;
      if (name == "workload.gen") r.gen_s += Seconds(s.end - s.begin);
      if (name.rfind("host.", 0) == 0) loop_s += Seconds(s.end - s.begin);
    }
    r.host_self_s = loop_s - r.gen_s;
  }

  r.committed = closed.committed + open.committed;
  r.attempted = closed.submitted + open.submitted;
  r.failed = closed.failed + open.failed + open.shed;
  r.cycles = closed.cycles + open.cycles;
  const uint64_t retries = closed.retries + open.retries;

  // Driver accounting and clock closure.
  if (closed.submitted != closed.committed + closed.failed) {
    r.errors.push_back("driver accounting: closed loop submitted != "
                       "committed + failed");
  }
  if (r.cycles != engine.now()) {
    r.errors.push_back("phase cycles " + std::to_string(r.cycles) +
                       " != engine clock " + std::to_string(engine.now()));
  }
  CheckOutputs(spec, inst, blocks, r.committed, retries, &r.errors);

  std::map<std::string, double>& m = r.modelled;
  m["sim_tps"] = closed.tps;
  const double recomputed =
      Ratio(double(closed.committed), double(closed.cycles) / kClockHz);
  if (std::fabs(recomputed - closed.tps) > 1e-9 * std::max(1.0, closed.tps)) {
    r.errors.push_back("sim_tps " + std::to_string(closed.tps) +
                       " != committed/cycles at 125 MHz " +
                       std::to_string(recomputed));
  }
  const double cycles_per_us = kClockHz / 1e6;
  m["sim_p50_us"] = ExactQuantile(latencies, 0.50) / cycles_per_us;
  m["sim_p99_us"] = ExactQuantile(latencies, 0.99) / cycles_per_us;
  m["ok_frac"] = Ratio(double(r.committed), double(r.attempted));
  m["host.latency_samples"] = double(latencies.size());
  LayerMetrics(reg, workers, r.committed, retries, r.cycles, warp, &m,
               &r.errors);

  double latency_sum = 0;
  for (double l : latencies) latency_sum += l;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "closed %" PRIu64 "/%" PRIu64 "/%" PRIu64 "/%" PRIu64
                "/%" PRIu64 " open %" PRIu64 "/%" PRIu64 "/%" PRIu64
                "/%" PRIu64 "/%" PRIu64 "/%" PRIu64 " latency sum %.17g"
                " warp %" PRIu64 "/%" PRIu64 "\n",
                closed.submitted, closed.committed, closed.failed,
                closed.retries, closed.cycles, open.submitted, open.committed,
                open.failed, open.shed, open.retries, open.cycles,
                latency_sum, warp.warps, warp.skipped_cycles);
  r.fingerprint = buf + reg.ToJson(0);
  return r;
}

// --- Driver ----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string trace_out;
  double gen_delay_us = 0;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --out PATH [--trace-out PATH] "
               "[--gen-delay-us D]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--gen-delay-us") {
      a.gen_delay_us = std::strtod(v.c_str(), &end);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == v.c_str())) {
      Usage(("bad number for " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.out.empty()) Usage("--workload and --out "
                                                 "are required");
  if (!(a.seconds > 0) || a.gen_delay_us < 0) Usage("bad --seconds or delay");
  return a;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) Usage(("unknown workload " + args.workload).c_str());

  const Clock::time_point window_start = Clock::now();
  Tracer tracer(window_start);
  const auto gen_delay = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::micro>(args.gen_delay_us));

  std::vector<RepResult> reps;
  std::vector<std::string> errors;
  std::vector<double> rep_seconds;
  for (uint32_t rep = 0;; ++rep) {
    const double elapsed = Seconds(Clock::now() - window_start);
    if (int(rep) >= kMinReps &&
        elapsed + Median(rep_seconds) > args.seconds) {
      break;
    }
    // With --trace 1, odd repetitions are traced and even ones are not,
    // so one process measures its own tracing overhead.
    const bool traced = args.trace && rep % 2 == 1;
    const Clock::time_point t0 = Clock::now();
    reps.push_back(RunRep(*spec, args.seed, rep, traced ? &tracer : nullptr,
                          gen_delay));
    // Hand the torn-down engine's memory back to the OS, so every set-up
    // faults in fresh pages as the first one in a new process does.
    malloc_trim(0);
    rep_seconds.push_back(Seconds(Clock::now() - t0));
    const RepResult& r = reps.back();
    for (const std::string& e : r.errors) {
      errors.push_back("rep " + std::to_string(rep) + ": " + e);
    }
    if (!r.errors.empty()) break;
    if (r.fingerprint != reps.front().fingerprint) {
      errors.push_back("rep " + std::to_string(rep) +
                       ": modelled results differ from rep 0");
      break;
    }
    std::fprintf(stderr,
                 "%s rep %u%s: setup %.3f s, %" PRIu64 " txns in %.3f s "
                 "host\n",
                 spec->name, rep, traced ? " (traced)" : "", r.setup_s,
                 r.committed, r.host_s);
  }

  // Host speed is taken from the slowest repetition of each kind, not the
  // median: on a shared host the speed-ups come in bursts, and the slowest
  // repetition repeats from run to run much better (WORKLOADS.md).
  std::vector<double> setup;
  const RepResult* slowest[2] = {nullptr, nullptr};  // [traced]
  uint64_t attempted = 0, failed = 0;
  for (const RepResult& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
    setup.push_back(r.setup_s);
    const RepResult*& s = slowest[r.traced];
    if (s == nullptr || r.HostRate() < s->HostRate()) s = &r;
  }
  std::map<std::string, double> metrics = reps.front().modelled;
  metrics["host_txn_per_s"] = slowest[0] ? slowest[0]->HostRate() : 0;
  metrics["setup_s"] = Median(setup);
  metrics["host_peak_rss_mb"] = PeakRssMb();
  if (args.trace) {
    const RepResult* t = slowest[1];
    metrics["sim.mcycles_per_s"] =
        t ? Ratio(double(t->cycles), t->host_self_s) / 1e6 : 0;
    metrics["workload.gen_us_per_txn"] =
        t ? Ratio(t->gen_s * 1e6, double(t->committed)) : 0;
    metrics["trace.host_txn_per_s"] = t ? t->HostRate() : 0;
    metrics["trace.host_overhead"] =
        Ratio(metrics["host_txn_per_s"], metrics["trace.host_txn_per_s"]) - 1;
  }
  for (const auto& [name, v] : metrics) {
    const bool frac = name.size() > 5 &&
                      name.compare(name.size() - 5, 5, "_frac") == 0;
    if (!std::isfinite(v) || (frac && (v < 0 || v > 1))) {
      errors.push_back(name + " = " + std::to_string(v) + " out of range");
    }
  }
  if (args.trace && !args.trace_out.empty() &&
      !tracer.WriteChromeJson(args.trace_out, std::string(spec->name) +
                                                  "-seed" +
                                                  std::to_string(args.seed))) {
    errors.push_back("cannot write trace to " + args.trace_out);
  }

  json::Writer w;
  w.BeginObject();
  w.Key("workload");
  w.Value(spec->name);
  w.Key("seed");
  w.Value(args.seed);
  w.Key("correct");
  w.Value(errors.empty());
  w.Key("errors");
  w.BeginArray();
  for (const std::string& e : errors) w.Value(e);
  w.EndArray();
  w.Key("attempted");
  w.Value(attempted);
  w.Key("failed");
  w.Value(failed);
  w.Key("reps");
  w.Value(uint64_t(reps.size()));
  w.Key("modelled_digest");
  w.Value(Hex64(Fnv1a(reps.front().fingerprint)));
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [name, v] : metrics) {
    w.Key(name);
    w.Value(v);
  }
  w.EndObject();
  w.EndObject();
  const std::string doc = w.TakeString();
  std::FILE* f = std::fopen(args.out.c_str(), "w");
  bool written = f != nullptr;
  if (written) {
    written = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    written = std::fclose(f) == 0 && written;
  }
  if (!written) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 args.out.c_str());
    return 1;
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace bionicdb::perfbench

int main(int argc, char** argv) {
  return bionicdb::perfbench::Main(argc, argv);
}
