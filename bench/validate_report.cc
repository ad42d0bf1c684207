// Validates a BENCH_*.json report emitted by a bench binary (the
// bench_smoke ctest target runs this over a fresh fig9_overall report).
//
// Checks:
//  * the document parses as JSON;
//  * required keys exist: "bench" (string), "schema_version" (number),
//    "runs" (non-empty array of {label, stats});
//  * every run with engine stats carries sim cycle/throughput metrics and
//    the per-message-class fabric counters (sent >= delivered per class);
//  * every worker's cycle breakdown is exhaustive: busy + dram_stall +
//    hazard_block + backpressure + idle (+ frozen, present only under
//    fault injection) matches cycles/total within 1%;
//  * every open-loop run (marked by run/offered_tps) carries the latency
//    SLO gauges (run/latency/p50|p99|p999, ordered), run/goodput and
//    run/shed, with shed <= submitted, goodput <= offered load, and
//    submitted == committed + failed + shed;
//  * every batched-traversal run (marked by run/index/batch/
//    batches_flushed) carries the probes-per-batch median, at least one
//    probe per flushed batch;
//  * every CC-diversity run (label "cc/..." or "sw/...") carries the
//    per-scheme counters (run/cc/scheme|retries|aborts|conservation_ok),
//    conservation holds, aborts never exceed attempts, and MVCC runs never
//    free more versions than they created;
//  * every simulator-speed summary run (label "speed/<leg>") carries
//    positive cycles and a positive sim_cycles_per_second for at least one
//    simulation mode; an event-driven leg also carries its block ticks,
//    between one and `blocks` per cycle in which some block ticked; and
//    any report containing speed runs also carries a
//    "calibration" run with positive host_ops_per_second — the perf-gate
//    normalization denominator (scripts/perf_gate.py refuses reports
//    without it, so catch the omission here first).
//
// Usage: validate_report <path> [<path>...]; exits non-zero on the first
// failed file.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"

namespace bionicdb {
namespace {

bool Fail(const std::string& path, const std::string& what) {
  std::fprintf(stderr, "%s: FAIL: %s\n", path.c_str(), what.c_str());
  return false;
}

/// Fetches a required numeric member of `stats` at `key` into `*out`.
bool Num(const json::Value& stats, const std::string& key, double* out) {
  const json::Value* v = stats.FindPath(key);
  if (v == nullptr || !v->is_number()) return false;
  *out = v->number();
  return true;
}

/// Every engine run must expose the per-message-class fabric counters
/// (fabric/<class>/sent|delivered|retransmitted for all eight classes,
/// the 2PC classes included), and a class can never deliver more
/// envelopes than were sent — retransmits are counted separately, and the
/// reliability layer dedups duplicates before they reach an inbox.
bool CheckFabricClasses(const std::string& path, const std::string& label,
                        const json::Value& stats) {
  static const char* kClasses[] = {"index_op",    "mem_op",
                                   "index_result", "mem_result",
                                   "prepare_req",  "prepare_ack",
                                   "commit_req",   "commit_ack"};
  for (const char* cls : kClasses) {
    const std::string base = std::string("fabric/") + cls;
    double sent, delivered, retransmitted;
    if (!Num(stats, base + "/sent", &sent) ||
        !Num(stats, base + "/delivered", &delivered) ||
        !Num(stats, base + "/retransmitted", &retransmitted)) {
      return Fail(path, "run '" + label + "': missing " + base +
                            "/sent|delivered|retransmitted");
    }
    if (sent < delivered) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "run '%s' %s: delivered %.0f exceeds sent %.0f",
                    label.c_str(), base.c_str(), delivered, sent);
      return Fail(path, buf);
    }
  }
  return true;
}

/// Open-loop runs (identified by run/offered_tps) must report the latency
/// SLO fields, and the admission/shedding arithmetic must close: shedding
/// can never exceed the offered transactions, goodput can never exceed the
/// offered load, and every offered transaction must end in exactly one of
/// committed/failed/shed.
bool CheckOpenLoopRun(const std::string& path, const std::string& label,
                      const json::Value& stats) {
  double offered;
  if (!Num(stats, "run/offered_tps", &offered)) return true;  // closed loop
  double p50, p99, p999, goodput, shed, submitted, committed, failed;
  if (!Num(stats, "run/latency/p50", &p50) ||
      !Num(stats, "run/latency/p99", &p99) ||
      !Num(stats, "run/latency/p999", &p999)) {
    return Fail(path, "open-loop run '" + label +
                          "': missing run/latency/p50|p99|p999");
  }
  if (!Num(stats, "run/goodput", &goodput)) {
    return Fail(path, "open-loop run '" + label + "': missing run/goodput");
  }
  if (!Num(stats, "run/shed", &shed) ||
      !Num(stats, "run/submitted", &submitted) ||
      !Num(stats, "run/committed", &committed) ||
      !Num(stats, "run/failed", &failed)) {
    return Fail(path, "open-loop run '" + label +
                          "': missing run/shed|submitted|committed|failed");
  }
  char buf[200];
  if (p50 > p99 || p99 > p999) {
    std::snprintf(buf, sizeof buf,
                  "open-loop run '%s': latency quantiles out of order "
                  "(p50 %.0f, p99 %.0f, p999 %.0f)",
                  label.c_str(), p50, p99, p999);
    return Fail(path, buf);
  }
  if (shed > submitted) {
    std::snprintf(buf, sizeof buf,
                  "open-loop run '%s': shed %.0f exceeds submitted %.0f",
                  label.c_str(), shed, submitted);
    return Fail(path, buf);
  }
  if (goodput > offered * (1 + 1e-9)) {
    std::snprintf(buf, sizeof buf,
                  "open-loop run '%s': goodput %.0f exceeds offered load "
                  "%.0f",
                  label.c_str(), goodput, offered);
    return Fail(path, buf);
  }
  if (committed + failed + shed != submitted) {
    std::snprintf(buf, sizeof buf,
                  "open-loop run '%s': committed %.0f + failed %.0f + shed "
                  "%.0f != submitted %.0f",
                  label.c_str(), committed, failed, shed, submitted);
    return Fail(path, buf);
  }
  return true;
}

/// Batched-traversal runs (identified by run/index/batch/batches_flushed,
/// emitted only for TraversalMode::kBatched engines) must carry the
/// probes-per-batch median, and a run that flushed batches must have
/// collected at least one probe per batch.
bool CheckBatchRun(const std::string& path, const std::string& label,
                   const json::Value& stats) {
  double flushed;
  if (!Num(stats, "run/index/batch/batches_flushed", &flushed)) {
    return true;  // per-op run: no batch block
  }
  double p50;
  if (!Num(stats, "run/index/batch/probes_per_batch_p50", &p50)) {
    return Fail(path, "batched run '" + label +
                          "': missing run/index/batch/probes_per_batch_p50");
  }
  if (flushed > 0 && p50 < 1) {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "batched run '%s': %.0f batches flushed but "
                  "probes_per_batch_p50 %.2f < 1",
                  label.c_str(), flushed, p50);
    return Fail(path, buf);
  }
  return true;
}

/// CC-diversity runs ("cc/<contention>/<scheme>" for the simulated engine,
/// "sw/<contention>/<scheme>" for the software CcScheme tier) must carry
/// the per-scheme counters bench/cc_contention promises, and the abort
/// arithmetic must close: every abort was an attempt (initial submission
/// or retry), the SmallBank conservation flag must be set, and MVCC runs
/// can never free more versions than they created.
bool CheckCcRun(const std::string& path, const std::string& label,
                const json::Value& stats) {
  if (label.rfind("cc/", 0) != 0 && label.rfind("sw/", 0) != 0) return true;
  double scheme, retries, aborts, conserved, submitted, committed;
  if (!Num(stats, "run/cc/scheme", &scheme) ||
      !Num(stats, "run/cc/retries", &retries) ||
      !Num(stats, "run/cc/aborts", &aborts) ||
      !Num(stats, "run/cc/conservation_ok", &conserved)) {
    return Fail(path, "cc run '" + label +
                          "': missing run/cc/scheme|retries|aborts|"
                          "conservation_ok");
  }
  if (!Num(stats, "run/submitted", &submitted) ||
      !Num(stats, "run/committed", &committed)) {
    return Fail(path,
                "cc run '" + label + "': missing run/submitted|committed");
  }
  char buf[200];
  if (conserved != 1) {
    return Fail(path, "cc run '" + label + "': conservation_ok != 1 "
                      "(SmallBank total assets drifted)");
  }
  if (committed > submitted) {
    std::snprintf(buf, sizeof buf,
                  "cc run '%s': committed %.0f exceeds submitted %.0f",
                  label.c_str(), committed, submitted);
    return Fail(path, buf);
  }
  if (aborts > submitted + retries) {
    std::snprintf(buf, sizeof buf,
                  "cc run '%s': aborts %.0f exceed attempts (submitted "
                  "%.0f + retries %.0f)",
                  label.c_str(), aborts, submitted, retries);
    return Fail(path, buf);
  }
  if (scheme == 2) {  // mvcc
    double created, freed;
    if (!Num(stats, "run/cc/versions_created", &created) ||
        !Num(stats, "run/cc/versions_freed", &freed)) {
      return Fail(path, "mvcc run '" + label +
                            "': missing run/cc/versions_created|freed");
    }
    if (freed > created) {
      std::snprintf(buf, sizeof buf,
                    "mvcc run '%s': versions_freed %.0f exceeds "
                    "versions_created %.0f",
                    label.c_str(), freed, created);
      return Fail(path, buf);
    }
  }
  if (scheme == 1 &&
      !Num(stats, "run/cc/cycle_aborts", &retries)) {  // sgt
    return Fail(path,
                "sgt run '" + label + "': missing run/cc/cycle_aborts");
  }
  return true;
}

/// One cluster run's contribution to the cross-run scale-out check.
struct ClusterRunPoint {
  std::string label;
  double n_chips = 0;
  double fraction = 0;
  double tps = 0;
};

/// Cluster runs (identified by run/cluster/n_chips) must close their
/// accounting across chips: the per-chip rows sum exactly to the run
/// totals (counted once — a double-counted merge would show up here as a
/// 2x mismatch), every transaction ends committed or failed, and the
/// merged latency quantiles are ordered. Multi-chip runs must also carry
/// the inter-chip link counters with sent >= delivered per link.
bool CheckClusterRun(const std::string& path, const std::string& label,
                     const json::Value& stats, ClusterRunPoint* point) {
  double n_chips;
  if (!Num(stats, "run/cluster/n_chips", &n_chips)) return true;
  double fraction, submitted, committed, failed, tps, p50, p99;
  if (!Num(stats, "run/cluster/multisite_fraction", &fraction) ||
      !Num(stats, "run/submitted", &submitted) ||
      !Num(stats, "run/committed", &committed) ||
      !Num(stats, "run/failed", &failed) || !Num(stats, "run/tps", &tps) ||
      !Num(stats, "run/latency/p50", &p50) ||
      !Num(stats, "run/latency/p99", &p99)) {
    return Fail(path, "cluster run '" + label +
                          "': missing run/cluster or run/ metrics");
  }
  char buf[220];
  if (committed + failed != submitted) {
    std::snprintf(buf, sizeof buf,
                  "cluster run '%s': committed %.0f + failed %.0f != "
                  "submitted %.0f",
                  label.c_str(), committed, failed, submitted);
    return Fail(path, buf);
  }
  if (p50 > p99) {
    std::snprintf(buf, sizeof buf,
                  "cluster run '%s': merged latency quantiles out of order "
                  "(p50 %.0f > p99 %.0f)",
                  label.c_str(), p50, p99);
    return Fail(path, buf);
  }
  double chip_submitted = 0, chip_committed = 0, chip_failed = 0;
  for (uint32_t c = 0; c < uint32_t(n_chips); ++c) {
    const std::string p = "run/chips/" + std::to_string(c) + "/";
    double s, k, f;
    if (!Num(stats, p + "submitted", &s) || !Num(stats, p + "committed", &k) ||
        !Num(stats, p + "failed", &f)) {
      return Fail(path, "cluster run '" + label + "': missing " + p +
                            "submitted|committed|failed");
    }
    chip_submitted += s;
    chip_committed += k;
    chip_failed += f;
  }
  if (chip_submitted != submitted || chip_committed != committed ||
      chip_failed != failed) {
    std::snprintf(buf, sizeof buf,
                  "cluster run '%s': per-chip sums (%.0f/%.0f/%.0f) != run "
                  "totals (%.0f/%.0f/%.0f) — double-counted merge?",
                  label.c_str(), chip_submitted, chip_committed, chip_failed,
                  submitted, committed, failed);
    return Fail(path, buf);
  }
  if (n_chips > 1) {
    bool any_link = false;
    for (uint32_t s = 0; s < uint32_t(n_chips) && !any_link; ++s) {
      for (uint32_t d = 0; d < uint32_t(n_chips); ++d) {
        if (s == d) continue;
        const std::string base = "fabric/interchip/c" + std::to_string(s) +
                                 "_c" + std::to_string(d);
        double sent, delivered, peak;
        if (!Num(stats, base + "/sent", &sent) ||
            !Num(stats, base + "/delivered", &delivered) ||
            !Num(stats, base + "/queue_peak", &peak)) {
          return Fail(path, "cluster run '" + label + "': missing " + base +
                                "/sent|delivered|queue_peak");
        }
        if (sent < delivered) {
          std::snprintf(buf, sizeof buf,
                        "cluster run '%s' %s: delivered %.0f exceeds sent "
                        "%.0f",
                        label.c_str(), base.c_str(), delivered, sent);
          return Fail(path, buf);
        }
        any_link = true;
      }
    }
  }
  point->label = label;
  point->n_chips = n_chips;
  point->fraction = fraction;
  point->tps = tps;
  return true;
}

/// Scale-out sanity across a report's cluster runs: at a fixed chip count,
/// raising the multisite fraction can only cost throughput (2PC rounds
/// replace single-chip commits), so tps must be monotone non-increasing in
/// the fraction. A 5% slack absorbs workload-mix noise at nearby
/// fractions.
bool CheckClusterMonotonicity(const std::string& path,
                              const std::vector<ClusterRunPoint>& points) {
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = i + 1; j < points.size(); ++j) {
      const ClusterRunPoint& a = points[i];
      const ClusterRunPoint& b = points[j];
      if (a.n_chips != b.n_chips || a.fraction >= b.fraction) continue;
      if (b.tps > a.tps * 1.05) {
        char buf[220];
        std::snprintf(buf, sizeof buf,
                      "cluster runs '%s' -> '%s': tps rose %.0f -> %.0f as "
                      "multisite fraction rose %.2f -> %.2f",
                      a.label.c_str(), b.label.c_str(), a.tps, b.tps,
                      a.fraction, b.fraction);
        return Fail(path, buf);
      }
    }
  }
  return true;
}

/// Simulator-speed summary runs ("speed/<leg>") feed the CI perf ratchet:
/// each must report the leg's simulated cycle count and a positive
/// cycles-per-second gauge for at least one simulation mode, or the gate
/// downstream has nothing to compare. An event-driven leg must also report
/// its block ticks, between one and `blocks` per cycle in which some block
/// ticked.
bool CheckSpeedRun(const std::string& path, const std::string& label,
                   const json::Value& stats) {
  double cycles;
  if (!Num(stats, "cycles", &cycles) || cycles <= 0) {
    return Fail(path, "speed run '" + label + "': missing positive cycles");
  }
  bool any_mode = false;
  static const char* kModes[] = {"cycle_accurate", "event_driven"};
  for (const char* mode : kModes) {
    double cps;
    if (!Num(stats, std::string(mode) + "/sim_cycles_per_second", &cps)) {
      continue;
    }
    if (cps <= 0) {
      return Fail(path, "speed run '" + label + "': non-positive " + mode +
                            "/sim_cycles_per_second");
    }
    any_mode = true;
  }
  if (!any_mode) {
    return Fail(path, "speed run '" + label +
                          "': no mode reports sim_cycles_per_second");
  }
  double ignored;
  if (!Num(stats, "event_driven/sim_cycles_per_second", &ignored)) {
    return true;
  }
  double blocks, skipped, ticks;
  if (!Num(stats, "blocks", &blocks) ||
      !Num(stats, "event_driven/skipped_cycles", &skipped) ||
      !Num(stats, "event_driven/block_ticks", &ticks)) {
    return Fail(path, "speed run '" + label +
                          "': event-driven leg without blocks, "
                          "skipped_cycles and block_ticks");
  }
  const double ticked_cycles = cycles - skipped;
  if (ticks < ticked_cycles || ticks > blocks * ticked_cycles) {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "speed run '%s': event_driven/block_ticks %.0f outside "
                  "[%.0f, %.0f] (1..blocks per ticked cycle)",
                  label.c_str(), ticks, ticked_cycles, blocks * ticked_cycles);
    return Fail(path, buf);
  }
  return true;
}

bool CheckWorkerBreakdown(const std::string& path, const std::string& label,
                          const std::string& worker,
                          const json::Value& cycles) {
  double total, busy, dram, hazard, bp, idle;
  if (!Num(cycles, "total", &total) || !Num(cycles, "busy", &busy) ||
      !Num(cycles, "dram_stall", &dram) ||
      !Num(cycles, "hazard_block", &hazard) ||
      !Num(cycles, "backpressure", &bp) || !Num(cycles, "idle", &idle)) {
    return Fail(path, "run '" + label + "' worker " + worker +
                          ": incomplete cycle breakdown");
  }
  // `frozen` exists only in fault-injection runs, `interchip_stall` only
  // in multi-chip runs (both optional, default 0).
  double frozen = 0;
  Num(cycles, "frozen", &frozen);
  double interchip = 0;
  Num(cycles, "interchip_stall", &interchip);
  double sum = busy + dram + hazard + bp + idle + frozen + interchip;
  if (total <= 0) {
    return Fail(path,
                "run '" + label + "' worker " + worker + ": zero cycles");
  }
  if (std::fabs(sum - total) > 0.01 * total) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "run '%s' worker %s: breakdown sum %.0f != total %.0f "
                  "(>1%% off)",
                  label.c_str(), worker.c_str(), sum, total);
    return Fail(path, buf);
  }
  return true;
}

bool ValidateFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Fail(path, "cannot open");
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = json::Value::Parse(buf.str());
  if (!parsed.ok()) {
    return Fail(path, "JSON parse error: " + parsed.status().ToString());
  }
  const json::Value& doc = parsed.value();

  const json::Value* bench = doc.Find("bench");
  if (bench == nullptr || !bench->is_string()) {
    return Fail(path, "missing string key 'bench'");
  }
  const json::Value* version = doc.Find("schema_version");
  if (version == nullptr || !version->is_number()) {
    return Fail(path, "missing numeric key 'schema_version'");
  }
  const json::Value* runs = doc.Find("runs");
  if (runs == nullptr || !runs->is_array()) {
    return Fail(path, "missing array key 'runs'");
  }
  if (runs->array().empty()) return Fail(path, "'runs' is empty");

  size_t engine_runs = 0;
  size_t workers_checked = 0;
  size_t speed_runs = 0;
  double calibration_ops = 0;
  std::vector<ClusterRunPoint> cluster_points;
  for (const json::Value& run : runs->array()) {
    const json::Value* label_v = run.Find("label");
    const json::Value* stats = run.Find("stats");
    if (label_v == nullptr || !label_v->is_string() || stats == nullptr ||
        !stats->is_object()) {
      return Fail(path, "run without string 'label' + object 'stats'");
    }
    const std::string& label = label_v->string();
    if (label.rfind("speed/", 0) == 0) {
      if (!CheckSpeedRun(path, label, *stats)) return false;
      ++speed_runs;
    }
    if (label == "calibration" &&
        !Num(*stats, "host_ops_per_second", &calibration_ops)) {
      return Fail(path, "calibration run: missing host_ops_per_second");
    }
    if (!CheckCcRun(path, label, *stats)) return false;
    const json::Value* workers = stats->Find("workers");
    if (workers == nullptr) continue;  // analytic run: no engine tree
    ++engine_runs;
    double ignored;
    if (!Num(*stats, "sim/cycles", &ignored)) {
      return Fail(path, "run '" + label + "': missing sim/cycles");
    }
    if (!Num(*stats, "run/committed", &ignored)) {
      return Fail(path, "run '" + label + "': missing run/committed");
    }
    // Wall-clock provenance: CI trend dashboards key off these two, so a
    // report that drops them is broken even if the sim stats are fine.
    if (!Num(*stats, "run/wall_seconds", &ignored)) {
      return Fail(path, "run '" + label + "': missing run/wall_seconds");
    }
    if (!Num(*stats, "run/sim_cycles_per_second", &ignored)) {
      return Fail(path,
                  "run '" + label + "': missing run/sim_cycles_per_second");
    }
    if (!CheckFabricClasses(path, label, *stats)) return false;
    if (!CheckOpenLoopRun(path, label, *stats)) return false;
    if (!CheckBatchRun(path, label, *stats)) return false;
    ClusterRunPoint point;
    if (!CheckClusterRun(path, label, *stats, &point)) return false;
    if (point.n_chips > 0) cluster_points.push_back(point);
    if (!workers->is_object() || workers->members().empty()) {
      return Fail(path, "run '" + label + "': empty workers tree");
    }
    for (const auto& [worker_id, worker] : workers->members()) {
      const json::Value* cycles = worker.Find("cycles");
      if (cycles == nullptr) {
        return Fail(path, "run '" + label + "' worker " + worker_id +
                              ": missing cycles");
      }
      if (!CheckWorkerBreakdown(path, label, worker_id, *cycles)) {
        return false;
      }
      ++workers_checked;
    }
  }
  if (!CheckClusterMonotonicity(path, cluster_points)) return false;
  if (speed_runs > 0 && calibration_ops <= 0) {
    return Fail(path, "report has speed/* runs but no calibration run with "
                      "positive host_ops_per_second (perf-gate "
                      "normalization denominator)");
  }
  std::printf("%s: OK (%zu runs, %zu engine runs, %zu worker breakdowns, "
              "%zu cluster runs)\n",
              path.c_str(), runs->array().size(), engine_runs,
              workers_checked, cluster_points.size());
  return true;
}

}  // namespace
}  // namespace bionicdb

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <BENCH_*.json> [...]\n", argv[0]);
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    if (!bionicdb::ValidateFile(argv[i])) return 1;
  }
  return 0;
}
