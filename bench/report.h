// Machine-readable bench reports.
//
// Every bench binary builds one BenchReport and writes it as
// BENCH_<name>.json next to the console tables, so the paper figures can be
// regenerated / regression-diffed without scraping stdout. Schema (see the
// "Observability" section of DESIGN.md):
//
//   {
//     "bench": "<name>",
//     "schema_version": 1,
//     "runs": [
//       { "label": "<config label>", "stats": { ...metric tree... } },
//       ...
//     ]
//   }
//
// The per-run stats tree is a StatsRegistry dump; engine-backed runs use
// AddEngineRun which captures the full simulator/worker/coprocessor stats
// (cycle breakdowns, DRAM channel utilisation, stall counters) plus the
// host driver's run metrics under "run/...".
#ifndef BIONICDB_BENCH_REPORT_H_
#define BIONICDB_BENCH_REPORT_H_

#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/engine.h"
#include "host/driver.h"

namespace bionicdb::bench {

class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  size_t run_count() const { return runs_.size(); }

  /// Starts an empty run; the caller fills the returned registry.
  StatsRegistry& AddRun(const std::string& label);

  /// Records a completed open-loop engine run: the host driver's metrics
  /// under "run/..." plus the engine's full statistics tree.
  StatsRegistry& AddEngineRun(const std::string& label,
                              core::BionicDb* engine,
                              const host::RunResult& result);

  /// Same for a closed-loop run (includes the latency summary).
  StatsRegistry& AddEngineRun(const std::string& label,
                              core::BionicDb* engine,
                              const host::ClosedLoopResult& result);

  /// Same for an open-loop run (offered/goodput rates, shed counters, and
  /// latency SLO gauges under "run/latency/...").
  StatsRegistry& AddEngineRun(const std::string& label,
                              core::BionicDb* engine,
                              const host::OpenLoopResult& result);

  /// Records a closed-loop run on a multi-chip engine: the closed-loop
  /// run above, plus the chip shape and per-chip commit/abort totals
  /// under "cluster/...", latency/p50|p99 gauges, the shape and multisite
  /// fraction under "run/cluster/...", and the result's per-chip rows
  /// under "run/chips/<c>/...". The run totals are written once from the
  /// result, never re-summed from the per-chip rows.
  StatsRegistry& AddClusterRun(const std::string& label,
                               core::BionicDb* engine,
                               const host::ClosedLoopResult& result,
                               double multisite_fraction);

  std::string ToJson() const;

  /// Writes BENCH_<name>.json in the current working directory.
  /// Returns the written path ("" on I/O failure, which is also printed).
  std::string WriteFile() const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, StatsRegistry>> runs_;
};

}  // namespace bionicdb::bench

#endif  // BIONICDB_BENCH_REPORT_H_
