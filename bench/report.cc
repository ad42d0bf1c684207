#include "bench/report.h"

#include <cstdio>

#include "common/json.h"

namespace bionicdb::bench {

namespace {

/// Re-indents a pretty-printed JSON block so it nests at `pad` spaces.
/// The first line is left alone (it follows a key on the same line).
std::string IndentBlock(const std::string& block, int pad) {
  std::string out;
  out.reserve(block.size() + 64);
  std::string prefix(size_t(pad), ' ');
  for (size_t i = 0; i < block.size(); ++i) {
    out.push_back(block[i]);
    if (block[i] == '\n' && i + 1 < block.size()) out += prefix;
  }
  return out;
}

}  // namespace

StatsRegistry& BenchReport::AddRun(const std::string& label) {
  runs_.emplace_back(label, StatsRegistry());
  return runs_.back().second;
}

StatsRegistry& BenchReport::AddEngineRun(const std::string& label,
                                         core::BionicDb* engine,
                                         const host::RunResult& result) {
  StatsRegistry& reg = AddRun(label);
  engine->CollectStats(&reg);
  reg.SetCounter("run/submitted", result.submitted);
  reg.SetCounter("run/committed", result.committed);
  reg.SetCounter("run/failed", result.failed);
  reg.SetCounter("run/retries", result.retries);
  reg.SetCounter("run/cycles", result.cycles);
  reg.SetGauge("run/tps", result.tps);
  reg.SetGauge("run/wall_seconds", result.wall_seconds);
  reg.SetGauge("run/sim_cycles_per_second", result.SimCyclesPerSecond());
  return reg;
}

StatsRegistry& BenchReport::AddEngineRun(
    const std::string& label, core::BionicDb* engine,
    const host::ClosedLoopResult& result) {
  StatsRegistry& reg = AddRun(label);
  engine->CollectStats(&reg);
  reg.SetCounter("run/submitted", result.submitted);
  reg.SetCounter("run/committed", result.committed);
  reg.SetCounter("run/failed", result.failed);
  reg.SetCounter("run/retries", result.retries);
  reg.SetCounter("run/cycles", result.cycles);
  reg.SetGauge("run/tps", result.tps);
  reg.SetGauge("run/wall_seconds", result.wall_seconds);
  reg.SetGauge("run/sim_cycles_per_second", result.SimCyclesPerSecond());
  reg.SetSummary("run/latency_cycles", result.latency_cycles);
  return reg;
}

StatsRegistry& BenchReport::AddEngineRun(const std::string& label,
                                         core::BionicDb* engine,
                                         const host::OpenLoopResult& result) {
  StatsRegistry& reg = AddRun(label);
  engine->CollectStats(&reg);
  host::RecordOpenLoopStats(result, StatsScope(&reg, "run"));
  return reg;
}

StatsRegistry& BenchReport::AddClusterRun(const std::string& label,
                                          core::BionicDb* engine,
                                          const host::ClosedLoopResult& result,
                                          double multisite_fraction) {
  StatsRegistry& reg = AddEngineRun(label, engine, result);
  const uint32_t n_chips = engine->n_chips();
  const uint32_t workers_per_chip = engine->options().workers_per_chip;
  std::vector<uint64_t> committed(n_chips), aborted(n_chips);
  for (uint32_t w = 0; w < engine->options().n_workers; ++w) {
    committed[engine->ChipOf(w)] += engine->worker(w).stats().committed;
    aborted[engine->ChipOf(w)] += engine->worker(w).stats().aborted;
  }
  reg.SetCounter("cluster/n_chips", n_chips);
  reg.SetCounter("cluster/workers_per_chip", workers_per_chip);
  for (uint32_t c = 0; c < n_chips; ++c) {
    const std::string p = "cluster/chips/" + std::to_string(c) + "/";
    reg.SetCounter(p + "committed", committed[c]);
    reg.SetCounter(p + "aborted", aborted[c]);
  }
  reg.SetCounter("run/cluster/n_chips", n_chips);
  reg.SetCounter("run/cluster/workers_per_chip", workers_per_chip);
  reg.SetGauge("run/cluster/multisite_fraction", multisite_fraction);
  reg.SetGauge("run/latency/p50", result.latency_cycles.Quantile(0.5));
  reg.SetGauge("run/latency/p99", result.latency_cycles.Quantile(0.99));
  for (size_t c = 0; c < result.chips.size(); ++c) {
    const auto& chip = result.chips[c];
    const std::string p = "run/chips/" + std::to_string(c) + "/";
    reg.SetCounter(p + "submitted", chip.submitted);
    reg.SetCounter(p + "committed", chip.committed);
    reg.SetCounter(p + "failed", chip.failed);
    reg.SetCounter(p + "retries", chip.retries);
    reg.SetSummary(p + "latency_cycles", chip.latency_cycles);
  }
  return reg;
}

std::string BenchReport::ToJson() const {
  // Assembled by hand: the run stats arrive as finished JSON blocks from
  // StatsRegistry::ToJson, spliced in with adjusted indentation.
  std::string out = "{\n";
  out += "  \"bench\": \"" + json::Escape(name_) + "\",\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"runs\": [";
  for (size_t i = 0; i < runs_.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\n";
    out += "      \"label\": \"" + json::Escape(runs_[i].first) + "\",\n";
    out += "      \"stats\": " + IndentBlock(runs_[i].second.ToJson(2), 6);
    out += "\n    }";
  }
  out += runs_.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::string BenchReport::WriteFile() const {
  std::string path = "BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "report: cannot open %s for writing\n",
                 path.c_str());
    return "";
  }
  std::string doc = ToJson();
  size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  if (written != doc.size()) {
    std::fprintf(stderr, "report: short write to %s\n", path.c_str());
    return "";
  }
  std::printf("(report written to %s)\n", path.c_str());
  return path;
}

}  // namespace bionicdb::bench
