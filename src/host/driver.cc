#include "host/driver.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>

#include "common/parallel.h"
#include "common/random.h"

namespace bionicdb::host {

namespace {
double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Every driver promises submitted == sum of its terminal outcomes; a
/// mismatch means transactions were silently dropped, which would corrupt
/// every rate and SLO figure built on top, so it is fatal rather than a
/// quietly-wrong report.
void CheckAccounting(const char* driver, uint64_t submitted,
                     uint64_t accounted) {
  if (submitted == accounted) return;
  std::fprintf(stderr,
               "%s: accounting invariant violated: submitted %llu != "
               "terminal outcomes %llu\n",
               driver, static_cast<unsigned long long>(submitted),
               static_cast<unsigned long long>(accounted));
  std::abort();
}
}  // namespace

RunResult RunToCompletion(core::BionicDb* engine, const TxnList& txns,
                          bool retry_aborts, uint32_t max_rounds) {
  RunResult result;
  result.submitted = txns.size();
  const auto wall_start = std::chrono::steady_clock::now();
  const uint64_t start_cycle = engine->now();
  const uint64_t committed_before = engine->TotalCommitted();

  TxnList pending = txns;
  for (uint32_t round = 0; round < max_rounds && !pending.empty(); ++round) {
    for (const auto& [worker, block] : pending) {
      engine->Submit(worker, block);
    }
    engine->Drain();
    TxnList next;
    bool drain_exhausted = false;
    for (const auto& [worker, block] : pending) {
      db::TxnBlock b(&engine->simulator().dram(), block);
      switch (b.state()) {
        case db::TxnState::kCommitted:
          break;
        case db::TxnState::kAborted:
          if (retry_aborts) {
            b.set_state(db::TxnState::kPending);
            next.emplace_back(worker, block);
          } else {
            ++result.failed;
          }
          break;
        default:
          // Still pending/running after Drain: its cycle budget ran out
          // mid-flight. Count the transaction as failed — and never
          // resubmit it, the engine still holds it queued (the pre-audit
          // code reset and resubmitted such blocks, double-enqueueing
          // them and dropping them from the failure count).
          ++result.failed;
          drain_exhausted = true;
          break;
      }
    }
    if (!retry_aborts) {
      pending.clear();
      break;
    }
    if (drain_exhausted) {
      // Out of cycles: retrying the aborted remainder cannot finish either.
      result.failed += next.size();
      pending.clear();
      break;
    }
    result.retries += next.size();
    // Shuffle the retry order: the simulator is deterministic, so two
    // transactions that mutually abort (e.g. cross-partition writers
    // touching each other's rows in opposite order) would otherwise replay
    // the exact same interleaving forever.
    Rng shuffle_rng(round * 0x9e3779b9ull + 1);
    for (size_t i = next.size(); i > 1; --i) {
      std::swap(next[i - 1], next[shuffle_rng.NextUint64(i)]);
    }
    pending = std::move(next);
  }
  result.failed += pending.size();
  result.cycles = engine->now() - start_cycle;
  result.committed = engine->TotalCommitted() - committed_before;
  result.tps =
      engine->options().timing.Throughput(result.committed, result.cycles);
  result.wall_seconds = SecondsSince(wall_start);
  CheckAccounting("RunToCompletion", result.submitted,
                  result.committed + result.failed);
  return result;
}

ClosedLoopResult RunClosedLoop(core::BionicDb* engine,
                               const TxnFactory& factory,
                               const ClosedLoopOptions& options) {
  struct Outstanding {
    sim::Addr block;
    uint64_t submitted_at;
  };
  const uint32_t workers = engine->database().n_partitions();
  std::vector<std::vector<Outstanding>> outstanding(workers);
  std::vector<uint64_t> remaining(workers, options.txns_per_worker);

  ClosedLoopResult result;
  result.chips.resize(engine->n_chips());
  sim::DramMemory* dram = &engine->simulator().dram();
  const auto wall_start = std::chrono::steady_clock::now();
  const uint64_t start_cycle = engine->now();
  const uint64_t deadline = start_cycle + options.max_cycles;
  const uint64_t target = uint64_t(workers) * options.txns_per_worker;
  uint64_t committed_total = 0;

  auto chip_of = [&](uint32_t w) -> ClosedLoopResult::ChipResult& {
    return result.chips[engine->ChipOf(w)];
  };
  auto refill = [&](db::WorkerId w) {
    while (outstanding[w].size() < options.inflight_per_worker &&
           remaining[w] > 0) {
      sim::Addr block = factory(w);
      engine->Submit(w, block);
      outstanding[w].push_back(Outstanding{block, engine->now()});
      ++chip_of(w).submitted;
      --remaining[w];
    }
  };
  for (uint32_t w = 0; w < workers; ++w) refill(w);

  while (committed_total < target && engine->now() < deadline) {
    engine->Step(options.check_quantum_cycles);
    for (uint32_t w = 0; w < workers; ++w) {
      auto& queue = outstanding[w];
      for (size_t i = 0; i < queue.size();) {
        db::TxnBlock block(dram, queue[i].block);
        db::TxnState state = block.state();
        if (state == db::TxnState::kCommitted) {
          chip_of(w).latency_cycles.Add(
              double(engine->now() - queue[i].submitted_at));
          ++chip_of(w).committed;
          ++committed_total;
          queue[i] = queue.back();
          queue.pop_back();
          continue;
        }
        if (state == db::TxnState::kAborted && options.retry_aborts) {
          // In-place retry, keeping the original submission time so the
          // measured latency is end-to-end across retries.
          block.set_state(db::TxnState::kPending);
          engine->Submit(w, queue[i].block);
          ++chip_of(w).retries;
        } else if (state == db::TxnState::kAborted) {
          ++chip_of(w).failed;
          queue[i] = queue.back();
          queue.pop_back();
          continue;
        }
        ++i;
      }
      refill(w);
    }
  }
  // Deadline wind-down: transactions still outstanding when max_cycles ran
  // out were submitted but will never be observed committing — count them
  // as failed instead of silently dropping them.
  if (committed_total < target) {
    for (uint32_t w = 0; w < workers; ++w) {
      chip_of(w).failed += outstanding[w].size();
    }
  }
  // Totals: sum the per-chip rows exactly once, and merge the per-chip
  // latency digests (count-weighted by construction — merging digests is
  // the only correct way to get a multi-chip p99; averaging per-chip p99s
  // is not). On one chip the merge into the empty summary is an exact
  // copy.
  for (const auto& chip : result.chips) {
    result.submitted += chip.submitted;
    result.committed += chip.committed;
    result.failed += chip.failed;
    result.retries += chip.retries;
    result.latency_cycles.MergeFrom(chip.latency_cycles);
  }
  result.cycles = engine->now() - start_cycle;
  result.tps =
      engine->options().timing.Throughput(result.committed, result.cycles);
  result.wall_seconds = SecondsSince(wall_start);
  CheckAccounting("RunClosedLoop", result.submitted,
                  result.committed + result.failed);
  return result;
}

OpenLoopResult RunOpenLoop(core::BionicDb* engine, const TxnFactory& factory,
                           const OpenLoopOptions& options) {
  struct Outstanding {
    sim::Addr block;
    uint64_t arrival;
  };
  const uint32_t workers = engine->database().n_partitions();
  const sim::TimingConfig& timing = engine->options().timing;
  ArrivalProcess arrivals(options.arrival, timing.clock_mhz);
  // Worker routing draws from its own seeded stream: a uniform split of a
  // Poisson process is again Poisson per worker, and the routing stays
  // independent of how the engine schedules the work.
  Rng route_rng(options.arrival.seed ^ 0xa02bdbf7bb3c0a7ULL);
  std::vector<std::deque<uint64_t>> queued(workers);  // arrival cycles
  std::vector<std::vector<Outstanding>> outstanding(workers);

  OpenLoopResult result;
  sim::DramMemory* dram = &engine->simulator().dram();
  const auto wall_start = std::chrono::steady_clock::now();
  const uint64_t start_cycle = engine->now();
  const uint64_t deadline = start_cycle + options.max_cycles;
  uint64_t next_arrival = options.total_txns > 0
                              ? start_cycle + arrivals.Next()
                              : UINT64_MAX;

  // Offers every arrival whose time has come: shed on a full queue,
  // enqueue otherwise. The recorded arrival cycle — not the quantum
  // boundary where the host notices it — anchors the latency measurement.
  auto admit_due = [&] {
    while (result.submitted < options.total_txns &&
           next_arrival <= engine->now()) {
      const auto w = db::WorkerId(route_rng.NextUint64(workers));
      ++result.submitted;
      if (queued[w].size() >= options.admission_queue_depth) {
        ++result.shed_queue_full;
      } else {
        queued[w].push_back(next_arrival);
        ++result.admitted;
      }
      next_arrival = result.submitted < options.total_txns
                         ? start_cycle + arrivals.Next()
                         : UINT64_MAX;
    }
  };

  // Sheds timed-out queue heads, then fills free hardware slots in arrival
  // order. Blocks are allocated only at dispatch, so shed transactions
  // never touch simulated DRAM.
  auto dispatch = [&](db::WorkerId w) {
    if (options.queue_timeout_cycles > 0) {
      while (!queued[w].empty() &&
             engine->now() - queued[w].front() >
                 options.queue_timeout_cycles) {
        queued[w].pop_front();
        ++result.shed_timeout;
      }
    }
    while (outstanding[w].size() < options.inflight_per_worker &&
           !queued[w].empty()) {
      const uint64_t arrival = queued[w].front();
      queued[w].pop_front();
      sim::Addr block = factory(w);
      engine->Submit(w, block);
      outstanding[w].push_back(Outstanding{block, arrival});
      ++result.dispatched;
    }
  };

  auto work_left = [&] {
    if (result.submitted < options.total_txns) return true;
    for (uint32_t w = 0; w < workers; ++w) {
      if (!queued[w].empty() || !outstanding[w].empty()) return true;
    }
    return false;
  };

  admit_due();
  for (uint32_t w = 0; w < workers; ++w) dispatch(w);
  while (work_left() && engine->now() < deadline) {
    engine->Step(options.check_quantum_cycles);
    admit_due();
    for (uint32_t w = 0; w < workers; ++w) {
      auto& slots = outstanding[w];
      for (size_t i = 0; i < slots.size();) {
        db::TxnBlock block(dram, slots[i].block);
        const db::TxnState state = block.state();
        if (state == db::TxnState::kCommitted) {
          result.latency_cycles.Add(double(engine->now() - slots[i].arrival));
          ++result.committed;
          slots[i] = slots.back();
          slots.pop_back();
          continue;
        }
        if (state == db::TxnState::kAborted && options.retry_aborts) {
          // In-place retry keeping the arrival time: the measured latency
          // stays end-to-end across retries.
          block.set_state(db::TxnState::kPending);
          engine->Submit(w, slots[i].block);
          ++result.retries;
        } else if (state == db::TxnState::kAborted) {
          ++result.failed;
          slots[i] = slots.back();
          slots.pop_back();
          continue;
        }
        ++i;
      }
      dispatch(w);
    }
  }
  // Deadline wind-down: in-flight transactions failed; still-queued ones
  // are shed (their wait effectively timed out with the run).
  for (uint32_t w = 0; w < workers; ++w) {
    result.failed += outstanding[w].size();
    result.shed_timeout += queued[w].size();
  }
  result.shed = result.shed_queue_full + result.shed_timeout;
  result.cycles = engine->now() - start_cycle;
  result.offered_tps = timing.Throughput(result.submitted, result.cycles);
  result.goodput_tps = timing.Throughput(result.committed, result.cycles);
  result.wall_seconds = SecondsSince(wall_start);
  CheckAccounting("RunOpenLoop", result.submitted,
                  result.committed + result.failed + result.shed);
  return result;
}

void RecordOpenLoopStats(const OpenLoopResult& result, StatsScope scope,
                         bool include_wall_clock) {
  scope.SetCounter("submitted", result.submitted);
  scope.SetCounter("admitted", result.admitted);
  scope.SetCounter("dispatched", result.dispatched);
  scope.SetCounter("committed", result.committed);
  scope.SetCounter("failed", result.failed);
  scope.SetCounter("shed", result.shed);
  scope.SetCounter("shed_queue_full", result.shed_queue_full);
  scope.SetCounter("shed_timeout", result.shed_timeout);
  scope.SetCounter("retries", result.retries);
  scope.SetCounter("cycles", result.cycles);
  scope.SetGauge("offered_tps", result.offered_tps);
  scope.SetGauge("goodput", result.goodput_tps);
  scope.SetGauge("latency/p50", result.latency_cycles.Quantile(0.5));
  scope.SetGauge("latency/p99", result.latency_cycles.Quantile(0.99));
  scope.SetGauge("latency/p999", result.latency_cycles.Quantile(0.999));
  scope.SetSummary("latency_cycles", result.latency_cycles);
  if (include_wall_clock) {
    scope.SetGauge("wall_seconds", result.wall_seconds);
    scope.SetGauge("sim_cycles_per_second", result.SimCyclesPerSecond());
  }
}

std::vector<SweepResult> RunSweep(std::vector<SweepJob> jobs,
                                  uint32_t max_hosts) {
  std::vector<SweepResult> results(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) results[i].label = jobs[i].label;
  ParallelFor(jobs.size(), max_hosts,
              [&](size_t i) { jobs[i].run(&results[i].stats); });
  return results;
}

}  // namespace bionicdb::host
