// Host-side benchmark driver.
//
// The host CPU's runtime role in BionicDB is thin (paper section 4.2):
// populate input transaction blocks, signal the FPGA, and collect results.
// This driver adds the one policy the hardware does not implement — client
// retry of transactions aborted by concurrency control — and the
// measurement plumbing every bench binary shares.
#ifndef BIONICDB_HOST_DRIVER_H_
#define BIONICDB_HOST_DRIVER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/engine.h"
#include "db/txn_block.h"
#include "host/arrival.h"

namespace bionicdb::host {

struct RunResult {
  uint64_t submitted = 0;
  uint64_t committed = 0;
  /// Transactions still aborted after the retry budget, or stuck mid-flight
  /// when a Drain cycle budget ran out. submitted == committed + failed
  /// holds on return — the driver aborts the process if its accounting
  /// ever breaks that invariant.
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t cycles = 0;
  double tps = 0;
  /// Host wall-clock seconds spent simulating this run (simulator speed
  /// instrumentation — not a property of the simulated hardware).
  double wall_seconds = 0;

  /// Committed transactions per second at the engine clock.
  double Mtps() const { return tps / 1e6; }
  /// Host-side simulation speed (simulated cycles per wall second).
  double SimCyclesPerSecond() const {
    return wall_seconds > 0 ? double(cycles) / wall_seconds : 0;
  }
};

/// One queued transaction: which worker's input queue it enters.
using TxnList = std::vector<std::pair<db::WorkerId, sim::Addr>>;

/// Submits every transaction, drains the engine, and (optionally) retries
/// aborted blocks — resetting them to pending so they re-execute with a
/// fresh timestamp — until all commit or `max_rounds` passes elapse.
/// Returns committed-throughput statistics over the elapsed cycles.
RunResult RunToCompletion(core::BionicDb* engine, const TxnList& txns,
                          bool retry_aborts = true, uint32_t max_rounds = 50);

// --- Closed-loop driving with latency measurement -------------------------

/// Produces the next transaction block for `worker` (a fresh allocation per
/// call).
using TxnFactory = std::function<sim::Addr(db::WorkerId)>;

struct ClosedLoopOptions {
  /// Outstanding transactions the "client" keeps per worker (the offered
  /// load; 1 = pure latency measurement, large = throughput measurement).
  uint32_t inflight_per_worker = 4;
  uint64_t txns_per_worker = 500;
  /// Simulation quantum between completion checks; bounds the latency
  /// measurement resolution.
  uint64_t check_quantum_cycles = 50;
  bool retry_aborts = true;
  uint64_t max_cycles = 4ull << 30;
};

struct ClosedLoopResult {
  /// Transactions the loop handed to the engine (distinct blocks; in-place
  /// retries of an aborted block are counted under `retries` instead).
  uint64_t submitted = 0;
  uint64_t committed = 0;
  /// Transactions dropped from the closed loop: still aborted with
  /// retry_aborts off, or still unfinished (queued, running, or mid-retry)
  /// when max_cycles ran out. submitted == committed + failed always holds
  /// on return — the driver aborts the process if its own accounting ever
  /// breaks that invariant.
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t cycles = 0;
  double tps = 0;
  /// Host wall-clock seconds spent simulating this run.
  double wall_seconds = 0;
  /// End-to-end commit latency per transaction in cycles (submission to
  /// observed commit, across retries), with quantiles.
  Summary latency_cycles;

  /// One row per chip of the engine (core::BionicDb::n_chips), holding
  /// the outcomes of the transactions its workers ran. The totals above
  /// are the sums of these rows, counted exactly once, and
  /// `latency_cycles` is the count-weighted merge (Summary::MergeFrom) of
  /// the per-chip summaries — merging the digests, never averaging
  /// per-chip quantiles. submitted == committed + failed holds per chip.
  struct ChipResult {
    uint64_t submitted = 0;
    uint64_t committed = 0;
    uint64_t failed = 0;
    uint64_t retries = 0;
    Summary latency_cycles;
  };
  std::vector<ChipResult> chips;

  /// Host-side simulation speed (simulated cycles per wall second).
  double SimCyclesPerSecond() const {
    return wall_seconds > 0 ? double(cycles) / wall_seconds : 0;
  }
};

/// Drives the engine like a closed-loop client: keeps `inflight_per_worker`
/// transactions outstanding per worker, measures each transaction's commit
/// latency, retries aborts in place, and attributes every outcome to the
/// chip of the worker that ran it. This is the throughput/latency-curve
/// harness (the open-loop RunToCompletion measures throughput only, since
/// pre-queued blocks spend arbitrary time waiting in the input queue).
ClosedLoopResult RunClosedLoop(core::BionicDb* engine,
                               const TxnFactory& factory,
                               const ClosedLoopOptions& options);

// --- Open-loop driving with admission control -----------------------------

struct OpenLoopOptions {
  /// Arrival process (Poisson or bursty MMPP) and offered load.
  ArrivalOptions arrival;
  /// Total transactions the client offers before the run winds down.
  uint64_t total_txns = 2000;
  /// Bounded per-worker admission queue: an arrival finding its worker's
  /// queue full is shed immediately (counted, never executed).
  uint32_t admission_queue_depth = 64;
  /// Hardware-side outstanding blocks per worker; queued transactions wait
  /// in the admission queue until a slot frees (that wait is part of the
  /// measured latency).
  uint32_t inflight_per_worker = 8;
  /// Shed a queued transaction once its wait exceeds this (0 = no timeout).
  uint64_t queue_timeout_cycles = 0;
  /// Simulation quantum between arrival/completion checks; bounds both the
  /// admission resolution and the latency measurement resolution.
  uint64_t check_quantum_cycles = 50;
  bool retry_aborts = true;
  uint64_t max_cycles = 4ull << 30;
};

struct OpenLoopResult {
  /// Arrivals the client offered to the system (admitted or not).
  uint64_t submitted = 0;
  /// Arrivals that entered an admission queue (submitted - shed_queue_full).
  uint64_t admitted = 0;
  /// Admitted transactions handed to the hardware input queues.
  uint64_t dispatched = 0;
  uint64_t committed = 0;
  /// Dispatched transactions that did not commit: still aborted with
  /// retry_aborts off, or in flight when max_cycles ran out.
  uint64_t failed = 0;
  /// Load-shedding total (= shed_queue_full + shed_timeout). The driver
  /// aborts the process unless submitted == committed + failed + shed on
  /// return.
  uint64_t shed = 0;
  uint64_t shed_queue_full = 0;
  /// Queued longer than queue_timeout_cycles, or still queued at the
  /// max_cycles deadline.
  uint64_t shed_timeout = 0;
  uint64_t retries = 0;
  uint64_t cycles = 0;
  /// Measured offered / committed rates over the elapsed cycles (0 when no
  /// cycles elapsed — a zero-arrival run divides nothing).
  double offered_tps = 0;
  double goodput_tps = 0;
  /// Host wall-clock seconds spent simulating this run.
  double wall_seconds = 0;
  /// Arrival-to-commit latency in cycles — from the generated arrival
  /// instant (not admission, not dispatch), so admission-queue wait is
  /// included. p999 is tail-exact via the Summary's bucketed path.
  Summary latency_cycles;

  /// Host-side simulation speed (simulated cycles per wall second).
  double SimCyclesPerSecond() const {
    return wall_seconds > 0 ? double(cycles) / wall_seconds : 0;
  }
};

/// Drives the engine open-loop: transactions arrive on the seeded timeline
/// of `options.arrival` regardless of how the engine keeps up, wait in a
/// bounded per-worker admission queue (or are shed), and are dispatched to
/// the hardware as inflight slots free. Deterministic for a fixed option
/// set: the arrival timeline, worker routing and every reported stat are
/// bit-identical across the simulator's per-cycle and event-driven modes.
OpenLoopResult RunOpenLoop(core::BionicDb* engine, const TxnFactory& factory,
                           const OpenLoopOptions& options);

/// Writes the open-loop run metrics under `scope` (the "run/..." subtree of
/// a bench report): counters, offered/goodput rates, and the latency
/// summary plus explicit latency/p50|p99|p999 gauges. Wall-clock fields
/// (wall_seconds, sim_cycles_per_second) are host measurement provenance,
/// not simulated results; `include_wall_clock = false` lets determinism
/// tests compare the simulated portion byte-for-byte.
void RecordOpenLoopStats(const OpenLoopResult& result, StatsScope scope,
                         bool include_wall_clock = true);

// --- Fleet-scale sweep fan-out -------------------------------------------

/// One sweep configuration: `run` builds its own engine, drives the
/// workload, and writes everything the report should carry for this point
/// into the registry. The body must be self-contained (no shared mutable
/// state with other jobs) — each job owns a full simulated machine.
struct SweepJob {
  std::string label;
  std::function<void(StatsRegistry*)> run;
};

/// One finished sweep point, in job order.
struct SweepResult {
  std::string label;
  StatsRegistry stats;
};

/// Runs every job, fanning out across host cores through ParallelFor
/// (common/parallel.h): the calling thread is worker 0 and spawned threads
/// claim jobs from a shared cursor, so an N-point sweep costs
/// max(points/cores) engine runs of wall clock instead of their sum. Each
/// engine ticks on one thread, and independent engines run side by side.
/// Results come back in job order regardless of completion order, and each
/// job's registry is written only by the thread that ran it, so a sweep's
/// merged report is deterministic for a fixed job list. `max_hosts` caps
/// the fan-out (0 = all hardware threads). A job that throws stops further
/// claims; once every thread has joined, the lowest-index job's exception
/// is rethrown here. A job's engine populates its partitions serially,
/// since it already runs inside the sweep's parallel loop.
std::vector<SweepResult> RunSweep(std::vector<SweepJob> jobs,
                                  uint32_t max_hosts = 0);

}  // namespace bionicdb::host

#endif  // BIONICDB_HOST_DRIVER_H_
