// The cycle engine: owns the clock, the DRAM, and every hardware block.
#ifndef BIONICDB_SIM_SIMULATOR_H_
#define BIONICDB_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.h"
#include "sim/component.h"
#include "sim/config.h"
#include "sim/memory.h"

namespace bionicdb::sim {

/// Deterministic cycle-driven simulator with two execution modes, both
/// producing bit-identical results (final clock, transaction outcomes,
/// every stat). Every block ticks on the calling host thread; host cores
/// are used by running independent simulators side by side
/// (host::RunSweep).
///
///  * Per-cycle (default): each registered component ticks every cycle, in
///    registration order, after DRAM delivers completions (so responses are
///    visible to blocks in the same cycle).
///
///  * Event-driven (TimingConfig::event_driven): quiescent spans — stretches
///    where every block's NextWakeCycle hint agrees nothing happens — are
///    skipped in one jump instead of ticked cycle by cycle. Skipped cycles
///    are bulk-charged through Component::SkipCycles so busy/idle sampling
///    and all stall-attribution counters stay bit-identical.
class Simulator {
 public:
  explicit Simulator(const TimingConfig& config = TimingConfig());

  /// Registers a block that belongs to no partition (the fabric, the fault
  /// scheduler); it ticks under the host partition context. The simulator
  /// does not take ownership.
  void AddComponent(Component* component);

  /// Registers a block belonging to partition `partition`: it ticks under
  /// that partition's DramMemory context, so its allocations and timed
  /// accesses use the partition's arena and lane.
  void AddComponent(Component* component, uint32_t partition);

  /// Runs `cycles` cycles.
  void Step(uint64_t cycles = 1);

  /// Runs until `done()` returns true or `max_cycles` elapse.
  /// Returns true if `done` fired (false = cycle budget exhausted).
  /// In event-driven mode `done` must be a function of component/DRAM
  /// state, not of now(): it is evaluated once per real tick, and real
  /// ticks are the only cycles where component state can change.
  bool RunUntil(const std::function<bool()>& done,
                uint64_t max_cycles = UINT64_MAX);

  /// Runs until every component and the DRAM report Idle (or budget).
  bool RunUntilIdle(uint64_t max_cycles = UINT64_MAX);

  uint64_t now() const { return now_; }

  /// Jumps the clock forward without ticking (used by recovery to
  /// re-initialise the hardware clock past the latest commit timestamp,
  /// paper section 4.8). Requires target >= now(); a backwards target is
  /// clamped (the clock never moves back) and counted under the
  /// "fastforward_backwards_clamped" counter so callers violating the
  /// precondition are visible in the stats dump.
  void FastForward(uint64_t target) {
    if (target < now_) {
      counters_.Add("fastforward_backwards_clamped");
      return;
    }
    now_ = target;
  }
  DramMemory& dram() { return dram_; }
  const TimingConfig& config() const { return config_; }
  CounterSet& counters() { return counters_; }

  /// Busy/idle cycle attribution for one registered component. A cycle is
  /// "busy" when the component reported outstanding work (!Idle()) after
  /// its tick — the coarse per-block utilisation view; finer stall
  /// attribution lives inside the blocks themselves.
  struct ComponentCycles {
    uint64_t busy = 0;
    uint64_t idle = 0;
  };
  const std::vector<ComponentCycles>& component_cycles() const {
    FlushSamples();
    return component_cycles_;
  }
  const std::vector<Component*>& components() const { return components_; }

  /// Event-driven warp telemetry. Deliberately NOT part of CollectStats:
  /// stats must be bit-identical between modes (the differential tests
  /// compare the JSON), so host-side speedup data is exposed separately
  /// for the sim_speed harness.
  struct WarpStats {
    uint64_t warps = 0;           // number of clock jumps taken
    uint64_t skipped_cycles = 0;  // cycles covered by jumps (never ticked)
  };
  const WarpStats& warp_stats() const { return warp_stats_; }

  /// Dumps simulator-level stats (clock, per-component busy/idle, DRAM
  /// channel utilisation) under `scope`.
  void CollectStats(StatsScope scope) const;

 private:
  void TickOnce();

  /// Minimum of all blocks' wake hints (clamped to > now_), with an
  /// early-out as soon as any block wants the very next cycle.
  uint64_t NextWakeCycle() const;

  /// Event-driven jump: if every block's next interesting cycle is past
  /// now_ + 1, advances the clock to just before min(wake, limit),
  /// bulk-charging the skipped cycles. `limit` is the last cycle the
  /// caller will still tick for real. Leaves now_ < limit so the caller's
  /// next TickOnce lands exactly on the wake (or limit) cycle.
  void WarpBefore(uint64_t limit);

  /// Folds the sampling scratch accumulated since the last flush into
  /// component_cycles_. Sampling goes through a scratch so the per-cycle
  /// hot loop touches one counter per component instead of read-modify-
  /// writing the busy/idle pair; flushed per Step/RunUntil call and
  /// lazily on read.
  void FlushSamples() const;

  /// Shared Step/RunUntil driver, templated so RunUntilIdle's predicate is
  /// a directly inlined lambda instead of a std::function indirection in
  /// the hot loop.
  template <typename DoneFn>
  bool RunLoop(DoneFn&& done, uint64_t limit);

  /// The RunUntilIdle predicate: every component and the DRAM are idle.
  bool AllIdle() const;

  TimingConfig config_;
  DramMemory dram_;
  std::vector<Component*> components_;
  /// Partition context each component ticks under
  /// (DramMemory::kHostPartition for blocks outside any partition).
  std::vector<uint32_t> partition_of_;
  // Mutable + scratch: samples accumulate in scratch_busy_/scratch_ticks_
  // during a run and fold into component_cycles_ on flush (also from const
  // readers, hence mutable).
  mutable std::vector<ComponentCycles> component_cycles_;
  mutable std::vector<uint64_t> scratch_busy_;
  mutable uint64_t scratch_ticks_ = 0;
  uint64_t now_ = 0;
  /// Quiescence of the whole machine as of the end of the last TickOnce
  /// (see TickOnce; consumed by RunUntilIdle's loop).
  bool all_idle_after_tick_ = false;
  WarpStats warp_stats_;
  CounterSet counters_;
};

}  // namespace bionicdb::sim

#endif  // BIONICDB_SIM_SIMULATOR_H_
