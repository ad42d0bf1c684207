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
///  * Event-driven (TimingConfig::event_driven, the default): every
///    registered block is scheduled on its own. A block ticks only at
///    cycles where it is due — its NextWakeCycle hint has come, another
///    block touched it (Component::Touch), or its DRAM lane delivers —
///    and keeps its registration-order turn within such a cycle. The
///    schedule (each block's wake cycle and Idle() sample) carries over
///    from one Step to the next; it is re-read from every block only on
///    the first Step after AddComponent, FastForward, RunUntil or
///    RunUntilIdle. A sleeping block is settled lazily: its SkipCycles and
///    its cached busy/idle sample are charged when it next ticks, when it
///    is touched, when its lane wakes it, or when something reads the
///    accounting (SettleAll). The clock jumps straight to the earliest
///    block wake or DRAM completion, so cycles in which no block is due
///    cost nothing.
///
///  * Per-cycle (event_driven = false): each registered component ticks
///    every cycle, in registration order, after DRAM delivers completions
///    (so responses are visible to blocks in the same cycle). Kept as the
///    reference the differential suites compare event-driven runs against.
class Simulator {
 public:
  explicit Simulator(const TimingConfig& config = TimingConfig());

  /// Registers a block that belongs to no partition (the fabric, the fault
  /// scheduler); it ticks under the host partition context. Such a block
  /// issues no timed DRAM: no lane delivery wakes it in event-driven mode.
  /// The simulator does not take ownership, and a registered block must
  /// not be touched after its simulator is destroyed.
  void AddComponent(Component* component);

  /// Registers a block belonging to partition `partition`: it ticks under
  /// that partition's DramMemory context, so its allocations and timed
  /// accesses use the partition's arena and lane, and every delivering
  /// completion on that lane wakes it (see Component::NextWakeCycle). A
  /// block that issues timed DRAM registers here; on an unpartitioned
  /// memory, partition 0 routes to the one arena and lane.
  void AddComponent(Component* component, uint32_t partition);

  /// Runs `cycles` cycles. Event-driven, it returns with sleeping blocks
  /// unsettled: their skipped cycles are charged later (see SettleAll).
  /// Host code that changes a registered block before the next Step must
  /// touch it (Component::Touch).
  void Step(uint64_t cycles = 1);

  /// Runs until `done()` returns true or `max_cycles` elapse.
  /// Returns true if `done` fired (false = cycle budget exhausted).
  /// In event-driven mode (the default) `done` must be a function of
  /// component/DRAM state, not of now(): it is evaluated once per cycle in
  /// which some block may have ticked, with every block settled, and those
  /// are the only cycles where component state can change. `done` may
  /// change blocks (submit work); the simulator re-reads every hint after
  /// it. To stop at a cycle, use Step or the `max_cycles` budget. Returns
  /// with every block settled.
  bool RunUntil(const std::function<bool()>& done,
                uint64_t max_cycles = UINT64_MAX);

  /// Runs until every component and the DRAM report Idle (or budget).
  /// Returns with every block settled.
  bool RunUntilIdle(uint64_t max_cycles = UINT64_MAX);

  /// Charges every sleeping block's skipped cycles through now(): its
  /// SkipCycles and its cached busy/idle sample. Blocks' own per-cycle
  /// counters and component_cycles() are exact only after a settle.
  /// CollectStats, component_cycles(), FastForward, RunUntil and
  /// RunUntilIdle settle for their callers; code that reads a block's
  /// counters straight after Step calls this first. A no-op in per-cycle
  /// mode, where every tick charges its own cycle.
  void SettleAll();

  uint64_t now() const { return now_; }

  /// Jumps the clock forward without ticking (used by recovery to
  /// re-initialise the hardware clock past the latest commit timestamp,
  /// paper section 4.8). Requires target >= now(); a backwards target is
  /// clamped (the clock never moves back) and counted under the
  /// "fastforward_backwards_clamped" counter so callers violating the
  /// precondition are visible in the stats dump. Blocks are settled first;
  /// the jumped cycles are charged to no block.
  void FastForward(uint64_t target);
  DramMemory& dram() { return dram_; }
  const TimingConfig& config() const { return config_; }
  CounterSet& counters() { return counters_; }

  /// Busy/idle cycle attribution for one registered component. A cycle is
  /// "busy" when the component reported outstanding work (!Idle()) after
  /// its tick — the coarse per-block utilisation view; finer stall
  /// attribution lives inside the blocks themselves. Settles first.
  struct ComponentCycles {
    uint64_t busy = 0;
    uint64_t idle = 0;
  };
  const std::vector<ComponentCycles>& component_cycles() {
    SettleAll();
    return component_cycles_;
  }
  const std::vector<Component*>& components() const { return components_; }

  /// Event-driven telemetry. Deliberately NOT part of CollectStats: stats
  /// must be bit-identical between modes (the differential tests compare
  /// the JSON), so host-side speedup data is exposed separately for the
  /// sim_speed harness.
  struct WarpStats {
    uint64_t warps = 0;           // clock jumps of more than one cycle
    uint64_t skipped_cycles = 0;  // cycles in which no block ticked
    uint64_t block_ticks = 0;     // real Tick calls, summed over blocks
  };
  const WarpStats& warp_stats() const { return warp_stats_; }

  /// Settles every block, then dumps simulator-level stats (clock,
  /// per-component busy/idle, DRAM channel utilisation) under `scope`.
  /// Settling first also makes every block's own counters exact for a
  /// caller that collects them next (core::BionicDb::CollectStats).
  void CollectStats(StatsScope scope);

 private:
  friend class Component;

  /// Per-cycle mode: DRAM delivers, then every block ticks.
  void TickOnce();

  // --- Event-driven scheduling -------------------------------------------

  /// Settles every block, then re-reads its Idle() sample, wake hint and
  /// DRAM lane: the first Step after AddComponent, FastForward, RunUntil
  /// or RunUntilIdle, and RunUntil after each `done()`.
  void Resync();
  /// Advances the clock to the next cycle that needs work — the earliest
  /// block wake or DRAM completion, or `limit` — and runs that cycle: the
  /// delivering lanes' blocks are settled and made due, the DRAM drains,
  /// and every due block ticks in registration order. Requires
  /// now_ < limit.
  void Advance(uint64_t limit);
  /// Charges block `i`'s skipped cycles through `through` (SkipCycles plus
  /// its cached busy/idle sample). Inline no-op when already settled.
  void Settle(size_t i, uint64_t through) {
    if (settled_[i] < through) SettleSpan(i, through);
  }
  void SettleSpan(size_t i, uint64_t through);
  /// A Step that reuses the schedule first checks it in debug builds: for
  /// every block that still has cycles to charge or to sleep through, the
  /// cached Idle() sample must equal Idle() and the cached wake must not be
  /// later than its hint. A failure aborts naming the block, which host
  /// code changed without touching it.
#ifdef NDEBUG
  void CheckSchedule() const {}
#else
  void CheckSchedule() const;
#endif
  /// Component::Touch for slot `i` (contract in sim/component.h).
  void Touch(size_t i);

  /// The RunUntilIdle predicate: every component and the DRAM are idle.
  bool AllIdle() const;

  TimingConfig config_;
  DramMemory dram_;
  std::vector<Component*> components_;
  /// Partition context each component ticks under
  /// (DramMemory::kHostPartition for blocks outside any partition).
  std::vector<uint32_t> partition_of_;
  std::vector<ComponentCycles> component_cycles_;
  // Event-driven per-block state, parallel to components_: the cycle the
  // block next ticks at, the last cycle it has been charged through (by a
  // tick or a settle), its last Idle() sample, and the DRAM lane whose
  // deliveries wake it (kNoLane for a block outside every partition).
  std::vector<uint64_t> wake_;
  std::vector<uint64_t> settled_;
  std::vector<uint8_t> idle_sample_;
  std::vector<uint32_t> lane_of_;
  static constexpr uint32_t kNoLane = UINT32_MAX;
  /// The schedule above must be re-read before the next Step uses it.
  bool resync_due_ = true;
  /// Slot whose turn the current cycle is at; components_.size() outside
  /// the block loop (every turn of the cycle is over).
  size_t turn_ = 0;
  uint64_t now_ = 0;
  /// Quiescence of the whole machine as of the end of the last TickOnce
  /// (see TickOnce; consumed by RunUntilIdle's loop).
  bool all_idle_after_tick_ = false;
  WarpStats warp_stats_;
  CounterSet counters_;
};

}  // namespace bionicdb::sim

#endif  // BIONICDB_SIM_SIMULATOR_H_
