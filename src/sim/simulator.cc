#include "sim/simulator.h"

#include <algorithm>

namespace bionicdb::sim {

// Adaptive wake polling (WarpBefore). A poll that finds nothing to skip
// walks every block's hint for nothing, and on dense stretches nearly every
// poll does. So each fruitless poll doubles the number of real ticks taken
// before the next one (1, 2, 4, ...) up to kMaxPollGap; a poll that warps
// resets the gap to zero (poll every cycle). The policy sees only poll
// results, never host time, so warp counts repeat exactly from run to run.
const uint64_t Simulator::kMaxPollGap = 8;

Simulator::Simulator(const TimingConfig& config)
    : config_(config), dram_(config) {
  // Typical machine: fabric + a handful of workers + fault scheduler.
  components_.reserve(16);
  partition_of_.reserve(16);
  component_cycles_.reserve(16);
  scratch_busy_.reserve(16);
}

void Simulator::AddComponent(Component* component) {
  // Flush first: scratch entries only cover components that existed for
  // every sampled tick since the last flush.
  FlushSamples();
  components_.push_back(component);
  partition_of_.push_back(DramMemory::kHostPartition);
  component_cycles_.emplace_back();
  scratch_busy_.push_back(0);
}

void Simulator::AddComponent(Component* component, uint32_t partition) {
  AddComponent(component);
  partition_of_.back() = partition;
}

void Simulator::TickOnce() {
  const uint64_t now = ++now_;
  dram_.Tick(now);
  ++scratch_ticks_;
  // Hot-loop state as flat arrays (component pointer, partition, busy
  // scratch), walked with raw pointers so the per-cycle loop reads three
  // parallel arrays instead of chasing vector headers per component.
  Component* const* comps = components_.data();
  const uint32_t* partition = partition_of_.data();
  uint64_t* busy = scratch_busy_.data();
  const size_t n = components_.size();
  // One save/restore of the DRAM's partition context brackets the whole
  // loop: each component ticks under its partition, so arena/lane routing
  // follows the component.
  const uint32_t saved = dram_.PartitionContext();
  bool any_busy = false;
  for (size_t i = 0; i < n; ++i) {
    dram_.SetPartitionContext(partition[i]);
    comps[i]->Tick(now);
    // Post-tick sample: a component with outstanding work this cycle is
    // charged as busy, otherwise idle (idle = ticks - busy, on flush).
    const bool b = !comps[i]->Idle();
    busy[i] += b ? 1 : 0;
    any_busy |= b;
  }
  dram_.SetPartitionContext(saved);
  // Cached quiescence for RunUntilIdle. The per-component samples above are
  // taken mid-loop, so a later tick can make an earlier component busy
  // again (a sender putting a packet on the already-ticked fabric's wire) —
  // but never the reverse: nothing a component does changes state another
  // component's Idle() reads toward idleness. A busy sample therefore
  // proves the machine is still running (skip the re-scan — the hot case),
  // while an all-idle sample must be confirmed with a full post-loop scan.
  all_idle_after_tick_ = !any_busy && AllIdle();
}

void Simulator::FlushSamples() const {
  if (scratch_ticks_ == 0) return;
  for (size_t i = 0; i < component_cycles_.size(); ++i) {
    component_cycles_[i].busy += scratch_busy_[i];
    component_cycles_[i].idle += scratch_ticks_ - scratch_busy_[i];
    scratch_busy_[i] = 0;
  }
  scratch_ticks_ = 0;
}

uint64_t Simulator::NextWakeCycle() const {
  uint64_t wake = dram_.NextWakeCycle(now_);
  for (const Component* c : components_) {
    if (wake <= now_ + 1) return now_ + 1;
    wake = std::min(wake, c->NextWakeCycle(now_));
  }
  // A hint at or before now_ would stall the clock; clamp it forward.
  return std::max(wake, now_ + 1);
}

void Simulator::WarpBefore(uint64_t limit) {
  // Skipping a poll only means ticking the next cycle for real, which is
  // always exact: the back-off trades skip opportunities, never results.
  if (poll_countdown_ > 0) {
    --poll_countdown_;
    return;
  }
  // Nothing can be skipped before the caller's last cycle: no poll.
  if (limit <= now_ + 1) return;
  const uint64_t wake = std::min(NextWakeCycle(), limit);
  if (wake <= now_ + 1) {
    poll_gap_ = std::min(std::max<uint64_t>(1, 2 * poll_gap_), kMaxPollGap);
    poll_countdown_ = poll_gap_;
    return;
  }
  poll_gap_ = 0;
  const uint64_t skip = wake - now_ - 1;
  // Bulk busy/idle sample: Idle() is constant across a quiescent span (no
  // block's externally visible state changes), so one post-skip probe
  // stands in for `skip` per-cycle samples.
  scratch_ticks_ += skip;
  for (size_t i = 0; i < components_.size(); ++i) {
    if (!components_[i]->Idle()) scratch_busy_[i] += skip;
    components_[i]->SkipCycles(now_, skip);
  }
  ++warp_stats_.warps;
  warp_stats_.skipped_cycles += skip;
  now_ += skip;
}

template <typename DoneFn>
bool Simulator::RunLoop(DoneFn&& done, uint64_t limit) {
  bool fired = true;
  if (config_.event_driven) {
    while (!done()) {
      if (now_ >= limit) {
        fired = false;
        break;
      }
      WarpBefore(limit);
      TickOnce();
    }
  } else {
    while (!done()) {
      if (now_ >= limit) {
        fired = false;
        break;
      }
      TickOnce();
    }
  }
  FlushSamples();
  return fired;
}

void Simulator::Step(uint64_t cycles) {
  const uint64_t target = now_ + cycles;
  if (config_.event_driven) {
    while (now_ < target) {
      WarpBefore(target);
      TickOnce();
    }
  } else {
    for (uint64_t i = 0; i < cycles; ++i) TickOnce();
  }
  FlushSamples();
}

bool Simulator::RunUntil(const std::function<bool()>& done,
                         uint64_t max_cycles) {
  uint64_t limit = (max_cycles == UINT64_MAX) ? UINT64_MAX : now_ + max_cycles;
  return RunLoop(done, limit);
}

bool Simulator::RunUntilIdle(uint64_t max_cycles) {
  uint64_t limit = (max_cycles == UINT64_MAX) ? UINT64_MAX : now_ + max_cycles;
  // The quiescence predicate between iterations is exactly the all-idle
  // flag TickOnce computed (no state changes between a tick and the next
  // loop top), so the per-cycle path avoids re-scanning every component's
  // virtual Idle() each cycle.
  if (AllIdle()) {
    FlushSamples();
    return true;
  }
  bool fired = true;
  if (config_.event_driven) {
    for (;;) {
      if (now_ >= limit) {
        fired = false;
        break;
      }
      WarpBefore(limit);
      TickOnce();
      if (all_idle_after_tick_) break;
    }
  } else {
    for (;;) {
      if (now_ >= limit) {
        fired = false;
        break;
      }
      TickOnce();
      if (all_idle_after_tick_) break;
    }
  }
  FlushSamples();
  return fired;
}

bool Simulator::AllIdle() const {
  if (!dram_.Idle()) return false;
  for (Component* c : components_) {
    if (!c->Idle()) return false;
  }
  return true;
}

void Simulator::CollectStats(StatsScope scope) const {
  FlushSamples();
  scope.SetCounter("cycles", now_);
  scope.SetGauge("clock_mhz", config_.clock_mhz);
  scope.MergeCounterSet(counters_);
  StatsScope comps = scope.Sub("components");
  for (size_t i = 0; i < components_.size(); ++i) {
    StatsScope c = comps.Sub(components_[i]->name());
    c.SetCounter("busy_cycles", component_cycles_[i].busy);
    c.SetCounter("idle_cycles", component_cycles_[i].idle);
  }
  dram_.CollectStats(scope.Sub("dram"), now_);
}

}  // namespace bionicdb::sim
