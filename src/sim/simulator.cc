#include "sim/simulator.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace bionicdb::sim {

void Component::TouchScheduled() { scheduler_->Touch(slot_); }

Simulator::Simulator(const TimingConfig& config)
    : config_(config), dram_(config) {
  // Typical machine: fabric + a handful of workers + fault scheduler.
  components_.reserve(16);
  partition_of_.reserve(16);
  component_cycles_.reserve(16);
  wake_.reserve(16);
  settled_.reserve(16);
  idle_sample_.reserve(16);
  lane_of_.reserve(16);
}

void Simulator::AddComponent(Component* component) {
  components_.push_back(component);
  partition_of_.push_back(DramMemory::kHostPartition);
  component_cycles_.emplace_back();
  // Charged from the next cycle on, like a block ticking from then on;
  // Resync fills in the rest before the block is scheduled.
  wake_.push_back(now_ + 1);
  settled_.push_back(now_);
  idle_sample_.push_back(1);
  lane_of_.push_back(kNoLane);
  turn_ = components_.size();
  resync_due_ = true;
  if (config_.event_driven) {
    component->scheduler_ = this;
    component->slot_ = uint32_t(components_.size() - 1);
  }
}

void Simulator::AddComponent(Component* component, uint32_t partition) {
  AddComponent(component);
  partition_of_.back() = partition;
}

void Simulator::FastForward(uint64_t target) {
  if (target < now_) {
    counters_.Add("fastforward_backwards_clamped");
    return;
  }
  SettleAll();
  now_ = target;
  std::fill(settled_.begin(), settled_.end(), target);
  resync_due_ = true;
}

void Simulator::TickOnce() {
  const uint64_t now = ++now_;
  dram_.Tick(now);
  // Hot-loop state as flat arrays (component pointer, partition, busy/idle
  // counts), walked with raw pointers so the per-cycle loop reads parallel
  // arrays instead of chasing vector headers per component.
  Component* const* comps = components_.data();
  const uint32_t* partition = partition_of_.data();
  ComponentCycles* cycles = component_cycles_.data();
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
    // charged as busy, otherwise idle. Integer adds, not a branch: the
    // sample alternates between blocks, which mispredicts.
    const bool b = !comps[i]->Idle();
    const uint64_t busy = b;
    cycles[i].busy += busy;
    cycles[i].idle += 1 - busy;
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

void Simulator::Resync() {
  // The re-read replaces cached samples, so charge every span against the
  // samples it was run under first.
  SettleAll();
  for (size_t i = 0; i < components_.size(); ++i) {
    Component* c = components_[i];
    lane_of_[i] = partition_of_[i] == DramMemory::kHostPartition
                      ? kNoLane
                      : dram_.LaneOf(partition_of_[i]);
    idle_sample_[i] = c->Idle() ? 1 : 0;
    wake_[i] = std::max(c->NextWakeCycle(now_), now_ + 1);
  }
}

void Simulator::SettleSpan(size_t i, uint64_t through) {
  const uint64_t from = settled_[i];
  const uint64_t count = through - from;
  // Nothing changed the block since `from` (a change would have touched it
  // or come from its lane, both of which settle first), so its Idle()
  // sample and SkipCycles accounting hold for the whole span.
  components_[i]->SkipCycles(from, count);
  ComponentCycles& cycles = component_cycles_[i];
  (idle_sample_[i] != 0 ? cycles.idle : cycles.busy) += count;
  settled_[i] = through;
}

void Simulator::SettleAll() {
  if (!config_.event_driven) return;  // per-cycle ticks charge as they go
  for (size_t i = 0; i < components_.size(); ++i) Settle(i, now_);
}

#ifndef NDEBUG
void Simulator::CheckSchedule() const {
  for (size_t i = 0; i < components_.size(); ++i) {
    // Due next cycle and charged through this one (a touched block, or one
    // that wants every cycle): its tick re-reads both before they are used.
    if (wake_[i] == now_ + 1 && settled_[i] == now_) continue;
    const Component* c = components_[i];
    const bool idle_ok = (idle_sample_[i] != 0) == c->Idle();
    const bool wake_ok =
        wake_[i] <= std::max(c->NextWakeCycle(now_), now_ + 1);
    if (!idle_ok || !wake_ok) {
      std::fprintf(stderr,
                   "sim: block '%s' changed between Step calls at cycle "
                   "%llu without Component::Touch (cached %s out of date)\n",
                   c->name().c_str(), (unsigned long long)now_,
                   idle_ok ? "wake hint" : "Idle() sample");
      std::abort();
    }
  }
}
#endif

void Simulator::Touch(size_t i) {
  if (i == turn_) return;  // its own tick: the hint is re-read after it
  if (i < turn_) {
    // Its turn this cycle is over (or no cycle is running): charge this
    // cycle against the old state and tick it next cycle.
    Settle(i, now_);
    wake_[i] = std::min(wake_[i], now_ + 1);
  } else {
    // Its turn is still to come: tick it this cycle.
    Settle(i, now_ - 1);
    wake_[i] = now_;
  }
}

void Simulator::Advance(uint64_t limit) {
  const size_t n = components_.size();
  uint64_t* wake = wake_.data();
  const uint64_t dram_wake = dram_.NextWakeCycle(now_);
  uint64_t next = std::min(dram_wake, limit);
  for (size_t i = 0; i < n; ++i) next = std::min(next, wake[i]);
  if (next > now_ + 1) {
    ++warp_stats_.warps;
    warp_stats_.skipped_cycles += next - now_ - 1;
  }
  const uint64_t now = now_ = next;
  if (dram_wake <= now) {
    // A delivering lane wakes every block that issues on it. Settle them
    // first: their skipped cycles belong to the pre-delivery state.
    for (size_t i = 0; i < n; ++i) {
      if (wake[i] > now && lane_of_[i] != kNoLane &&
          dram_.LaneDue(lane_of_[i], now)) {
        Settle(i, now - 1);
        wake[i] = now;
      }
    }
    dram_.Tick(now);
  }
  const uint32_t saved = dram_.PartitionContext();
  bool ticked = false;
  for (size_t i = 0; i < n; ++i) {
    if (wake[i] > now) continue;
    turn_ = i;
    Settle(i, now - 1);
    Component* c = components_[i];
    dram_.SetPartitionContext(partition_of_[i]);
    c->Tick(now);
    const uint64_t busy = !c->Idle();
    idle_sample_[i] = uint8_t(1 - busy);
    component_cycles_[i].busy += busy;
    component_cycles_[i].idle += 1 - busy;
    settled_[i] = now;
    wake[i] = std::max(c->NextWakeCycle(now), now + 1);
    ticked = true;
    ++warp_stats_.block_ticks;
  }
  turn_ = n;
  dram_.SetPartitionContext(saved);
  if (!ticked) ++warp_stats_.skipped_cycles;
}

void Simulator::Step(uint64_t cycles) {
  const uint64_t target = now_ + cycles;
  if (config_.event_driven) {
    // The schedule carries over from the last Step: host code between the
    // two changed blocks only through Touch (sim/component.h).
    if (resync_due_) {
      Resync();
      resync_due_ = false;
    } else {
      CheckSchedule();
    }
    while (now_ < target) Advance(target);
  } else {
    for (uint64_t i = 0; i < cycles; ++i) TickOnce();
  }
}

bool Simulator::RunUntil(const std::function<bool()>& done,
                         uint64_t max_cycles) {
  uint64_t limit = (max_cycles == UINT64_MAX) ? UINT64_MAX : now_ + max_cycles;
  if (config_.event_driven) {
    // `done` reads settled blocks and may change any of them, so every
    // hint is re-read after it, and again by the next Step.
    resync_due_ = true;
    for (;;) {
      SettleAll();
      if (done()) return true;
      if (now_ >= limit) return false;
      Resync();
      Advance(limit);
    }
  }
  while (!done()) {
    if (now_ >= limit) return false;
    TickOnce();
  }
  return true;
}

bool Simulator::RunUntilIdle(uint64_t max_cycles) {
  uint64_t limit = (max_cycles == UINT64_MAX) ? UINT64_MAX : now_ + max_cycles;
  // Drain callers resubmit work, so the next Step re-reads every hint.
  resync_due_ = true;
  if (AllIdle()) return true;
  bool fired = true;
  if (config_.event_driven) {
    Resync();
    for (;;) {
      if (now_ >= limit) {
        fired = false;
        break;
      }
      Advance(limit);
      // Same reasoning as TickOnce's cached quiescence: a busy sample
      // (fresh, or cached from a sleeping block, whose Idle() only its own
      // tick can turn true) proves the machine is running; all-idle
      // samples are confirmed with a full scan.
      if (std::find(idle_sample_.begin(), idle_sample_.end(), 0) ==
              idle_sample_.end() &&
          AllIdle()) {
        break;
      }
    }
    SettleAll();
    return fired;
  }
  // The quiescence predicate between iterations is exactly the all-idle
  // flag TickOnce computed (no state changes between a tick and the next
  // loop top), so the per-cycle path avoids re-scanning every component's
  // virtual Idle() each cycle.
  for (;;) {
    if (now_ >= limit) {
      fired = false;
      break;
    }
    TickOnce();
    if (all_idle_after_tick_) break;
  }
  return fired;
}

bool Simulator::AllIdle() const {
  if (!dram_.Idle()) return false;
  for (Component* c : components_) {
    if (!c->Idle()) return false;
  }
  return true;
}

void Simulator::CollectStats(StatsScope scope) {
  SettleAll();
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
