// Base interface for hardware blocks driven by the cycle engine.
#ifndef BIONICDB_SIM_COMPONENT_H_
#define BIONICDB_SIM_COMPONENT_H_

#include <cstdint>
#include <string>

namespace bionicdb::sim {

class Simulator;

/// Wake hint meaning "nothing on this block's own schedule": in event-driven
/// mode the block sleeps until it is touched (Touch) or its DRAM lane
/// delivers a completion.
inline constexpr uint64_t kNeverWakes = UINT64_MAX;

/// A clocked hardware block. In per-cycle mode the simulator calls Tick
/// exactly once per simulated cycle, in registration order; all
/// inter-component communication flows through queues, so ordering within
/// a cycle never creates non-determinism visible across runs. In
/// event-driven mode each block is scheduled on its own (see
/// NextWakeCycle): it ticks only at cycles where it is due, keeps its
/// registration-order turn within those cycles, and the cycles in between
/// are charged through SkipCycles.
class Component {
 public:
  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// Advances this block by one cycle.
  virtual void Tick(uint64_t cycle) = 0;

  /// True when the block has no outstanding work (used for drain detection
  /// and the simulator's per-block busy/idle sample).
  virtual bool Idle() const = 0;

  /// Event-driven scheduling hint, queried right after this block's own
  /// Tick(now), and whenever the simulator re-reads its whole schedule (the
  /// first Step after AddComponent, FastForward, RunUntil or RunUntilIdle,
  /// and after each RunUntil predicate): the earliest future cycle at which
  /// ticking this block could do anything beyond the per-cycle accounting
  /// that SkipCycles bulk-applies. The contract:
  ///
  ///   * A block may return `w > now + 1` only if Tick(c) for every cycle
  ///     c in (now, w) would leave all externally visible state unchanged,
  ///     EXCEPT for per-cycle counters/telemetry which the block must
  ///     reproduce exactly in SkipCycles. "Externally visible" includes
  ///     DRAM traffic (a retried Issue bumps reject counters, so retry
  ///     states must return now + 1).
  ///   * The hint may assume that nothing outside the block changes it
  ///     while it sleeps, except through the two wake paths: a Touch, and
  ///     a delivering completion on the DRAM lane the block issues on (a
  ///     response pushed into a queue, or a write applied at completion; a
  ///     posted completion delivers nothing and wakes nobody). Host code
  ///     is no exception: between Step calls it must Touch any registered
  ///     block it changes, because Step reuses the cached schedule. Every
  ///     other block keeps ticking meanwhile, so the hint must not rely on
  ///     their wake points.
  ///   * kNeverWakes means the block has no self-driven activity left and
  ///     waits for one of those wake paths.
  ///   * The default (now + 1) opts out of skipping entirely, so blocks
  ///     that have not been audited remain cycle-exact.
  virtual uint64_t NextWakeCycle(uint64_t now) const { return now + 1; }

  /// Bulk-applies the per-cycle accounting Tick would have performed for
  /// the skipped cycles now+1 .. now+count (all within this block's
  /// advertised quiescent span). Must leave the block in exactly the state
  /// that `count` real Ticks would have, including stall-attribution
  /// counters and per-tick flags read by enclosing blocks. The simulator
  /// may split one quiescent span into several calls, so two calls over
  /// adjacent spans must equal one call over their union.
  virtual void SkipCycles(uint64_t now, uint64_t count) {
    (void)now;
    (void)count;
  }

  /// Declares that this block is about to be changed from outside its own
  /// Tick (a packet put into its inbox, a freeze, a submitted block or
  /// op), whether by another block's tick or by host code between run
  /// calls. Call it before the change: the simulator first charges the
  /// block's skipped cycles against its pre-change state, then makes it
  /// due at its next turn — this cycle if its turn has not come yet, else
  /// the next one. A no-op for unregistered blocks and in per-cycle mode.
  void Touch() {
    if (scheduler_ != nullptr) TouchScheduled();
  }

  const std::string& name() const { return name_; }

 private:
  friend class Simulator;

  /// Touch's event-driven path (simulator.cc).
  void TouchScheduled();

  std::string name_;
  /// Set by Simulator::AddComponent in event-driven mode: the scheduler
  /// and this block's slot in its per-block arrays.
  Simulator* scheduler_ = nullptr;
  uint32_t slot_ = 0;
};

}  // namespace bionicdb::sim

#endif  // BIONICDB_SIM_COMPONENT_H_
