// Deterministic fault injection for the BionicDB simulator.
//
// The FaultScheduler is a regular sim::Component ticked once per cycle by
// the simulator; every fault decision flows from two seeded xorshift
// streams (one advanced per tick for the event schedule, one advanced per
// packet for comm faults), so a chaos run replays bit-for-bit from a single
// seed. It implements the victim layers' hook interfaces directly:
//
//  * sim::DramFaultHook   — transient per-channel latency-spike windows,
//    stuck-busy windows, and single-bit flips in the CRC32-guarded region
//    of stored tuples (header shape bytes + key). Corruption is DETECTED
//    by the index pipelines (CpStatus::kCorrupted -> txn abort), never a
//    silent wrong answer.
//  * comm::ChannelFaultHook — per-packet drop / duplicate / delay
//    decisions, countered by the fabric's ack/retransmit/dedup layer
//    (Attach auto-enables it when comm fault rates are nonzero, since a
//    dropped packet would otherwise hang the drain loop).
//  * worker freezes — a PartitionWorker skips every cycle until a deadline.
//
// Every injected event is recorded; ScheduleDigest() folds the recorded
// schedule into a CRC32 so two runs can assert byte-identical fault
// schedules. All hooks are pay-nothing when the scheduler is not attached.
#ifndef BIONICDB_FAULT_FAULT_H_
#define BIONICDB_FAULT_FAULT_H_

#include <cstdint>
#include <map>
#include <vector>

#include "comm/channels.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/engine.h"
#include "sim/component.h"
#include "sim/memory.h"

namespace bionicdb::fault {

/// Fault rates and shapes. All rates default to zero = that class disabled.
struct FaultConfig {
  uint64_t seed = 1;

  // --- DRAM faults (per channel, per cycle) -----------------------------
  /// Probability a transient latency-spike window opens on a channel.
  double dram_spike_rate = 0;
  /// Extra service latency while a spike window is open.
  uint64_t dram_spike_extra_cycles = 64;
  /// Spike window length.
  uint64_t dram_spike_duration = 256;
  /// Probability a channel wedges (rejects all admissions) for a window.
  double dram_stuck_rate = 0;
  uint64_t dram_stuck_duration = 512;

  // --- Tuple corruption (per cycle) -------------------------------------
  /// Probability of flipping one random bit in the guarded region (header
  /// shape bytes + key) of one random guarded tuple.
  double bitflip_rate = 0;

  // --- Comm faults (per transmitted packet) -----------------------------
  double comm_drop_rate = 0;
  double comm_dup_rate = 0;
  double comm_delay_rate = 0;
  uint64_t comm_delay_cycles = 64;
  /// Message-class filter for comm faults: bit c makes MessageClass c
  /// eligible (0 = every class eligible, the default). Masked-out packets
  /// return the no-fault decision before any RNG draw, so a masked run's
  /// packet stream consumes randomness only for the targeted classes —
  /// the 2PC fault tests use this to aim drops/dups at PrepareAck or
  /// CommitReq without perturbing the index/memory traffic underneath.
  uint32_t comm_class_mask = 0;

  // --- Worker faults (per cycle) ----------------------------------------
  /// Probability a random worker freezes for `worker_freeze_cycles`.
  double worker_freeze_rate = 0;
  uint64_t worker_freeze_cycles = 1024;

  bool dram_faults_enabled() const {
    return dram_spike_rate > 0 || dram_stuck_rate > 0;
  }
  bool comm_faults_enabled() const {
    return comm_drop_rate > 0 || comm_dup_rate > 0 || comm_delay_rate > 0;
  }
  bool any_enabled() const {
    return dram_faults_enabled() || comm_faults_enabled() ||
           bitflip_rate > 0 || worker_freeze_rate > 0;
  }
};

/// One recorded injection. `a`/`b` are kind-specific operands (channel and
/// window end, tuple address and bit index, src and dst worker, ...).
struct FaultEvent {
  enum class Kind : uint8_t {
    kDramSpike = 0,
    kDramStuck = 1,
    kBitFlip = 2,
    kCommDrop = 3,
    kCommDup = 4,
    kCommDelay = 5,
    kWorkerFreeze = 6,
    kCrash = 7,
  };
  uint64_t cycle = 0;
  Kind kind = Kind::kDramSpike;
  uint64_t a = 0;
  uint64_t b = 0;
};

const char* FaultEventKindName(FaultEvent::Kind kind);

class FaultScheduler : public sim::Component,
                       public sim::DramFaultHook,
                       public comm::ChannelFaultHook {
 public:
  explicit FaultScheduler(const FaultConfig& config);

  /// Wires this scheduler into an engine: installs the DRAM and channel
  /// hooks, registers as a simulator component, and — when comm faults are
  /// enabled — turns the fabric's reliability layer on (lossy channels
  /// without retransmission would hang Drain). Call before loading data if
  /// bit flips should be able to target bulk-loaded tuples.
  void Attach(core::BionicDb* engine);
  /// Uninstalls the hooks (the component registration stays; a detached
  /// scheduler ticks as a no-op). Used before tearing the engine down.
  void Detach();

  // sim::Component:
  void Tick(uint64_t cycle) override;
  bool Idle() const override { return true; }

  /// Event-driven scheduling hint: the earliest precomputed injection
  /// cycle across all fault streams (kNeverWakes when detached or fully
  /// disabled). Quiescent ticks are pure no-ops, so no SkipCycles needed.
  uint64_t NextWakeCycle(uint64_t now) const override;

  // sim::DramFaultHook:
  uint64_t ExtraLatency(uint64_t now, uint32_t channel) override;
  bool ChannelStuck(uint64_t now, uint32_t channel) override;
  void OnTupleAllocated(sim::Addr addr) override;
  bool VerifyTuple(sim::Addr addr) override;

  // comm::ChannelFaultHook:
  comm::FaultDecision OnPacket(uint64_t now, comm::MessageClass cls,
                               db::WorkerId src, db::WorkerId dst) override;

  /// Records a host-initiated crash (the harness kills the engine and runs
  /// recovery; the scheduler only logs it so the digest covers it).
  void RecordCrash(uint64_t cycle);

  /// Recomputes every registered tuple guard and returns the addresses
  /// whose stored bytes no longer match — i.e. corruption that WOULD be
  /// detected on access. A flipped tuple absent from this list would be a
  /// silent corruption (CRC failed to catch it); the chaos smoke test
  /// asserts that never happens.
  std::vector<sim::Addr> ScrubAll();

  /// Addresses whose guarded bytes were bit-flipped (deduplicated).
  const std::vector<sim::Addr>& flipped_tuples() const {
    return flipped_tuples_;
  }

  const std::vector<FaultEvent>& events() const { return events_; }

  /// CRC32 over the serialized event schedule: two runs with the same seed
  /// and workload must produce identical digests.
  uint32_t ScheduleDigest() const;

  /// Dumps `injected/<class>`, `detected/...` counters under `scope`
  /// (published by benches under the `fault/` namespace).
  void CollectStats(StatsScope scope) const;

  uint64_t guarded_tuples() const {
    uint64_t n = 0;
    for (const ArenaGuards& ag : arena_guards_) n += ag.guard_addrs.size();
    return n;
  }
  uint64_t corruption_checks() const {
    uint64_t n = 0;
    for (const ArenaGuards& ag : arena_guards_) n += ag.checks;
    return n;
  }
  uint64_t corruption_detected() const {
    uint64_t n = 0;
    for (const ArenaGuards& ag : arena_guards_) n += ag.detected;
    return n;
  }

 private:
  /// CRC32 over the tuple's immutable "shape" bytes (height, key_len,
  /// payload_len at [addr+17, addr+24)) and key bytes. Timestamps, flags
  /// and links are mutable during normal execution and deliberately
  /// excluded, so guards never need rewriting after registration.
  uint32_t ComputeGuard(sim::Addr addr) const;

  /// Flips one schedule-chosen bit inside the guarded region of a random
  /// guarded tuple.
  void FlipRandomBit(uint64_t cycle);

  /// Draws the next fire cycle after `from` for a per-cycle Bernoulli
  /// stream of probability `rate`, via geometric gap sampling (one RNG
  /// draw per event instead of one per cycle). This is what lets the
  /// scheduler advertise its schedule to the event-driven simulator; both
  /// simulation modes run the same precomputed schedule, so fault timing
  /// and digests are identical between them.
  uint64_t ScheduleNext(uint64_t from, double rate);

  FaultConfig config_;
  core::BionicDb* engine_ = nullptr;
  sim::DramMemory* dram_ = nullptr;

  Rng schedule_rng_;  // advanced once per scheduled event
  Rng packet_rng_;    // advanced once per transmitted packet

  struct ChannelWindows {
    uint64_t spike_until = 0;
    uint64_t stuck_until = 0;
    // Next scheduled injection per stream (kNeverWakes = stream disabled
    // or exhausted past the representable horizon).
    uint64_t spike_next = sim::kNeverWakes;
    uint64_t stuck_next = sim::kNeverWakes;
  };
  std::vector<ChannelWindows> channels_;
  uint64_t bitflip_next_ = sim::kNeverWakes;
  uint64_t freeze_next_ = sim::kNeverWakes;

  // Guard tables, one per DRAM arena. The vector gives O(1) random victim
  // selection; the map gives O(log n) verification (std::map keeps ScrubAll
  // order deterministic — arenas are disjoint ascending address ranges, so
  // arena-order iteration equals global address order). FlipRandomBit
  // indexes the arena-order concatenation of the guard vectors, so the
  // split also fixes which tuple a given seed's bit flip lands on.
  struct ArenaGuards {
    std::map<sim::Addr, uint32_t> guards;
    std::vector<sim::Addr> guard_addrs;
    uint64_t checks = 0;
    uint64_t detected = 0;
  };
  ArenaGuards& GuardsFor(sim::Addr addr);
  std::vector<ArenaGuards> arena_guards_;
  std::vector<sim::Addr> flipped_tuples_;

  std::vector<FaultEvent> events_;
  CounterSet counters_;
};

}  // namespace bionicdb::fault

#endif  // BIONICDB_FAULT_FAULT_H_
