#include "fault/fault.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "db/tuple.h"

namespace bionicdb::fault {

const char* FaultEventKindName(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kDramSpike:
      return "dram_spike";
    case FaultEvent::Kind::kDramStuck:
      return "dram_stuck";
    case FaultEvent::Kind::kBitFlip:
      return "bit_flip";
    case FaultEvent::Kind::kCommDrop:
      return "comm_drop";
    case FaultEvent::Kind::kCommDup:
      return "comm_dup";
    case FaultEvent::Kind::kCommDelay:
      return "comm_delay";
    case FaultEvent::Kind::kWorkerFreeze:
      return "worker_freeze";
    case FaultEvent::Kind::kCrash:
      return "crash";
  }
  return "unknown";
}

FaultScheduler::FaultScheduler(const FaultConfig& config)
    : sim::Component("fault_scheduler"),
      config_(config),
      schedule_rng_(config.seed),
      packet_rng_(config.seed ^ 0x5DEECE66Dull) {}

void FaultScheduler::Attach(core::BionicDb* engine) {
  engine_ = engine;
  dram_ = &engine->simulator().dram();
  channels_.assign(engine->options().timing.dram_channels, ChannelWindows{});
  if (arena_guards_.size() < dram_->n_arenas()) {
    arena_guards_.resize(dram_->n_arenas());
  }
  // Precompute each stream's first fire (geometric gaps). Draw order is
  // fixed — per channel spike then stuck, then bitflip, then freeze — so a
  // seed maps to one schedule regardless of simulation mode.
  const uint64_t start = engine->simulator().now();
  for (ChannelWindows& cw : channels_) {
    if (config_.dram_spike_rate > 0) {
      cw.spike_next = ScheduleNext(start, config_.dram_spike_rate);
    }
    if (config_.dram_stuck_rate > 0) {
      cw.stuck_next = ScheduleNext(start, config_.dram_stuck_rate);
    }
  }
  if (config_.bitflip_rate > 0) {
    bitflip_next_ = ScheduleNext(start, config_.bitflip_rate);
  }
  if (config_.worker_freeze_rate > 0) {
    freeze_next_ = ScheduleNext(start, config_.worker_freeze_rate);
  }
  dram_->set_fault_hook(this);
  engine->fabric().set_fault_hook(this);
  if (config_.comm_faults_enabled() &&
      !engine->fabric().reliability().enabled) {
    engine->fabric().set_reliability(comm::ReliabilityConfig{.enabled = true});
  }
  engine->simulator().AddComponent(this);
}

void FaultScheduler::Detach() {
  if (engine_ == nullptr) return;
  Touch();  // its wake hint becomes kNeverWakes
  dram_->set_fault_hook(nullptr);
  engine_->fabric().set_fault_hook(nullptr);
  engine_ = nullptr;
  dram_ = nullptr;
}

uint64_t FaultScheduler::ScheduleNext(uint64_t from, double rate) {
  // Geometric gap between successes of a per-cycle Bernoulli(rate) draw:
  // P(gap = k) = (1-rate)^(k-1) * rate, sampled by inversion.
  const double u = schedule_rng_.NextDouble();  // in [0, 1)
  const double g = std::floor(std::log1p(-u) / std::log1p(-rate)) + 1.0;
  // NaN/inf/overflow (tiny rates can push the gap past uint64 range): the
  // stream never fires within the simulation horizon.
  if (!(g < 9e18)) return sim::kNeverWakes;
  uint64_t gap = uint64_t(g);
  if (gap < 1) gap = 1;
  const uint64_t next = from + gap;
  return next < from ? sim::kNeverWakes : next;
}

void FaultScheduler::Tick(uint64_t cycle) {
  if (engine_ == nullptr || !config_.any_enabled()) return;
  for (uint32_t ch = 0; ch < uint32_t(channels_.size()); ++ch) {
    ChannelWindows& cw = channels_[ch];
    while (cw.spike_next <= cycle) {
      const uint64_t at = cw.spike_next;
      cw.spike_until = at + config_.dram_spike_duration;
      counters_.Add("injected/dram_spike");
      events_.push_back(
          {at, FaultEvent::Kind::kDramSpike, ch, cw.spike_until});
      cw.spike_next = ScheduleNext(at, config_.dram_spike_rate);
    }
    while (cw.stuck_next <= cycle) {
      const uint64_t at = cw.stuck_next;
      cw.stuck_until = at + config_.dram_stuck_duration;
      counters_.Add("injected/dram_stuck");
      events_.push_back(
          {at, FaultEvent::Kind::kDramStuck, ch, cw.stuck_until});
      cw.stuck_next = ScheduleNext(at, config_.dram_stuck_rate);
    }
  }
  while (bitflip_next_ <= cycle) {
    const uint64_t at = bitflip_next_;
    // A fire with no guarded tuples yet injects nothing; the stream keeps
    // its cadence either way (mode-independent RNG consumption).
    if (guarded_tuples() > 0) FlipRandomBit(at);
    bitflip_next_ = ScheduleNext(at, config_.bitflip_rate);
  }
  while (freeze_next_ <= cycle) {
    const uint64_t at = freeze_next_;
    uint32_t w =
        uint32_t(schedule_rng_.NextUint64(engine_->options().n_workers));
    engine_->worker(w).FreezeUntil(at + config_.worker_freeze_cycles);
    counters_.Add("injected/worker_freeze");
    events_.push_back({at, FaultEvent::Kind::kWorkerFreeze, w,
                       config_.worker_freeze_cycles});
    freeze_next_ = ScheduleNext(at, config_.worker_freeze_rate);
  }
}

uint64_t FaultScheduler::NextWakeCycle(uint64_t now) const {
  if (engine_ == nullptr || !config_.any_enabled()) return sim::kNeverWakes;
  uint64_t wake = std::min(bitflip_next_, freeze_next_);
  for (const ChannelWindows& cw : channels_) {
    wake = std::min(wake, std::min(cw.spike_next, cw.stuck_next));
  }
  return wake > now ? wake : now + 1;
}

uint64_t FaultScheduler::ExtraLatency(uint64_t now, uint32_t channel) {
  if (channel >= channels_.size()) return 0;
  return now < channels_[channel].spike_until
             ? config_.dram_spike_extra_cycles
             : 0;
}

bool FaultScheduler::ChannelStuck(uint64_t now, uint32_t channel) {
  return channel < channels_.size() && now < channels_[channel].stuck_until;
}

FaultScheduler::ArenaGuards& FaultScheduler::GuardsFor(sim::Addr addr) {
  uint32_t arena = dram_->ArenaOf(addr);
  return arena_guards_[arena < arena_guards_.size() ? arena : 0];
}

void FaultScheduler::OnTupleAllocated(sim::Addr addr) {
  ArenaGuards& ag = GuardsFor(addr);
  auto [it, inserted] = ag.guards.emplace(addr, 0);
  it->second = ComputeGuard(addr);
  if (inserted) ag.guard_addrs.push_back(addr);
}

bool FaultScheduler::VerifyTuple(sim::Addr addr) {
  ArenaGuards& ag = GuardsFor(addr);
  auto it = ag.guards.find(addr);
  if (it == ag.guards.end()) return true;  // unguarded (pre-attach) tuple
  ++ag.checks;
  if (ComputeGuard(addr) == it->second) return true;
  // Counted per arena; CollectStats folds the per-arena totals into the
  // counter view.
  ++ag.detected;
  return false;
}

comm::FaultDecision FaultScheduler::OnPacket(uint64_t now,
                                             comm::MessageClass cls,
                                             db::WorkerId src,
                                             db::WorkerId dst) {
  // Digest compatibility: fault events encode the message direction, not
  // the full class — the schedule is a function of the packet stream's
  // request/response shape, which the envelope refactor preserves.
  const bool is_request = comm::IsRequestClass(cls);
  comm::FaultDecision fd;
  if (!config_.comm_faults_enabled()) return fd;
  if (config_.comm_class_mask != 0 &&
      (config_.comm_class_mask & (1u << uint32_t(cls))) == 0) {
    // Masked-out class: no fault, and no RNG consumed — the packet stream
    // of the targeted classes is independent of untargeted traffic volume.
    return fd;
  }
  if (config_.comm_drop_rate > 0 &&
      packet_rng_.NextBool(config_.comm_drop_rate)) {
    fd.drop = true;
    counters_.Add("injected/comm_drop");
    events_.push_back({now, FaultEvent::Kind::kCommDrop, src,
                       (uint64_t(dst) << 1) | (is_request ? 1 : 0)});
    return fd;
  }
  if (config_.comm_dup_rate > 0 &&
      packet_rng_.NextBool(config_.comm_dup_rate)) {
    fd.duplicate = true;
    counters_.Add("injected/comm_dup");
    events_.push_back({now, FaultEvent::Kind::kCommDup, src,
                       (uint64_t(dst) << 1) | (is_request ? 1 : 0)});
  }
  if (config_.comm_delay_rate > 0 &&
      packet_rng_.NextBool(config_.comm_delay_rate)) {
    fd.delay_cycles = config_.comm_delay_cycles;
    counters_.Add("injected/comm_delay");
    events_.push_back({now, FaultEvent::Kind::kCommDelay, src,
                       (uint64_t(dst) << 1) | (is_request ? 1 : 0)});
  }
  return fd;
}

void FaultScheduler::RecordCrash(uint64_t cycle) {
  counters_.Add("injected/crash");
  events_.push_back({cycle, FaultEvent::Kind::kCrash, 0, 0});
}

uint32_t FaultScheduler::ComputeGuard(sim::Addr addr) const {
  // Shape bytes: height (1), key_len (2), payload_len (4) at [addr+17, +24).
  uint8_t shape[7];
  dram_->ReadBytes(addr + 17, shape, sizeof shape);
  uint32_t crc = Crc32(shape, sizeof shape);
  db::TupleAccessor t(dram_, addr);
  uint16_t key_len = t.key_len();
  if (key_len > 0) {
    std::vector<uint8_t> key(key_len);
    dram_->ReadBytes(t.key_addr(), key.data(), key_len);
    crc = Crc32(key.data(), key_len, crc);
  }
  return crc;
}

void FaultScheduler::FlipRandomBit(uint64_t cycle) {
  // Victim index over the arena-order concatenation of the guard vectors
  // (see ArenaGuards).
  uint64_t idx = schedule_rng_.NextUint64(guarded_tuples());
  sim::Addr addr = sim::kNullAddr;
  for (const ArenaGuards& ag : arena_guards_) {
    if (idx < ag.guard_addrs.size()) {
      addr = ag.guard_addrs[idx];
      break;
    }
    idx -= ag.guard_addrs.size();
  }
  db::TupleAccessor t(dram_, addr);
  // Guarded region = 7 shape bytes + key bytes. Flipping outside it (links,
  // timestamps, payload) is not detectable by the shape guard and would be
  // either a wild pointer (crash, not corruption) or a payload error that a
  // commit-time payload checksum would own — out of scope here.
  uint16_t key_len = t.key_len();
  uint64_t region_bits = (7ull + key_len) * 8;
  uint64_t bit = schedule_rng_.NextUint64(region_bits);
  sim::Addr byte_addr = bit < 7 * 8 ? addr + 17 + bit / 8
                                    : t.key_addr() + (bit / 8 - 7);
  dram_->Write8(byte_addr, dram_->Read8(byte_addr) ^ uint8_t(1 << (bit % 8)));
  if (std::find(flipped_tuples_.begin(), flipped_tuples_.end(), addr) ==
      flipped_tuples_.end()) {
    flipped_tuples_.push_back(addr);
  }
  counters_.Add("injected/bit_flip");
  events_.push_back({cycle, FaultEvent::Kind::kBitFlip, addr, bit});
}

std::vector<sim::Addr> FaultScheduler::ScrubAll() {
  std::vector<sim::Addr> corrupted;
  for (const ArenaGuards& ag : arena_guards_) {
    for (const auto& [addr, crc] : ag.guards) {
      if (ComputeGuard(addr) != crc) corrupted.push_back(addr);
    }
  }
  return corrupted;
}

uint32_t FaultScheduler::ScheduleDigest() const {
  uint32_t crc = 0;
  for (const FaultEvent& e : events_) {
    uint8_t buf[25];
    for (int i = 0; i < 8; ++i) buf[i] = uint8_t(e.cycle >> (8 * i));
    buf[8] = uint8_t(e.kind);
    for (int i = 0; i < 8; ++i) buf[9 + i] = uint8_t(e.a >> (8 * i));
    for (int i = 0; i < 8; ++i) buf[17 + i] = uint8_t(e.b >> (8 * i));
    crc = Crc32(buf, sizeof buf, crc);
  }
  return crc;
}

void FaultScheduler::CollectStats(StatsScope scope) const {
  scope.SetCounter("events", events_.size());
  scope.SetCounter("guarded_tuples", guarded_tuples());
  scope.SetCounter("corruption_checks", corruption_checks());
  scope.SetCounter("corruption_detected", corruption_detected());
  scope.SetCounter("schedule_digest", ScheduleDigest());
  // "detected/corruption" is tracked per arena; fold it into the counter
  // view with the original key-presence semantics (absent when zero).
  CounterSet merged = counters_;
  if (corruption_detected() > 0) {
    merged.Add("detected/corruption", corruption_detected());
  }
  scope.MergeCounterSet(merged);
}

}  // namespace bionicdb::fault
