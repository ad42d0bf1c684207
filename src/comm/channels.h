// On-chip message-passing channels for inter-worker communication
// (paper section 4.6, Fig. 1b).
//
// Each partition worker owns a communication link consisting of a request
// channel and a response channel. Every packet is a comm::Envelope (see
// envelope.h): the fabric routes, delays, acknowledges and retransmits on
// the envelope HEADER alone — it never inspects the payload, so adding a
// new message class costs the transport nothing. A request/response pair
// costs 6 cycles total (3 per hop at 125 MHz = 24 ns each way, Table 3) —
// no memory round trips, no thread synchronization.
//
// Topology: the paper implements a crossbar and notes it "does not scale",
// suggesting ring or tree for datacenter-grade parts. Both crossbar and
// ring are provided; with a ring, hop latency scales with worker distance,
// which the scaling ablation bench exercises.
#ifndef BIONICDB_COMM_CHANNELS_H_
#define BIONICDB_COMM_CHANNELS_H_

#include <array>
#include <cstdint>
#include <map>
#include <unordered_set>
#include <vector>

#include "comm/envelope.h"
#include "common/stats.h"
#include "db/types.h"
#include "sim/arena.h"
#include "sim/component.h"
#include "sim/config.h"

namespace bionicdb::comm {

enum class Topology : uint8_t {
  kCrossbar,  // any-to-any, fixed one-hop latency
  kRing,      // latency scales with ring distance
};

/// Per-packet fault decision returned by ChannelFaultHook. Default values
/// mean "deliver normally".
struct FaultDecision {
  bool drop = false;       // packet vanishes on the wire
  bool duplicate = false;  // a second copy is transmitted one cycle later
  uint64_t delay_cycles = 0;  // extra in-flight latency
};

/// Fault-injection surface of the comm fabric (implemented by
/// fault::FaultScheduler). Consulted once per transmission, including
/// retransmissions, so a retried packet can be dropped again. Decisions
/// may depend on the message class, so drop/dup/delay applies uniformly
/// to every class without the hook parsing payloads.
class ChannelFaultHook {
 public:
  virtual ~ChannelFaultHook() = default;
  virtual FaultDecision OnPacket(uint64_t now, MessageClass cls,
                                 db::WorkerId src, db::WorkerId dst) = 0;
};

/// Delivery-guarantee layer countering injected comm faults (paper-faithful
/// channels are lossless, so this is OFF by default and adds zero cycles to
/// the Table 3 latencies when disabled). When enabled, every data packet
/// carries a fabric-unique sequence number in its envelope header;
/// receivers acknowledge every arrival and deliver only the first copy of
/// each sequence (dedup), and senders retransmit unacknowledged packets on
/// a timeout.
struct ReliabilityConfig {
  bool enabled = false;
  /// Cycles before an unacknowledged packet is retransmitted. Must exceed
  /// the worst-case round trip (2x max hop latency) or every packet
  /// retransmits spuriously.
  uint64_t retransmit_timeout_cycles = 4096;
};

class CommFabric : public sim::Component {
 public:
  /// Multi-chip deployment (paper section 4.6 future work: "the
  /// message-passing channels should be diversified with additional
  /// connectivities for inter-node communication"). Workers are grouped
  /// into chips of `workers_per_chip`; messages crossing a chip boundary
  /// ride the inter-chip tier — TimingConfig::interchip_latency_cycles one
  /// way plus an on-chip hop at each end, through a finite-bandwidth
  /// directed link per chip pair (interchip_issue_gap_cycles per packet;
  /// back-to-back packets queue). 0 = single chip, on-chip tier only.
  CommFabric(uint32_t n_workers, const sim::TimingConfig& timing,
             Topology topology = Topology::kCrossbar,
             uint32_t workers_per_chip = 0);

  /// Puts `env` on the wire from `src` to `dst`. Request-class envelopes
  /// ride the request channel, result-class envelopes the response channel;
  /// the fabric decides from the header tag alone. Senders are other
  /// blocks, so Send touches the fabric (sim::Component::Touch) first.
  void Send(uint64_t now, db::WorkerId src, db::WorkerId dst,
            const Envelope& env);

  /// Names the block that drains `worker`'s inboxes. Every delivery into
  /// them touches that block first, so an event-driven simulator ticks it
  /// in the delivery cycle. Unset owners are not touched.
  void set_inbox_owner(db::WorkerId worker, sim::Component* owner) {
    inbox_owner_[worker] = owner;
  }

  /// Delivered inbound request packets for `worker` (drained by its
  /// background unit).
  sim::RingQueue<Envelope>& requests(db::WorkerId worker) {
    return request_inbox_[worker];
  }
  /// Delivered inbound response packets for `worker`.
  sim::RingQueue<Envelope>& responses(db::WorkerId worker) {
    return response_inbox_[worker];
  }

  void Tick(uint64_t cycle) override;
  bool Idle() const override;

  /// Event-driven scheduling hint (contract in sim/component.h): the
  /// earliest delivery or retransmission deadline on any wire. Quiescent
  /// fabric ticks are pure no-ops (no per-cycle accounting), so no
  /// SkipCycles override is needed; packets sitting in worker inboxes are
  /// the workers' wake concern, not the fabric's (each delivery touches
  /// the inbox owner).
  uint64_t NextWakeCycle(uint64_t now) const override;

  /// One-way latency in cycles between two workers under the configured
  /// topology.
  uint64_t HopLatency(db::WorkerId src, db::WorkerId dst) const;

  /// Chips the workers span (1 when the inter-chip tier is off), and the
  /// chip of worker `w`.
  uint32_t n_chips() const { return n_chips_; }
  uint32_t ChipOf(db::WorkerId w) const {
    return db::ChipOf(w, workers_per_chip_);
  }

  uint64_t messages_sent() const { return messages_sent_; }
  CounterSet& counters() { return counters_; }

  // --- Fault injection & reliability ------------------------------------

  /// Installs (or clears) the per-packet fault hook; not owned.
  void set_fault_hook(ChannelFaultHook* hook) { fault_hook_ = hook; }
  /// Enables/disables the ack/retransmit/dedup layer. Must be set before
  /// traffic flows (sequence state is not retrofitted to in-flight packets).
  void set_reliability(const ReliabilityConfig& config) {
    reliability_ = config;
  }
  const ReliabilityConfig& reliability() const { return reliability_; }
  uint64_t retransmits() const { return retransmits_; }

  /// Per-message-class traffic totals (fabric/<class>/sent|delivered|
  /// retransmitted in CollectStats). `delivered` counts first deliveries
  /// of each logical packet, identically in both simulation modes.
  uint64_t class_sent(MessageClass c) const {
    return class_sent_[size_t(c)];
  }
  uint64_t class_delivered(MessageClass c) const {
    return class_delivered_[size_t(c)];
  }
  uint64_t class_retransmitted(MessageClass c) const {
    return class_retransmitted_[size_t(c)];
  }

  /// Dumps message counters (including the per-class subtrees) and
  /// per-direction wire/inbox occupancy under `scope`.
  void CollectStats(StatsScope scope) const;

 private:
  struct InFlight {
    uint64_t deliver_at;
    db::WorkerId dst;
    Envelope env;            // carries seq in env.hdr.seq
    db::WorkerId src = 0;    // ack return path
  };

  /// Acks ride a dedicated lossless wire: they model the tiny
  /// credit-return signals of the channel hardware, not data packets.
  struct InFlightAck {
    uint64_t deliver_at;
    db::WorkerId dst;  // the original sender, who retires its unacked copy
    uint64_t seq;
  };

  /// Sender-side copy of an unacknowledged packet.
  struct Unacked {
    db::WorkerId src;
    db::WorkerId dst;
    Envelope env;
    uint64_t next_retransmit_at;
  };

  /// Shared transmission path: charges inter-chip link bandwidth (packets
  /// crossing chips depart when the directed link frees up), consults the
  /// fault hook, then places the packet (and any injected duplicate) on
  /// the wire.
  void Transmit(uint64_t now, db::WorkerId src, db::WorkerId dst,
                const Envelope& env, sim::RingQueue<InFlight>* wire);

  /// Per-cycle steps of Tick: deliveries due on one wire into `inboxes`,
  /// ack arrivals, and retransmission deadlines.
  void DeliverWire(uint64_t cycle, sim::RingQueue<InFlight>* wire,
                   std::vector<sim::RingQueue<Envelope>>* inboxes);
  void RetireAcks(uint64_t cycle);
  void RunRetransmits(uint64_t cycle);

  uint32_t n_workers_;
  sim::TimingConfig timing_;
  Topology topology_;
  uint32_t workers_per_chip_;
  uint32_t n_chips_ = 1;

  /// One directed finite-bandwidth link per ordered chip pair, indexed
  /// src_chip * n_chips_ + dst_chip.
  struct LinkState {
    uint64_t next_free = 0;   // first cycle the link can take a packet
    uint64_t sent = 0;        // logical packets (retransmits excluded)
    uint64_t delivered = 0;   // first deliveries
    uint64_t queue_peak = 0;  // deepest backlog seen at enqueue, in packets
  };
  std::vector<LinkState> links_;

  sim::RingQueue<InFlight> request_wire_;
  sim::RingQueue<InFlight> response_wire_;
  std::vector<sim::RingQueue<Envelope>> request_inbox_;
  std::vector<sim::RingQueue<Envelope>> response_inbox_;
  /// The block draining each worker's inboxes (set_inbox_owner).
  std::vector<sim::Component*> inbox_owner_;

  // Reliability state. std::map keeps retransmission scan order
  // deterministic; requests scan before responses (RunRetransmits), so the
  // maps stay separate even though both hold plain envelopes.
  ChannelFaultHook* fault_hook_ = nullptr;
  ReliabilityConfig reliability_;
  uint64_t next_seq_ = 0;
  sim::RingQueue<InFlightAck> ack_wire_;
  std::map<uint64_t, Unacked> unacked_requests_;
  std::map<uint64_t, Unacked> unacked_responses_;
  std::unordered_set<uint64_t> delivered_seqs_;
  uint64_t retransmits_ = 0;

  uint64_t messages_sent_ = 0;
  std::array<uint64_t, kNumMessageClasses> class_sent_{};
  std::array<uint64_t, kNumMessageClasses> class_delivered_{};
  std::array<uint64_t, kNumMessageClasses> class_retransmitted_{};
  CounterSet counters_;
};

/// Analytic communication-latency model behind Table 3: a request/response
/// exchange costs two message-passing iterations. Software message passing
/// pays either shared-cache or DRAM latency per primitive; DRAM additionally
/// pays a read AND a write per iteration (the paper's 4x multiplier).
struct MessagingLatencyModel {
  double onchip_hop_ns;   // one on-chip hop
  double l3_ns = 20.0;    // one shared-L3 access
  double ddr3_ns = 80.0;  // one DRAM access

  explicit MessagingLatencyModel(const sim::TimingConfig& timing)
      : onchip_hop_ns(timing.onchip_hop_cycles * 1000.0 /
                      timing.clock_mhz) {}

  double OnchipPrimitive() const { return onchip_hop_ns; }
  double OnchipRoundTrip() const { return 2 * onchip_hop_ns; }
  double L3Primitive() const { return l3_ns; }
  double L3RoundTrip() const { return 2 * l3_ns; }
  double Ddr3Primitive() const { return ddr3_ns; }
  /// Two iterations x (memory read + memory write).
  double Ddr3RoundTrip() const { return 4 * ddr3_ns; }
};

}  // namespace bionicdb::comm

#endif  // BIONICDB_COMM_CHANNELS_H_
