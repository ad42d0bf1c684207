#include "comm/channels.h"

#include <algorithm>
#include <string>

namespace bionicdb::comm {

CommFabric::CommFabric(uint32_t n_workers, const sim::TimingConfig& timing,
                       Topology topology, uint32_t workers_per_chip)
    : sim::Component("comm_fabric"),
      n_workers_(n_workers),
      timing_(timing),
      topology_(topology),
      workers_per_chip_(workers_per_chip),
      request_inbox_(n_workers),
      response_inbox_(n_workers),
      inbox_owner_(n_workers, nullptr) {
  if (workers_per_chip_ > 0) {
    n_chips_ = (n_workers_ + workers_per_chip_ - 1) / workers_per_chip_;
  }
  if (n_chips_ == 0) n_chips_ = 1;
  links_.resize(size_t(n_chips_) * n_chips_);
}

uint64_t CommFabric::HopLatency(db::WorkerId src, db::WorkerId dst) const {
  // Chip-crossing messages take the inter-chip tier: one network hop plus
  // an on-chip hop at each end.
  if (ChipOf(src) != ChipOf(dst)) {
    return timing_.interchip_latency_cycles + 2ull * timing_.onchip_hop_cycles;
  }
  if (topology_ == Topology::kCrossbar) return timing_.onchip_hop_cycles;
  // Ring: shortest direction around the ring, one hop-latency per step.
  uint32_t fwd = (dst + n_workers_ - src) % n_workers_;
  uint32_t bwd = (src + n_workers_ - dst) % n_workers_;
  uint64_t steps = std::min(fwd, bwd);
  if (steps == 0) steps = 1;
  return steps * timing_.onchip_hop_cycles;
}

void CommFabric::Transmit(uint64_t now, db::WorkerId src, db::WorkerId dst,
                          const Envelope& env, sim::RingQueue<InFlight>* wire) {
  uint64_t depart = now;
  const uint32_t src_chip = ChipOf(src);
  const uint32_t dst_chip = ChipOf(dst);
  if (src_chip != dst_chip) {
    // Finite link bandwidth: one packet per interchip_issue_gap_cycles on
    // each directed chip-pair link; later packets queue behind earlier ones.
    LinkState& link = links_[size_t(src_chip) * n_chips_ + dst_chip];
    const uint64_t gap = std::max<uint64_t>(
        1, timing_.interchip_issue_gap_cycles);
    if (link.next_free > now) {
      uint64_t backlog = (link.next_free - now + gap - 1) / gap;
      link.queue_peak = std::max(link.queue_peak, backlog);
      depart = link.next_free;
    }
    link.next_free = depart + gap;
  }
  uint64_t deliver_at = depart + HopLatency(src, dst);
  FaultDecision fd;
  if (fault_hook_ != nullptr) {
    fd = fault_hook_->OnPacket(now, env.cls(), src, dst);
  }
  if (fd.delay_cycles > 0) counters_.Add("packets_delayed");
  if (fd.drop) {
    // Without reliability the packet is simply lost; with it, the sender's
    // unacked copy retransmits on timeout.
    counters_.Add(env.is_request() ? "requests_dropped"
                                   : "responses_dropped");
  } else {
    wire->push_back({deliver_at + fd.delay_cycles, dst, env, src});
  }
  if (fd.duplicate) {
    counters_.Add("packets_duplicated");
    wire->push_back({deliver_at + fd.delay_cycles + 1, dst, env, src});
  }
}

void CommFabric::Send(uint64_t now, db::WorkerId src, db::WorkerId dst,
                      const Envelope& env) {
  Touch();
  const bool is_request = env.is_request();
  Envelope sent = env;
  auto* unacked = is_request ? &unacked_requests_ : &unacked_responses_;
  if (reliability_.enabled) {
    sent.hdr.seq = ++next_seq_;
    (*unacked)[sent.hdr.seq] = Unacked{
        src, dst, sent, now + reliability_.retransmit_timeout_cycles};
  }
  Transmit(now, src, dst, sent,
           is_request ? &request_wire_ : &response_wire_);
  ++messages_sent_;
  ++class_sent_[size_t(env.cls())];
  if (ChipOf(src) != ChipOf(dst)) {
    // Logical inter-chip sends; retransmissions re-enter Transmit for
    // bandwidth but are counted under fabric/<class>/retransmitted.
    ++links_[size_t(ChipOf(src)) * n_chips_ + ChipOf(dst)].sent;
  }
  counters_.Add(is_request ? "requests_sent" : "responses_sent");
}

void CommFabric::DeliverWire(uint64_t cycle, sim::RingQueue<InFlight>* wire,
                             std::vector<sim::RingQueue<Envelope>>* inboxes) {
  // Latencies differ per (src,dst) path (ring distance, node crossings),
  // so the wire is scanned rather than popped FIFO: a short-path message
  // may physically overtake a long-path one. Per-path ordering is
  // preserved because same-path messages share latency and the scan keeps
  // relative order — the in-place compaction below shifts keepers forward
  // without reordering them (and without deque's block churn).
  const size_t n = wire->size();
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    InFlight& f = (*wire)[i];
    if (f.deliver_at > cycle) {
      if (kept != i) (*wire)[kept] = std::move(f);
      ++kept;
      continue;
    }
    if (reliability_.enabled && f.env.hdr.seq != 0) {
      // Ack every arrival (even duplicates, so a lost first ack still
      // quiesces the sender) but deliver only the first copy.
      ack_wire_.push_back(
          {cycle + HopLatency(f.dst, f.src), f.src, f.env.hdr.seq});
      if (!delivered_seqs_.insert(f.env.hdr.seq).second) {
        counters_.Add("duplicates_suppressed");
        continue;
      }
    }
    // First delivery of this logical packet.
    ++class_delivered_[size_t(f.env.cls())];
    if (ChipOf(f.src) != ChipOf(f.dst)) {
      ++links_[size_t(ChipOf(f.src)) * n_chips_ + ChipOf(f.dst)].delivered;
    }
    if (inbox_owner_[f.dst] != nullptr) inbox_owner_[f.dst]->Touch();
    (*inboxes)[f.dst].push_back(std::move(f.env));
  }
  wire->truncate(kept);
}

void CommFabric::RetireAcks(uint64_t cycle) {
  // Arrived acks retire the sender's unacked copies (same in-place
  // compaction as DeliverWire: relative order preserved, no allocation).
  const size_t n = ack_wire_.size();
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    InFlightAck& a = ack_wire_[i];
    if (a.deliver_at > cycle) {
      if (kept != i) ack_wire_[kept] = a;
      ++kept;
      continue;
    }
    unacked_requests_.erase(a.seq);
    unacked_responses_.erase(a.seq);
  }
  ack_wire_.truncate(kept);
}

void CommFabric::RunRetransmits(uint64_t cycle) {
  // Timed-out packets retransmit (subject to fault injection again — a
  // retry can be dropped too; with drop probability < 1 delivery is
  // eventually certain). Requests scan before responses; within a map,
  // sequence order keeps the fault-hook consultation deterministic.
  auto retransmit = [this, cycle](auto* unacked, auto* wire) {
    for (auto& [seq, entry] : *unacked) {
      if (cycle >= entry.next_retransmit_at) {
        ++retransmits_;
        counters_.Add("retransmits");
        ++class_retransmitted_[size_t(entry.env.cls())];
        Transmit(cycle, entry.src, entry.dst, entry.env, wire);
        entry.next_retransmit_at =
            cycle + reliability_.retransmit_timeout_cycles;
      }
    }
  };
  retransmit(&unacked_requests_, &request_wire_);
  retransmit(&unacked_responses_, &response_wire_);
}

void CommFabric::Tick(uint64_t cycle) {
  // Empty-wire fast path: single-site workloads (and any cycle with no
  // packets in flight) skip the delivery scans entirely.
  if (!request_wire_.empty()) DeliverWire(cycle, &request_wire_, &request_inbox_);
  if (!response_wire_.empty()) {
    DeliverWire(cycle, &response_wire_, &response_inbox_);
  }
  if (!reliability_.enabled) return;
  RetireAcks(cycle);
  RunRetransmits(cycle);
}

uint64_t CommFabric::NextWakeCycle(uint64_t now) const {
  uint64_t wake = sim::kNeverWakes;
  for (const auto& p : request_wire_) wake = std::min(wake, p.deliver_at);
  for (const auto& p : response_wire_) wake = std::min(wake, p.deliver_at);
  if (reliability_.enabled) {
    for (const auto& p : ack_wire_) wake = std::min(wake, p.deliver_at);
    for (const auto& [seq, u] : unacked_requests_) {
      wake = std::min(wake, u.next_retransmit_at);
    }
    for (const auto& [seq, u] : unacked_responses_) {
      wake = std::min(wake, u.next_retransmit_at);
    }
  }
  return wake > now ? wake : now + 1;
}

bool CommFabric::Idle() const {
  return request_wire_.empty() && response_wire_.empty() &&
         ack_wire_.empty() && unacked_requests_.empty() &&
         unacked_responses_.empty();
}

void CommFabric::CollectStats(StatsScope scope) const {
  scope.SetCounter("messages_sent", messages_sent_);
  scope.SetCounter("n_workers", n_workers_);
  for (uint32_t c = 0; c < kNumMessageClasses; ++c) {
    StatsScope cls = scope.Sub(MessageClassName(MessageClass(c)));
    cls.SetCounter("sent", class_sent_[c]);
    cls.SetCounter("delivered", class_delivered_[c]);
    cls.SetCounter("retransmitted", class_retransmitted_[c]);
  }
  if (n_chips_ > 1) {
    StatsScope interchip = scope.Sub("interchip");
    for (uint32_t s = 0; s < n_chips_; ++s) {
      for (uint32_t d = 0; d < n_chips_; ++d) {
        if (s == d) continue;
        const LinkState& link = links_[size_t(s) * n_chips_ + d];
        StatsScope ls = interchip.Sub("c" + std::to_string(s) + "_c" +
                                      std::to_string(d));
        ls.SetCounter("sent", link.sent);
        ls.SetCounter("delivered", link.delivered);
        ls.SetCounter("queue_peak", link.queue_peak);
      }
    }
  }
  scope.MergeCounterSet(counters_);
}

}  // namespace bionicdb::comm
