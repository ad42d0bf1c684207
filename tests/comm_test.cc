#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "comm/channels.h"

namespace bionicdb::comm {
namespace {

sim::TimingConfig Cfg() { return sim::TimingConfig(); }

/// A request envelope whose header carries `cp` for identification.
Envelope Op(uint32_t cp) {
  Header h;
  h.cp_index = cp;
  return Envelope(h, IndexOp{});
}

/// A response envelope (kIndexResult) with the same identification.
Envelope Result(uint32_t cp) {
  Header h;
  h.cp_index = cp;
  return Envelope(h, IndexResult{});
}

TEST(CommFabric, CrossbarDeliversAfterHopLatency) {
  CommFabric fabric(4, Cfg(), Topology::kCrossbar);
  fabric.Send(/*now=*/10, /*src=*/0, /*dst=*/2, Op(7));
  fabric.Tick(11);
  EXPECT_TRUE(fabric.requests(2).empty());
  fabric.Tick(12);
  EXPECT_TRUE(fabric.requests(2).empty());
  fabric.Tick(13);  // 3-cycle hop
  ASSERT_EQ(fabric.requests(2).size(), 1u);
  EXPECT_EQ(fabric.requests(2).front().hdr.cp_index, 7u);
  EXPECT_TRUE(fabric.requests(0).empty());
  EXPECT_TRUE(fabric.requests(1).empty());
}

TEST(CommFabric, RoundTripIsSixCycles) {
  // Table 3: one request/response pair = 2 x 24 ns = 6 cycles at 125 MHz.
  CommFabric fabric(2, Cfg());
  EXPECT_EQ(fabric.HopLatency(0, 1) + fabric.HopLatency(1, 0), 6u);
}

TEST(CommFabric, ResponsesRouteToInitiator) {
  CommFabric fabric(3, Cfg());
  fabric.Send(0, /*src=*/2, /*dst=*/1, Result(9));
  fabric.Tick(100);
  ASSERT_EQ(fabric.responses(1).size(), 1u);
  EXPECT_EQ(fabric.responses(1).front().hdr.cp_index, 9u);
}

TEST(CommFabric, FifoPerDestination) {
  CommFabric fabric(2, Cfg());
  for (uint32_t i = 0; i < 5; ++i) fabric.Send(i, 0, 1, Op(i));
  fabric.Tick(100);
  ASSERT_EQ(fabric.requests(1).size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(fabric.requests(1)[i].hdr.cp_index, i);
  }
}

TEST(CommFabric, RingLatencyScalesWithDistance) {
  CommFabric ring(8, Cfg(), Topology::kRing);
  // Neighbours: one hop. Opposite side: four hops. Shortest direction wins.
  EXPECT_EQ(ring.HopLatency(0, 1), 3u);
  EXPECT_EQ(ring.HopLatency(0, 4), 12u);
  EXPECT_EQ(ring.HopLatency(0, 7), 3u);  // wraps backwards
  EXPECT_EQ(ring.HopLatency(6, 2), 12u);

  CommFabric xbar(8, Cfg(), Topology::kCrossbar);
  EXPECT_EQ(xbar.HopLatency(0, 4), 3u);  // distance-independent
}

TEST(CommFabric, IdleReflectsWireState) {
  CommFabric fabric(2, Cfg());
  EXPECT_TRUE(fabric.Idle());
  fabric.Send(0, 0, 1, Op(0));
  EXPECT_FALSE(fabric.Idle());
  // Delivery empties the wire; a delivered-but-undrained inbox is the
  // destination worker's wake concern (PartitionWorker::Idle covers its
  // inboxes), not the fabric's — the fabric itself is quiescent.
  fabric.Tick(50);
  EXPECT_EQ(fabric.requests(1).size(), 1u);
  EXPECT_TRUE(fabric.Idle());
}

TEST(MessagingLatencyModel, ReproducesTable3) {
  MessagingLatencyModel model{Cfg()};
  // On-chip: 24 ns primitive, 48 ns per request/response exchange.
  EXPECT_DOUBLE_EQ(model.OnchipPrimitive(), 24.0);
  EXPECT_DOUBLE_EQ(model.OnchipRoundTrip(), 48.0);
  // Software via shared L3: 20 / 40 ns.
  EXPECT_DOUBLE_EQ(model.L3Primitive(), 20.0);
  EXPECT_DOUBLE_EQ(model.L3RoundTrip(), 40.0);
  // Software via DDR3: 80 / 320 ns (two iterations of read + write).
  EXPECT_DOUBLE_EQ(model.Ddr3Primitive(), 80.0);
  EXPECT_DOUBLE_EQ(model.Ddr3RoundTrip(), 320.0);
}


TEST(CommFabric, MultiNodeCrossingPaysNetworkLatency) {
  sim::TimingConfig timing = Cfg();
  timing.interchip_latency_cycles = 250;
  CommFabric fabric(8, timing, Topology::kCrossbar, /*workers_per_chip=*/4);
  // Intra-node: plain on-chip hop.
  EXPECT_EQ(fabric.HopLatency(0, 3), 3u);
  EXPECT_EQ(fabric.HopLatency(5, 7), 3u);
  // Node-crossing: network + on-chip at both ends.
  EXPECT_EQ(fabric.HopLatency(0, 4), 250u + 6u);
  EXPECT_EQ(fabric.HopLatency(7, 1), 250u + 6u);
}

TEST(CommFabric, ShortPathMessagesOvertakeLongOnes) {
  sim::TimingConfig timing = Cfg();
  timing.interchip_latency_cycles = 100;
  CommFabric fabric(4, timing, Topology::kCrossbar, /*workers_per_chip=*/2);
  fabric.Send(0, /*src=*/2, /*dst=*/1, Op(1));  // cross-node, slow
  fabric.Send(0, /*src=*/0, /*dst=*/1, Op(2));  // on-chip, fast
  fabric.Tick(10);
  ASSERT_EQ(fabric.requests(1).size(), 1u);
  EXPECT_EQ(fabric.requests(1).front().hdr.cp_index, 2u);  // fast one first
  fabric.Tick(200);
  EXPECT_EQ(fabric.requests(1).size(), 2u);
}

TEST(CommFabric, RingUnderChipGrouping) {
  // 8 workers on a ring, grouped into two 4-worker nodes. Intra-node pairs
  // pay ring distance; node-crossing pairs pay the network hop plus one
  // on-chip hop at each end — even when they are ring neighbours.
  sim::TimingConfig timing = Cfg();
  timing.interchip_latency_cycles = 250;
  CommFabric fabric(8, timing, Topology::kRing, /*workers_per_chip=*/4);
  EXPECT_EQ(fabric.HopLatency(0, 1), 3u);    // ring neighbours, same node
  EXPECT_EQ(fabric.HopLatency(0, 3), 9u);    // 3 ring steps, same node
  EXPECT_EQ(fabric.HopLatency(4, 7), 9u);    // second node, same rule
  EXPECT_EQ(fabric.HopLatency(0, 5), 256u);  // node crossing: 250 + 2x3
  EXPECT_EQ(fabric.HopLatency(7, 0), 256u);  // ring-adjacent but cross-node

  fabric.Send(/*now=*/0, /*src=*/0, /*dst=*/5, Op(3));
  fabric.Tick(255);
  EXPECT_TRUE(fabric.requests(5).empty());
  fabric.Tick(256);
  ASSERT_EQ(fabric.requests(5).size(), 1u);
  EXPECT_EQ(fabric.requests(5).front().hdr.cp_index, 3u);
}

/// Scripted per-packet fault decisions, consumed in transmission order.
class ScriptedFaults : public ChannelFaultHook {
 public:
  explicit ScriptedFaults(std::vector<FaultDecision> script)
      : script_(std::move(script)) {}
  FaultDecision OnPacket(uint64_t, MessageClass, db::WorkerId,
                         db::WorkerId) override {
    if (next_ >= script_.size()) return FaultDecision{};
    return script_[next_++];
  }

 private:
  std::vector<FaultDecision> script_;
  size_t next_ = 0;
};

TEST(CommFabric, DroppedPacketIsRetransmitted) {
  CommFabric fabric(2, Cfg());
  fabric.set_reliability({.enabled = true, .retransmit_timeout_cycles = 10});
  ScriptedFaults faults(std::vector<FaultDecision>{{.drop = true}});
  fabric.set_fault_hook(&faults);

  fabric.Send(/*now=*/0, /*src=*/0, /*dst=*/1, Op(5));
  fabric.Tick(5);
  EXPECT_TRUE(fabric.requests(1).empty());
  EXPECT_FALSE(fabric.Idle());  // unacked copy keeps the fabric live
  for (uint64_t c = 6; c <= 14; ++c) fabric.Tick(c);
  ASSERT_EQ(fabric.requests(1).size(), 1u);  // retransmit delivered
  EXPECT_EQ(fabric.requests(1).front().hdr.cp_index, 5u);
  EXPECT_EQ(fabric.retransmits(), 1u);
  // Once the ack returns, the sender forgets the packet: no more copies.
  for (uint64_t c = 15; c <= 40; ++c) fabric.Tick(c);
  EXPECT_EQ(fabric.requests(1).size(), 1u);
  fabric.requests(1).clear();
  EXPECT_TRUE(fabric.Idle());
}

TEST(CommFabric, DuplicateDeliveredOnlyOnce) {
  CommFabric fabric(2, Cfg());
  fabric.set_reliability({.enabled = true, .retransmit_timeout_cycles = 100});
  ScriptedFaults faults(std::vector<FaultDecision>{{.duplicate = true}});
  fabric.set_fault_hook(&faults);

  fabric.Send(/*now=*/0, /*src=*/1, /*dst=*/0, Result(0));
  for (uint64_t c = 1; c <= 10; ++c) fabric.Tick(c);
  EXPECT_EQ(fabric.responses(0).size(), 1u);  // second copy suppressed
  EXPECT_EQ(fabric.counters().Get("duplicates_suppressed"), 1u);
}

TEST(CommFabric, ReliabilityOffDropsSilently) {
  // Without the delivery-guarantee layer a dropped packet is simply gone —
  // the paper-faithful lossless fabric never needs it, and the fault tests
  // rely on this to prove the reliability layer is doing the saving.
  CommFabric fabric(2, Cfg());
  ScriptedFaults faults(std::vector<FaultDecision>{{.drop = true}});
  fabric.set_fault_hook(&faults);
  fabric.Send(0, 0, 1, Op(1));
  for (uint64_t c = 1; c <= 20; ++c) fabric.Tick(c);
  EXPECT_TRUE(fabric.requests(1).empty());
  EXPECT_TRUE(fabric.Idle());
  EXPECT_EQ(fabric.counters().Get("requests_dropped"), 1u);
}

}  // namespace
}  // namespace bionicdb::comm
