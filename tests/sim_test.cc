#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "sim/component.h"
#include "sim/memory.h"
#include "sim/simulator.h"

namespace bionicdb::sim {
namespace {

TimingConfig Config() {
  TimingConfig c;
  c.dram_latency_cycles = 25;
  c.dram_channels = 8;
  c.dram_channel_queue_depth = 4;
  return c;
}

TEST(DramFunctional, ReadWriteRoundTrip) {
  DramMemory dram(Config());
  Addr a = dram.Allocate(64);
  EXPECT_NE(a, kNullAddr);
  dram.Write64(a, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(dram.Read64(a), 0xdeadbeefcafef00dULL);
  dram.Write32(a + 8, 0x12345678);
  EXPECT_EQ(dram.Read32(a + 8), 0x12345678u);
  dram.Write8(a + 12, 0xab);
  EXPECT_EQ(dram.Read8(a + 12), 0xab);
}

TEST(DramFunctional, UnwrittenMemoryReadsZero) {
  DramMemory dram(Config());
  EXPECT_EQ(dram.Read64(0x123456), 0u);
}

TEST(DramFunctional, CrossPageCopy) {
  DramMemory dram(Config());
  // Straddle a 64 KiB page boundary.
  Addr a = (1ull << 16) - 17;
  std::vector<uint8_t> src(64);
  for (size_t i = 0; i < src.size(); ++i) src[i] = uint8_t(i + 1);
  dram.WriteBytes(a, src.data(), src.size());
  std::vector<uint8_t> dst(64);
  dram.ReadBytes(a, dst.data(), dst.size());
  EXPECT_EQ(src, dst);
}

TEST(DramFunctional, AllocatorAlignsAndAdvances) {
  DramMemory dram(Config());
  Addr a = dram.Allocate(10, 8);
  Addr b = dram.Allocate(10, 64);
  EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 10);
}

constexpr uint64_t kPage = 1ull << 16;  // DramMemory's page size

TEST(DramPageStore, MemoriesNeverSeeEachOthersBytes) {
  auto first = std::make_unique<DramMemory>(Config());
  DramMemory second(Config());
  const Addr a = first->Allocate(64);
  ASSERT_EQ(second.Allocate(64), a);
  first->Write64(a, 0x1111);
  second.Write64(a, 0x2222);
  EXPECT_EQ(first->Read64(a), 0x1111u);
  EXPECT_EQ(second.Read64(a), 0x2222u);
  // A memory built where a destroyed one lived starts from zeroes.
  first.reset();
  first = std::make_unique<DramMemory>(Config());
  ASSERT_EQ(first->Allocate(64), a);
  EXPECT_EQ(first->Read64(a), 0u);
  first->Write64(a, 0x3333);
  EXPECT_EQ(second.Read64(a), 0x2222u);
}

TEST(DramPageStore, WildAddressesGetTheirOwnZeroedPages) {
  constexpr uint32_t kParts = 3;
  DramMemory parted(Config());
  parted.ConfigurePartitions(kParts);
  DramMemory flat(Config());
  struct Case {
    DramMemory* dram;
    Addr addr;
  };
  // Past every partition arena (arenas 0..kParts), the top of the address
  // space, and the first address past an unpartitioned memory's arena.
  const Case cases[] = {{&parted, Addr(kParts + 2) << 40},
                        {&parted, ~0ull - 7},
                        {&flat, ~0ull - 7},
                        {&flat, 1ull << 40}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.addr);
    c.dram->Allocate(64);  // the host arena's table exists
    const Addr low = c.addr & ((1ull << 40) - 1);  // same low 40 bits
    EXPECT_EQ(c.dram->Read64(c.addr), 0u);
    c.dram->Write64(c.addr, 0xabcdef);
    EXPECT_EQ(c.dram->Read64(c.addr), 0xabcdefu);
    EXPECT_EQ(c.dram->Read64(low), 0u);
    c.dram->Write64(low, 7);
    EXPECT_EQ(c.dram->Read64(c.addr), 0xabcdefu);
  }
}

TEST(DramPageStore, PageTouchedAheadOfTheAllocatorKeepsItsBytes) {
  DramMemory dram(Config());
  const Addr ahead = 5 * kPage + 8;  // past the allocator's frontier
  dram.Write64(ahead, 99);
  const Addr a = dram.Allocate(8 * kPage);
  ASSERT_LE(a, ahead);
  EXPECT_EQ(dram.Read64(ahead), 99u);
  dram.Write64(ahead + 8, 100);
  EXPECT_EQ(dram.Read64(ahead), 99u);
  EXPECT_EQ(dram.Read64(ahead + 8), 100u);
}

TEST(DramPageStore, PartitionArenasKeepSeparatePages) {
  DramMemory dram(Config());
  dram.ConfigurePartitions(2);
  const Addr in_p0 = dram.AllocateIn(0, 3 * kPage);
  const Addr in_p1 = dram.AllocateIn(1, 3 * kPage);
  const Addr offset_mask = (1ull << 40) - 1;
  ASSERT_NE(in_p0, in_p1);
  ASSERT_EQ(in_p0 & offset_mask, in_p1 & offset_mask);
  dram.Write64(in_p0, 1);
  dram.Write64(in_p1, 2);
  EXPECT_EQ(dram.Read64(in_p0), 1u);
  EXPECT_EQ(dram.Read64(in_p1), 2u);
  // Straddle the 64 KiB page boundary inside partition 1's block.
  const Addr cross = (in_p1 & ~(kPage - 1)) + kPage - 17;
  std::vector<uint8_t> src(64);
  for (size_t i = 0; i < src.size(); ++i) src[i] = uint8_t(i + 1);
  dram.WriteBytes(cross, src.data(), src.size());
  std::vector<uint8_t> dst(64);
  dram.ReadBytes(cross, dst.data(), dst.size());
  EXPECT_EQ(src, dst);
  EXPECT_EQ(dram.Read64(in_p0), 1u);
}

// Loader threads (db::Database::Populate) fill distinct arenas at once;
// each arena must read back exactly as after a serial fill.
TEST(DramPageStore, ThreadsFillingDistinctArenasMatchASerialFill) {
  constexpr uint32_t kParts = 4;
  // Allocations of varied sizes and alignments, each written with bytes
  // that depend on the partition: ~6 MB per arena, so every arena creates
  // ~100 pages over several page blocks while the others do the same.
  auto fill = [](DramMemory* dram, uint32_t p) {
    std::vector<uint8_t> bytes;
    for (uint32_t i = 0; i < 600; ++i) {
      const uint64_t size = 8 + (i * 7919 + p * 104729) % 20000;
      const Addr a = dram->AllocateIn(p, size, i % 3 == 0 ? 64 : 8);
      bytes.resize(size);
      for (uint64_t j = 0; j < size; ++j) bytes[j] = uint8_t(p * 31 + i + j);
      dram->WriteBytes(a, bytes.data(), size);
    }
  };
  DramMemory serial(Config());
  serial.ConfigurePartitions(kParts);
  for (uint32_t p = 0; p < kParts; ++p) fill(&serial, p);
  // Per-arena page blocks (as db::Database::Populate sets them), and one
  // shared block.
  for (const bool per_arena : {true, false}) {
    SCOPED_TRACE(per_arena);
    DramMemory threaded(Config());
    threaded.ConfigurePartitions(kParts);
    threaded.SetPerArenaPageBlocks(per_arena);
    std::vector<std::thread> loaders;
    for (uint32_t p = 0; p < kParts; ++p) {
      loaders.emplace_back(fill, &threaded, p);
    }
    for (std::thread& t : loaders) t.join();
    threaded.SetPerArenaPageBlocks(false);

    for (uint32_t arena = 0; arena <= kParts; ++arena) {
      SCOPED_TRACE(arena);
      const auto [begin, end] = serial.ArenaSpan(arena);
      ASSERT_EQ(threaded.ArenaSpan(arena), serial.ArenaSpan(arena));
      std::vector<uint8_t> want(kPage), got(kPage);
      for (Addr a = begin; a < end; a += kPage) {
        const uint64_t len = std::min<uint64_t>(kPage, end - a);
        serial.ReadBytes(a, want.data(), len);
        threaded.ReadBytes(a, got.data(), len);
        ASSERT_EQ(0, std::memcmp(want.data(), got.data(), len))
            << "at " << a;
      }
    }
  }
}

TEST(DramPageStore, PartitionContextRoutesOnlyItsOwnMemory) {
  TimingConfig cfg = Config();
  cfg.dram_channels = 1;
  cfg.dram_channel_queue_depth = 1;
  DramMemory a(cfg);
  DramMemory b(cfg);
  a.ConfigurePartitions(2);
  b.ConfigurePartitions(2);
  MemResponseQueue sink;
  ASSERT_TRUE(b.Issue(0, 0x1000, false, &sink, 0));  // fills b's host lane
  a.SetPartitionContext(1);
  // b stays in its host context: host arena, and the full host lane.
  EXPECT_LT(b.Allocate(8), 1ull << 40);
  EXPECT_FALSE(b.Issue(0, 0x1008, false, &sink, 1));
  EXPECT_GE(a.Allocate(8), 2ull << 40);  // partition 1's arena
}

TEST(DramPageStore, EveryChunkMappingIsCounted) {
  DramMemory dram(Config());
  constexpr uint64_t kMaxPages = 1024;  // 64 MiB, well past one chunk
  const Addr base = dram.Allocate(kMaxPages * kPage);
  const uint64_t before = HotAllocProbe::Count();
  dram.Write8(base, 1);  // the first page maps the first chunk
  const uint64_t first = HotAllocProbe::Count();
  EXPECT_EQ(first, before + 1);
  uint64_t pages = 1;
  while (HotAllocProbe::Count() == first && pages < kMaxPages) {
    dram.Write8(base + kPage * pages++, 1);
  }
  EXPECT_EQ(HotAllocProbe::Count(), first + 1)
      << "no second chunk mapped after " << pages << " pages";
  EXPECT_GT(pages, 1u);
}

TEST(DramTiming, FixedLatencyDelivery) {
  DramMemory dram(Config());
  MemResponseQueue sink;
  Addr a = dram.Allocate(8);
  ASSERT_TRUE(dram.Issue(/*now=*/10, a, false, &sink, 42));
  for (uint64_t t = 11; t < 10 + 25; ++t) {
    dram.Tick(t);
    EXPECT_TRUE(sink.empty()) << "at cycle " << t;
  }
  dram.Tick(10 + 25);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.front().cookie, 42u);
  EXPECT_TRUE(dram.Idle());
}

TEST(DramTiming, ChannelBackpressure) {
  TimingConfig cfg = Config();
  cfg.dram_channels = 1;
  cfg.dram_channel_queue_depth = 2;
  DramMemory dram(cfg);
  MemResponseQueue sink;
  ASSERT_TRUE(dram.Issue(0, 0x1000, false, &sink, 0));
  ASSERT_TRUE(dram.Issue(0, 0x1008, false, &sink, 1));
  EXPECT_FALSE(dram.Issue(0, 0x1010, false, &sink, 2));  // queue full
  EXPECT_EQ(dram.backpressure_rejects(), 1u);
  // After completions drain, the channel accepts again.
  for (uint64_t t = 1; t <= 60; ++t) dram.Tick(t);
  EXPECT_TRUE(dram.Issue(60, 0x1010, false, &sink, 2));
}

TEST(DramTiming, SnapshotTakenAtDeliveryTime) {
  DramMemory dram(Config());
  MemResponseQueue sink;
  Addr a = dram.Allocate(8);
  dram.Write64(a, 111);
  ASSERT_TRUE(dram.Issue(0, a, false, &sink, 7, /*snapshot_words=*/1));
  // Overwrite before the read completes: the snapshot must see the value
  // current at service completion (the new one) — service time semantics.
  dram.Write64(a, 222);
  for (uint64_t t = 1; t <= 30; ++t) dram.Tick(t);
  ASSERT_EQ(sink.size(), 1u);
  ASSERT_EQ(sink.front().data.size(), 1u);
  EXPECT_EQ(sink.front().data[0], 222u);
}

TEST(DramTiming, WritesCountSeparately) {
  DramMemory dram(Config());
  dram.Issue(0, 0x1000, true, nullptr, 0);
  dram.Issue(0, 0x2000, false, nullptr, 0);
  EXPECT_EQ(dram.total_writes(), 1u);
  EXPECT_EQ(dram.total_reads(), 1u);
}


TEST(DramTiming, DelayedWriteAppliesAtServiceTime) {
  DramMemory dram(Config());
  MemResponseQueue ack;
  Addr a = dram.Allocate(8);
  dram.Write64(a, 1);
  ASSERT_TRUE(dram.IssueWrite64(/*now=*/0, a, 2, &ack, 5));
  // The functional store must not change until the write completes.
  for (uint64_t t = 1; t < 25; ++t) {
    dram.Tick(t);
    EXPECT_EQ(dram.Read64(a), 1u) << "at cycle " << t;
  }
  dram.Tick(25);
  EXPECT_EQ(dram.Read64(a), 2u);
  ASSERT_EQ(ack.size(), 1u);
  EXPECT_EQ(ack.front().cookie, 5u);
  EXPECT_TRUE(ack.front().is_write);
}

TEST(DramTiming, ReadServicedBeforeDelayedWriteSeesOldValue) {
  // The physical basis of the paper's pipeline hazards: a read whose
  // service completes before an in-flight write's service sees old data.
  TimingConfig cfg = Config();
  DramMemory dram(cfg);
  Addr a = dram.Allocate(8);
  dram.Write64(a, 10);
  MemResponseQueue read_sink, write_ack;
  // Read issued at cycle 0 -> completes at 25. Same-address write issued at
  // cycle 0 right after (same channel) -> starts at 1, completes at 26.
  ASSERT_TRUE(dram.Issue(0, a, false, &read_sink, 0, /*snapshot_words=*/1));
  ASSERT_TRUE(dram.IssueWrite64(0, a, 20, &write_ack, 0));
  for (uint64_t t = 1; t <= 30; ++t) dram.Tick(t);
  ASSERT_EQ(read_sink.size(), 1u);
  EXPECT_EQ(read_sink.front().data[0], 10u);  // old value
  EXPECT_EQ(dram.Read64(a), 20u);             // write landed afterwards
}

/// A block that waits for one memory response then goes idle.
class OneShotReader : public Component {
 public:
  OneShotReader(DramMemory* dram, Addr addr)
      : Component("reader"), dram_(dram), addr_(addr) {}

  void Tick(uint64_t cycle) override {
    if (!issued_) {
      issued_ = dram_->Issue(cycle, addr_, false, &resp_, 0);
      return;
    }
    if (!resp_.empty()) {
      resp_.pop_front();
      done_ = true;
      done_cycle_ = cycle;
    }
  }
  bool Idle() const override { return done_; }
  uint64_t done_cycle() const { return done_cycle_; }

 private:
  DramMemory* dram_;
  Addr addr_;
  MemResponseQueue resp_;
  bool issued_ = false;
  bool done_ = false;
  uint64_t done_cycle_ = 0;
};

TEST(Simulator, RunUntilIdleDrivesComponents) {
  Simulator sim(Config());
  OneShotReader reader(&sim.dram(), 0x4000);
  sim.AddComponent(&reader, /*partition=*/0);
  ASSERT_TRUE(sim.RunUntilIdle(/*max_cycles=*/1000));
  EXPECT_TRUE(reader.Idle());
  // Issue at cycle 1, latency 25, observed at the next tick.
  EXPECT_NEAR(double(reader.done_cycle()), 1 + 25 + 1, 1.0);
}

TEST(Simulator, RunUntilPredicateBudget) {
  Simulator sim(Config());
  EXPECT_FALSE(sim.RunUntil([] { return false; }, 100));
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, FastForwardMovesClockOnly) {
  Simulator sim(Config());
  sim.FastForward(5000);
  EXPECT_EQ(sim.now(), 5000u);
  EXPECT_EQ(sim.counters().Get("fastforward_backwards_clamped"), 0u);
  sim.FastForward(100);  // never backwards: clamped and counted
  EXPECT_EQ(sim.now(), 5000u);
  EXPECT_EQ(sim.counters().Get("fastforward_backwards_clamped"), 1u);
  sim.FastForward(5000);  // equal target is a no-op, not a violation
  EXPECT_EQ(sim.now(), 5000u);
  EXPECT_EQ(sim.counters().Get("fastforward_backwards_clamped"), 1u);
}

TEST(Simulator, CollectStatsReportsClockAndDramChannels) {
  Simulator sim(Config());
  OneShotReader reader(&sim.dram(), 0x4000);
  sim.AddComponent(&reader, /*partition=*/0);
  ASSERT_TRUE(sim.RunUntilIdle(/*max_cycles=*/1000));

  StatsRegistry reg;
  sim.CollectStats(StatsScope(&reg, "sim"));
  EXPECT_EQ(reg.GetCounter("sim/cycles"), sim.now());
  EXPECT_TRUE(reg.HasPath("sim/components/reader/busy_cycles"));
  EXPECT_TRUE(reg.HasPath("sim/components/reader/idle_cycles"));
  // The read went through channel stats: exactly one issued request
  // somewhere, zero rejects.
  uint64_t issued = 0, rejects = 0;
  for (const auto& [path, v] : reg.counters()) {
    if (path.find("/issued") != std::string::npos) issued += v;
    if (path.find("/rejects") != std::string::npos) rejects += v;
  }
  EXPECT_EQ(issued, 1u);
  EXPECT_EQ(rejects, 0u);
}

TEST(TimingConfig, ThroughputConversion) {
  TimingConfig c;
  c.clock_mhz = 125.0;
  // 125e6 cycles = 1 second.
  EXPECT_DOUBLE_EQ(c.CyclesToSeconds(125'000'000), 1.0);
  EXPECT_DOUBLE_EQ(c.Throughput(1'000'000, 125'000'000), 1e6);
}

}  // namespace
}  // namespace bionicdb::sim
