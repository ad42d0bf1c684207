#include "sim/memory.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <new>

namespace bionicdb::sim {

namespace {

/// Transparent huge page size on x86-64 and arm64 (4 KiB base pages), and
/// the page store's block size.
constexpr uint64_t kHugePageBytes = 2ull << 20;
/// One PageStore mapping: 16 huge pages, 512 simulated pages. Untouched
/// huge pages of a chunk cost address space only, so a small database
/// pays for the huge pages it touches, not for the chunk.
constexpr uint64_t kChunkBytes = 16 * kHugePageBytes;

}  // namespace

DramMemory::PageStore::~PageStore() {
  for (uint8_t* chunk : chunks_) munmap(chunk, kChunkBytes);
}

DramMemory::PageStore::Block DramMemory::PageStore::TakeBlock() {
  if (!released_.empty()) {
    const Block block = released_.back();
    released_.pop_back();
    return block;
  }
  if (chunk_rest_.next == chunk_rest_.end) {
    // Over-map by one huge page and trim both ends, so the chunk starts on
    // a 2 MiB boundary and every 2 MiB of it can be one huge page.
    void* raw = mmap(nullptr, kChunkBytes + kHugePageBytes,
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0);
    if (raw == MAP_FAILED) throw std::bad_alloc();
    const uint64_t misalign =
        reinterpret_cast<uintptr_t>(raw) & (kHugePageBytes - 1);
    const uint64_t lead = misalign == 0 ? 0 : kHugePageBytes - misalign;
    uint8_t* chunk = static_cast<uint8_t*>(raw) + lead;
    if (lead > 0) munmap(raw, lead);
    munmap(chunk + kChunkBytes, kHugePageBytes - lead);
#ifdef MADV_HUGEPAGE
    // Advice only: with transparent huge pages off the chunk keeps 4 KiB
    // pages and everything else works the same.
    madvise(chunk, kChunkBytes, MADV_HUGEPAGE);
#endif
    HotAllocProbe::Record();
    chunks_.push_back(chunk);
    chunk_rest_ = Block{chunk, chunk + kChunkBytes};
  }
  const Block block{chunk_rest_.next, chunk_rest_.next + kHugePageBytes};
  chunk_rest_.next = block.end;
  return block;
}

uint8_t* DramMemory::PageStore::NewPage(size_t arena) {
  if (!per_arena_) arena = 0;
  if (arena >= blocks_.size()) blocks_.resize(arena + 1);
  Block& block = blocks_[arena];
  if (block.next == block.end) block = TakeBlock();
  uint8_t* page = block.next;
  block.next += kPageSize;
  return page;
}

void DramMemory::PageStore::SetPerArenaBlocks(bool on) {
  per_arena_ = on;
  if (on) return;
  for (Block& block : blocks_) {
    if (block.next != block.end) released_.push_back(block);
    block = Block{};
  }
}

DramMemory::DramMemory(const TimingConfig& config) : config_(config) {
  assert(config.dram_channels > 0);
  arenas_.resize(1);
  page_tables_.resize(1);
  lanes_.resize(1);
  lanes_[0].channels.resize(config.dram_channels);
}

void DramMemory::ConfigurePartitions(uint32_t n) {
  if (n <= 1) return;  // single-partition layout == the classic one
  // Must run before any allocation or traffic: existing addresses would
  // otherwise straddle the new arena map.
  assert(arenas_.size() == 1 && arenas_[0].next_free == arenas_[0].base);
  assert(lanes_[0].in_flight == 0 && lanes_[0].seq == 0);
  partitioned_ = true;
  arenas_.resize(size_t(n) + 1);
  page_tables_.resize(size_t(n) + 1);
  for (uint32_t p = 0; p < n; ++p) {
    Addr base = (Addr(p) + 1) << kArenaShift;
    arenas_[p + 1].base = base;
    arenas_[p + 1].next_free = base;
  }
  lanes_.resize(n);
  for (Lane& l : lanes_) l.channels.resize(config_.dram_channels);
}

Addr DramMemory::AllocateIn(uint32_t partition, uint64_t size,
                            uint64_t align) {
  assert(align != 0 && (align & (align - 1)) == 0);
  Arena& arena = arenas_[ArenaIndex(partition)];
  arena.next_free = (arena.next_free + align - 1) & ~(align - 1);
  Addr out = arena.next_free;
  arena.next_free += size;
  // Extend the arena's page table over everything handed out so far. An
  // arena's index is its slot (base >> kArenaShift), and arena 0's slot
  // starts at address 0, below its base.
  std::vector<uint8_t*>& table = page_tables_[arena.base >> kArenaShift];
  const uint64_t span = arena.next_free - (arena.base & ~kArenaMask);
  const uint64_t pages =
      std::min((span + kPageSize - 1) >> kPageBits, kPagesPerArena);
  if (pages > table.size()) table.resize(pages, nullptr);
  return out;
}

uint8_t* DramMemory::PageFor(Addr addr) const {
  // Miss path of PagePtr: the page is untouched, or its address lies
  // outside every table (or was first touched there).
  const uint64_t page = addr >> kPageBits;
  const uint64_t slot = addr >> kArenaShift;
  const uint64_t idx = (addr & kArenaMask) >> kPageBits;
  const bool in_table =
      slot < page_tables_.size() && idx < page_tables_[slot].size();
  std::lock_guard<std::mutex> lock(page_mu_);
  uint8_t* ptr = nullptr;
  const auto wild = wild_pages_.find(page);
  if (wild != wild_pages_.end()) ptr = wild->second;
  if (in_table) {
    // A page touched before AllocateIn covered it moves into the table
    // with its storage, so its bytes (and any span into it) stay put.
    if (ptr != nullptr) {
      wild_pages_.erase(wild);
    } else {
      ptr = store_.NewPage(slot);
    }
    page_tables_[slot][idx] = ptr;
  } else if (ptr == nullptr) {
    ptr = store_.NewPage(0);
    wild_pages_.emplace(page, ptr);
  }
  return ptr;
}

void DramMemory::SetPerArenaPageBlocks(bool on) {
  std::lock_guard<std::mutex> lock(page_mu_);
  store_.SetPerArenaBlocks(on);
}

void DramMemory::WriteBytes(Addr addr, const void* src, uint64_t len) {
  const uint8_t* s = static_cast<const uint8_t*>(src);
  while (len > 0) {
    uint64_t off = addr & (kPageSize - 1);
    uint64_t chunk = std::min(len, kPageSize - off);
    std::memcpy(PagePtr(addr) + off, s, chunk);
    addr += chunk;
    s += chunk;
    len -= chunk;
  }
}

void DramMemory::ReadBytes(Addr addr, void* dst, uint64_t len) const {
  uint8_t* d = static_cast<uint8_t*>(dst);
  while (len > 0) {
    uint64_t off = addr & (kPageSize - 1);
    uint64_t chunk = std::min(len, kPageSize - off);
    std::memcpy(d, PagePtr(addr) + off, chunk);
    addr += chunk;
    d += chunk;
    len -= chunk;
  }
}

uint32_t DramMemory::ChannelOf(Addr addr) const {
  // Scatter-gather DIMMs interleave at fine (8 B) granularity; spread
  // consecutive words across the lane's channels as the HC-2 does.
  return static_cast<uint32_t>((addr >> 3) % config_.dram_channels);
}

bool DramMemory::AdmitRequest(Lane* lane, uint64_t now, Addr addr,
                              bool is_write, uint32_t* channel,
                              uint64_t* start) {
  *channel = ChannelOf(addr);
  Channel& ch = lane->channels[*channel];
  if (fault_hook_ != nullptr && fault_hook_->ChannelStuck(now, *channel)) {
    // A stuck-busy channel refuses admission entirely; requesters see it as
    // prolonged backpressure and keep retrying, which is exactly how a
    // wedged DIMM manifests to the pipelines.
    ++lane->fault_stuck_rejects;
    ++lane->backpressure_rejects;
    ++ch.rejects;
    if (is_write) {
      ++lane->write_rejects;
    } else {
      ++lane->read_rejects;
    }
    return false;
  }
  if (ch.queued >= config_.dram_channel_queue_depth) {
    ++lane->backpressure_rejects;
    ++ch.rejects;
    if (is_write) {
      ++lane->write_rejects;
    } else {
      ++lane->read_rejects;
    }
    return false;
  }
  *start = std::max(ch.busy_until, now);
  if (fault_hook_ != nullptr) {
    uint64_t extra = fault_hook_->ExtraLatency(now, *channel);
    if (extra > 0) {
      *start += extra;
      lane->fault_spike_cycles += extra;
    }
  }
  lane->queue_wait_cycles.Add(double(*start - now));
  ch.busy_until = *start + config_.dram_issue_gap_cycles;
  ch.issue_busy_cycles += config_.dram_issue_gap_cycles;
  ch.queued_sum += ch.queued;
  ++ch.queued;
  ++ch.issued;
  ++lane->in_flight;
  if (is_write) {
    ++lane->total_writes;
  } else {
    ++lane->total_reads;
  }
  return true;
}

bool DramMemory::Enqueue(uint64_t now, Addr addr, bool is_write,
                         bool apply_write, uint64_t write_value,
                         MemResponseQueue* sink, uint64_t cookie,
                         uint32_t snapshot_words) {
  Lane& lane = CurrentLane();
  uint32_t channel = 0;
  uint64_t start = 0;
  if (!AdmitRequest(&lane, now, addr, is_write, &channel, &start)) {
    return false;
  }
  const uint64_t complete_at = start + config_.dram_latency_cycles;
  if (sink == nullptr && !apply_write) {
    lane.posted.push(Posted{complete_at, channel});
  } else {
    if (!is_write) PrefetchLines(addr, snapshot_words);
    lane.pending.push(Pending{complete_at, lane.seq++, addr, cookie,
                              write_value, sink, snapshot_words, channel,
                              is_write, apply_write});
    if (complete_at < lane.next_delivery) lane.next_delivery = complete_at;
  }
  if (complete_at < lane.next_ready) lane.next_ready = complete_at;
  return true;
}

void DramMemory::CollectStats(StatsScope scope, uint64_t now) const {
  scope.SetCounter("reads", total_reads());
  scope.SetCounter("writes", total_writes());
  scope.SetCounter("backpressure_rejects", backpressure_rejects());
  scope.SetCounter("read_rejects", read_rejects());
  scope.SetCounter("write_rejects", write_rejects());
  scope.SetCounter("allocated_bytes", allocated_bytes());
  scope.SetSummary("queue_wait_cycles", queue_wait_cycles());
  if (fault_hook_ != nullptr) {
    // Only emitted under fault injection so unfaulted bench reports are
    // byte-identical to pre-fault builds.
    scope.SetCounter("fault_stuck_rejects", fault_stuck_rejects());
    scope.SetCounter("fault_spike_cycles", fault_spike_cycles());
  }
  StatsScope chans = scope.Sub("channels");
  for (uint32_t i = 0; i < config_.dram_channels; ++i) {
    // Channel i aggregated over lanes (lane order) so the report shape does
    // not depend on partitioning.
    uint64_t issued = 0, rejects = 0, issue_busy = 0, queued_sum = 0;
    for (const Lane& l : lanes_) {
      const Channel& ch = l.channels[i];
      issued += ch.issued;
      rejects += ch.rejects;
      issue_busy += ch.issue_busy_cycles;
      queued_sum += ch.queued_sum;
    }
    StatsScope c = chans.Sub(std::to_string(i));
    c.SetCounter("issued", issued);
    c.SetCounter("rejects", rejects);
    c.SetGauge("issue_utilization",
               now > 0 ? double(issue_busy) / double(now) : 0);
    c.SetGauge("mean_queue_occupancy",
               issued > 0 ? double(queued_sum) / double(issued) : 0);
  }
}

void DramMemory::DrainLane(uint32_t lane_idx, uint64_t now) {
  Lane& lane = lanes_[lane_idx];
  while (!lane.posted.empty() && lane.posted.top().complete_at <= now) {
    lane.channels[lane.posted.top().channel].queued--;
    lane.posted.pop();
    --lane.in_flight;
  }
  while (!lane.pending.empty() && lane.pending.top().complete_at <= now) {
    const Pending& p = lane.pending.top();
    lane.channels[p.channel].queued--;
    if (p.apply_write) Write64(p.addr, p.write_value);
    if (p.sink != nullptr) {
      MemResponse resp{p.addr, p.cookie, p.is_write, {}};
      if (!p.is_write && p.snapshot_words == 1) {
        resp.data.resize(1);
        resp.data[0] = Read64(p.addr);
      } else if (!p.is_write && p.snapshot_words > 1) {
        // One copy for a multi-word snapshot (a skiplist tower): ReadBytes
        // resolves each page once, not once per word.
        resp.data.resize(p.snapshot_words);
        ReadBytes(p.addr, resp.data.data(), 8ull * p.snapshot_words);
      }
      p.sink->push_back(std::move(resp));
    }
    lane.pending.pop();
    --lane.in_flight;
  }
  lane.next_delivery =
      lane.pending.empty() ? kNeverReady : lane.pending.top().complete_at;
  lane.next_ready = lane.posted.empty()
                        ? lane.next_delivery
                        : std::min(lane.next_delivery,
                                   lane.posted.top().complete_at);
}

}  // namespace bionicdb::sim
