// Simulated FPGA-side DRAM: functional byte store + channelised timing model.
//
// The entire database (tables, index structures, transaction blocks) lives in
// this simulated on-board DRAM, exactly as in the paper where the database
// resides entirely in the HC-2's DDR2. The model has two halves:
//
//  * Functional: a sparse, paged, byte-addressable 64-bit address space with
//    a bump allocator. Components read/write it directly; the data is always
//    "current" — ordering semantics come from *when* a component chooses to
//    perform the access (at request issue for writes, at response delivery
//    for reads), which is what makes the paper's pipeline hazards (Fig. 6/7)
//    reproducible in simulation.
//
//  * Timing: requests are routed to one of N channels by address; a channel
//    accepts one request per issue-gap, queues up to a configured depth
//    (backpressure beyond that) and completes each request a fixed latency
//    after service starts. Completions are delivered into the requester's
//    response queue during DramMemory::Tick.
//
// Partitioned operation (ConfigurePartitions): the DORA-style engine gives
// every partition worker a private slice of the address space (an "arena")
// and a private copy of the channel array (a "lane", the per-worker memory
// channels of Fig. 1b). A worker reaches a foreign arena only through the
// message fabric. Bulk loading names the arena it allocates from
// (AllocateIn). Timed accesses, and the allocations of blocks the
// simulator ticks, use the memory's partition context instead: a plain
// member the simulator sets per component, single-threaded routing state.
// With one partition (or when never configured) the layout is
// bit-identical to the original single-arena, single-lane model.
//
// Threads: the memory is single-threaded, except that host threads may
// allocate in, and read and write, distinct partition arenas concurrently
// (db::Database::Populate). Page creation is the one shared step, and it
// takes a lock.
//
// Host storage (DESIGN.md section 15.5) never changes a modelled result:
// each arena has a flat page table over the span its allocator handed out,
// pages live in huge-page-advised anonymous mappings, and a timed read with
// a response prefetches the host lines its completion reads at issue, so
// the completion finds them in cache.
#ifndef BIONICDB_SIM_MEMORY_H_
#define BIONICDB_SIM_MEMORY_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "sim/arena.h"
#include "sim/config.h"

namespace bionicdb::sim {

/// Address type within the simulated DRAM. 0 is the null address.
using Addr = uint64_t;
constexpr Addr kNullAddr = 0;

/// Word snapshot attached to a completed read. Single-word snapshots (the
/// overwhelmingly common case: tuple headers, bucket heads) live inline;
/// only full skiplist tower snapshots spill to the heap.
// Inline capacity covers the largest snapshot any pipeline requests (a
// full skiplist tower: header + kSkiplistMaxHeight links), so steady-state
// DRAM responses never touch the heap.
using MemWords = InlineVec<uint64_t, 24>;

/// Completion record delivered to the requester when a memory request
/// finishes. `cookie` is an opaque requester-defined value identifying what
/// the request was for (e.g. which in-flight DB instruction).
struct MemResponse {
  Addr addr = kNullAddr;
  uint64_t cookie = 0;
  bool is_write = false;
  /// Optional value snapshot taken when the request completes (see
  /// Issue(..., snapshot_words)). This is what makes pipeline hazards
  /// faithful: a read serviced before a concurrent in-flight write returns
  /// the old contents, exactly like real DRAM, even though the functional
  /// store itself is always "current".
  MemWords data;
};

/// Requesters own one of these; DRAM pushes completions into it.
using MemResponseQueue = RingQueue<MemResponse>;

/// Fault-injection surface of the DRAM model (implemented by
/// fault::FaultScheduler). All methods are consulted only when a hook is
/// installed, so the unfaulted simulation pays a single null-pointer check.
///
/// Determinism contract: implementations must derive every decision from
/// state advanced by their own simulator Tick (seeded RNG), never from
/// wall-clock or allocation addresses of the host process, so the same seed
/// reproduces the same fault schedule bit-for-bit.
class DramFaultHook {
 public:
  virtual ~DramFaultHook() = default;

  /// Extra service latency (cycles) for a request admitted at `now` on
  /// `channel` — models a transient latency spike window.
  virtual uint64_t ExtraLatency(uint64_t now, uint32_t channel) = 0;

  /// True while `channel` is stuck busy: every admission is rejected,
  /// which the requesters experience as prolonged backpressure.
  virtual bool ChannelStuck(uint64_t now, uint32_t channel) = 0;

  /// A tuple was initialised at `addr` (integrity-guard registration: the
  /// hook records a CRC32 over the tuple's immutable header fields + key).
  virtual void OnTupleAllocated(Addr addr) = 0;

  /// Recomputes the integrity code of the tuple at `addr` against the
  /// recorded one. False = corruption detected; the accessing pipeline
  /// must fail the op so the transaction aborts (never a silent wrong
  /// answer).
  virtual bool VerifyTuple(Addr addr) = 0;
};

class DramMemory {
 public:
  /// Partition context value meaning "the host" — allocations go to the
  /// shared arena 0, timed accesses to lane 0.
  static constexpr uint32_t kHostPartition = UINT32_MAX;
  /// Lane::next_ready sentinel: no request in flight on the lane.
  static constexpr uint64_t kNeverReady = UINT64_MAX;

  explicit DramMemory(const TimingConfig& config);

  /// Splits the address space and the channel model into per-partition
  /// arenas and lanes (see the header comment). Must be called before any
  /// allocation or timed traffic; `n <= 1` keeps the original single-
  /// arena, single-lane layout bit-for-bit.
  void ConfigurePartitions(uint32_t n);
  bool partitioned() const { return partitioned_; }

  /// Partition context: the arena Allocate and the lane Issue and
  /// IssueWrite64 use. The simulator's component loop sets it per
  /// component, with one save/restore pair around the whole loop; host
  /// code outside run calls sees kHostPartition.
  uint32_t PartitionContext() const { return partition_; }
  void SetPartitionContext(uint32_t partition) { partition_ = partition; }

  /// Arena index owning `addr` (0 = host/shared, r+1 = partition r).
  uint32_t ArenaOf(Addr addr) const {
    if (!partitioned_) return 0;
    uint64_t a = addr >> kArenaShift;
    return a < arenas_.size() ? uint32_t(a) : 0;
  }
  uint32_t n_arenas() const { return uint32_t(arenas_.size()); }
  /// True when `partition` may access `addr` directly: un-partitioned
  /// memory, the shared host arena (transaction blocks), or the
  /// partition's own arena. Foreign addresses must go through the message
  /// fabric (softcore remote LOAD/STORE/commit publication).
  bool IsLocalTo(Addr addr, uint32_t partition) const {
    uint32_t arena = ArenaOf(addr);
    return arena == 0 || arena - 1 == partition;
  }
  /// Partition owning `addr`'s arena (callers check !IsLocalTo first; the
  /// shared arena defensively maps to partition 0).
  uint32_t OwnerPartition(Addr addr) const {
    uint32_t arena = ArenaOf(addr);
    return arena == 0 ? 0 : arena - 1;
  }

  // --- Functional interface -------------------------------------------

  /// Allocates `size` bytes (aligned to `align`) from `partition`'s arena
  /// bump allocator (kHostPartition, or any partition of an unpartitioned
  /// memory: the shared arena 0). No address is handed out twice, and
  /// bytes nobody has written read as zero. Threads may allocate in
  /// distinct arenas concurrently.
  Addr AllocateIn(uint32_t partition, uint64_t size, uint64_t align = 8);
  /// AllocateIn under the current partition context: the allocations of
  /// blocks the simulator ticks, and of host code between run calls.
  Addr Allocate(uint64_t size, uint64_t align = 8) {
    return AllocateIn(partition_, size, align);
  }
  /// The span [base, end) `arena`'s allocator has handed out so far.
  std::pair<Addr, Addr> ArenaSpan(uint32_t arena) const {
    return {arenas_[arena].base, arenas_[arena].next_free};
  }

  /// Page placement for a parallel load. While on, each arena takes its
  /// new pages from a block of its own, so threads loading distinct arenas
  /// never fault in the same huge page. Off (the default), every arena
  /// takes pages from one shared block, in creation order, which keeps at
  /// most one huge page partly used. Turning it off gives the unused rest
  /// of every block back to the store, which hands such remainders out
  /// before it carves new blocks: later pages, of any arena, first fill
  /// huge pages that are already resident.
  void SetPerArenaPageBlocks(bool on);

  /// Raw byte accessors. Accessing unallocated space is allowed (pages are
  /// materialised on demand and zero-filled), matching real DRAM.
  void WriteBytes(Addr addr, const void* src, uint64_t len);
  void ReadBytes(Addr addr, void* dst, uint64_t len) const;

  // Fixed-width accessors, inline with a single-page fast path: a page
  // already in its arena's table resolves to one memcpy with no function
  // call. Accesses straddling a 64 KiB page boundary (and first touches)
  // take the out-of-line path.
  uint64_t Read64(Addr addr) const {
    const uint64_t off = addr & (kPageSize - 1);
    if (off <= kPageSize - 8) {
      uint64_t v;
      std::memcpy(&v, PagePtr(addr) + off, 8);
      return v;
    }
    uint64_t v;
    ReadBytes(addr, &v, 8);
    return v;
  }
  void Write64(Addr addr, uint64_t value) {
    const uint64_t off = addr & (kPageSize - 1);
    if (off <= kPageSize - 8) {
      std::memcpy(PagePtr(addr) + off, &value, 8);
      return;
    }
    WriteBytes(addr, &value, 8);
  }
  uint32_t Read32(Addr addr) const {
    const uint64_t off = addr & (kPageSize - 1);
    if (off <= kPageSize - 4) {
      uint32_t v;
      std::memcpy(&v, PagePtr(addr) + off, 4);
      return v;
    }
    uint32_t v;
    ReadBytes(addr, &v, 4);
    return v;
  }
  void Write32(Addr addr, uint32_t value) {
    const uint64_t off = addr & (kPageSize - 1);
    if (off <= kPageSize - 4) {
      std::memcpy(PagePtr(addr) + off, &value, 4);
      return;
    }
    WriteBytes(addr, &value, 4);
  }
  uint8_t Read8(Addr addr) const {
    return PagePtr(addr)[addr & (kPageSize - 1)];
  }
  void Write8(Addr addr, uint8_t value) {
    PagePtr(addr)[addr & (kPageSize - 1)] = value;
  }

  /// Span of `addr`'s page from `addr` to the page end — a window callers
  /// may read directly (key comparisons) without per-byte accessor calls.
  /// The pointer stays valid for the DramMemory's lifetime.
  const uint8_t* ReadSpan(Addr addr, uint64_t* span_len) const {
    const uint64_t off = addr & (kPageSize - 1);
    *span_len = kPageSize - off;
    return PagePtr(addr) + off;
  }

  /// Bytes handed out by the allocator so far (database footprint, summed
  /// over all arenas).
  uint64_t allocated_bytes() const {
    uint64_t total = 0;
    for (const Arena& a : arenas_) total += a.next_free - a.base;
    return total;
  }

  // --- Timing interface -----------------------------------------------

  /// Attempts to enqueue a memory request at cycle `now` on the current
  /// partition context's lane. Returns false when the target channel's
  /// queue is full (the requester must retry — this is how DRAM
  /// backpressure propagates into the pipelines). When `sink` is null the
  /// completion is dropped (fire-and-forget write). For reads,
  /// `snapshot_words` 64-bit words starting at `addr` are copied into the
  /// response at completion time.
  bool Issue(uint64_t now, Addr addr, bool is_write, MemResponseQueue* sink,
             uint64_t cookie, uint32_t snapshot_words = 0) {
    return Enqueue(now, addr, is_write, /*apply_write=*/false,
                   /*write_value=*/0, sink, cookie, snapshot_words);
  }

  /// A write whose FUNCTIONAL effect lands at service-completion time, with
  /// an acknowledgment response. This is the ordering-sensitive write path:
  /// index-structure pointer updates use it so that racing reads serviced
  /// before the write completes see the old value — the physical basis of
  /// the paper's pipeline hazards (Figures 6/7).
  bool IssueWrite64(uint64_t now, Addr addr, uint64_t value,
                    MemResponseQueue* sink, uint64_t cookie) {
    return Enqueue(now, addr, /*is_write=*/true, /*apply_write=*/true, value,
                   sink, cookie, /*snapshot_words=*/0);
  }

  /// Delivers all completions due at or before `now` (every lane). Inline
  /// fast path: one compare per lane against its cached next completion
  /// cycle.
  void Tick(uint64_t now) {
    for (uint32_t i = 0; i < lanes_.size(); ++i) {
      if (now >= lanes_[i].next_ready) DrainLane(i, now);
    }
  }

  /// True when no requests are in flight on any lane.
  bool Idle() const {
    for (const Lane& l : lanes_) {
      if (l.in_flight != 0) return false;
    }
    return true;
  }

  /// Event-driven scheduling hint: the earliest cycle at which an in-flight
  /// request completes (Tick before then is a pure no-op), or kNeverWakes
  /// with nothing in flight. Queried post-Tick, so the head completion is
  /// always in the future; clamped defensively anyway.
  uint64_t NextWakeCycle(uint64_t now) const {
    uint64_t wake = UINT64_MAX;
    for (const Lane& l : lanes_) {
      if (l.next_ready == kNeverReady) continue;
      const uint64_t w = l.next_ready > now ? l.next_ready : now + 1;
      if (w < wake) wake = w;
    }
    return wake;
  }

  /// The lane timed accesses use under partition context `partition` (the
  /// host context and out-of-range partitions share lane 0).
  uint32_t LaneOf(uint32_t partition) const {
    if (!partitioned_ || partition == kHostPartition) return 0;
    return partition < lanes_.size() ? partition : 0;
  }
  /// True when Tick(now) delivers at least one completion on `lane` that
  /// a block can see: a response into a sink, or a write applied at
  /// completion. Posted completions (no sink, nothing applied) only free
  /// their channel slot, so the simulator wakes no block for them; the
  /// clock still stops at them (NextWakeCycle), which keeps channel
  /// occupancy and backpressure exact.
  bool LaneDue(uint32_t lane, uint64_t now) const {
    return now >= lanes_[lane].next_delivery;
  }

  uint64_t total_reads() const { return SumLanes(&Lane::total_reads); }
  uint64_t total_writes() const { return SumLanes(&Lane::total_writes); }
  uint64_t backpressure_rejects() const {
    return SumLanes(&Lane::backpressure_rejects);
  }
  uint64_t read_rejects() const { return SumLanes(&Lane::read_rejects); }
  uint64_t write_rejects() const { return SumLanes(&Lane::write_rejects); }

  /// Queueing delay (cycles between request issue and service start)
  /// across all accepted requests — the congestion half of DRAM latency;
  /// the service half is the fixed dram_latency_cycles. Merged over lanes
  /// in lane order (exact copy with a single lane).
  Summary queue_wait_cycles() const {
    Summary merged;
    for (const Lane& l : lanes_) merged.MergeFrom(l.queue_wait_cycles);
    return merged;
  }

  /// Dumps per-channel utilisation, queue occupancy and the
  /// backpressure-reject breakdown under `scope`. `now` is the current
  /// simulated cycle (utilisation denominator). Per-channel figures are
  /// summed over lanes in lane order, so the JSON shape is independent of
  /// partitioning.
  void CollectStats(StatsScope scope, uint64_t now) const;

  const TimingConfig& config() const { return config_; }

  // --- Fault injection --------------------------------------------------

  /// Installs (or clears, with nullptr) the fault hook. The DRAM does not
  /// take ownership; with no hook every fault path is a dead branch.
  void set_fault_hook(DramFaultHook* hook) { fault_hook_ = hook; }
  DramFaultHook* fault_hook() const { return fault_hook_; }

  /// Called by db::AllocateTuple so the fault subsystem can register an
  /// integrity guard over the new tuple. No-op without a hook.
  void NotifyTupleAllocated(Addr addr) {
    if (fault_hook_ != nullptr) fault_hook_->OnTupleAllocated(addr);
  }

  /// Integrity check the index pipelines run before trusting a tuple's
  /// header/key bytes. Always passes without a hook.
  bool VerifyTupleGuard(Addr addr) {
    return fault_hook_ == nullptr || fault_hook_->VerifyTuple(addr);
  }

  /// Admissions rejected because the target channel was fault-stuck.
  uint64_t fault_stuck_rejects() const {
    return SumLanes(&Lane::fault_stuck_rejects);
  }
  /// Total extra latency cycles added by injected spikes.
  uint64_t fault_spike_cycles() const {
    return SumLanes(&Lane::fault_spike_cycles);
  }

 private:
  static constexpr uint64_t kPageBits = 16;  // 64 KiB pages
  static constexpr uint64_t kPageSize = 1ull << kPageBits;
  static constexpr Addr kHeapBase = 0x1000;  // keep low addresses unmapped
  /// Partition arenas start at (partition + 1) << kArenaShift: 1 TiB slices
  /// a bump allocator never crosses, so the arena of an address is its top
  /// bits — no lookup table.
  static constexpr uint64_t kArenaShift = 40;
  static constexpr uint64_t kArenaMask = (1ull << kArenaShift) - 1;
  /// Most entries one arena's page table can have (its 1 TiB slice).
  static constexpr uint64_t kPagesPerArena = 1ull << (kArenaShift - kPageBits);

  struct Pending {
    uint64_t complete_at;
    uint64_t seq;  // tie-break for deterministic delivery order
    Addr addr;
    uint64_t cookie;
    uint64_t write_value;  // value applied at completion
    MemResponseQueue* sink;
    uint32_t snapshot_words;
    uint32_t channel;      // ChannelOf(addr), fixed at admission
    bool is_write;
    bool apply_write;      // delayed-apply write (see IssueWrite64)
    bool operator>(const Pending& o) const {
      if (complete_at != o.complete_at) return complete_at > o.complete_at;
      return seq > o.seq;
    }
  };
  static_assert(sizeof(Pending) == 64, "Pending fills one cache line");

  /// A posted completion: no sink and no applied write, so draining it
  /// only frees its channel slot. Posted completions commute with every
  /// other completion drained in the same Tick, so they need no sequence.
  struct Posted {
    uint64_t complete_at;
    uint32_t channel;
    bool operator>(const Posted& o) const {
      return complete_at > o.complete_at;
    }
  };

  struct Channel {
    uint64_t busy_until = 0;
    uint32_t queued = 0;
    // Observability (per-channel breakdowns for CollectStats).
    uint64_t issued = 0;
    uint64_t rejects = 0;
    uint64_t issue_busy_cycles = 0;  // cycles spent issuing requests
    uint64_t queued_sum = 0;         // sum of occupancy sampled per issue
  };

  /// One partition's private timing model: its own channel array,
  /// completion queues and counters.
  struct Lane {
    std::vector<Channel> channels;
    /// Completions that deliver (a response or an applied write), in
    /// (complete_at, seq) order.
    std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>
        pending;
    std::priority_queue<Posted, std::vector<Posted>, std::greater<Posted>>
        posted;
    /// Earliest completion of either queue (kNeverReady when both are
    /// empty), so the per-cycle Tick probe is one hot-field compare instead
    /// of a priority-queue touch. Maintained on every push/pop.
    uint64_t next_ready = kNeverReady;
    /// Earliest delivering completion (pending's head): LaneDue.
    uint64_t next_delivery = kNeverReady;
    uint64_t seq = 0;
    uint64_t in_flight = 0;
    uint64_t total_reads = 0;
    uint64_t total_writes = 0;
    uint64_t backpressure_rejects = 0;
    uint64_t read_rejects = 0;
    uint64_t write_rejects = 0;
    uint64_t fault_stuck_rejects = 0;
    uint64_t fault_spike_cycles = 0;
    Summary queue_wait_cycles;
  };

  /// One partition's private address-space slice.
  struct Arena {
    Addr base = kHeapBase;
    Addr next_free = kHeapBase;
  };

  /// Common admission path: channel lookup, backpressure check, occupancy
  /// accounting. Returns false on reject (counters updated); otherwise
  /// sets `*channel` to the request's channel and `*start` to its service
  /// start cycle.
  bool AdmitRequest(Lane* lane, uint64_t now, Addr addr, bool is_write,
                    uint32_t* channel, uint64_t* start);

  /// Shared body of Issue and IssueWrite64: admits the request on the
  /// current lane and queues its completion dram_latency_cycles after
  /// service starts.
  bool Enqueue(uint64_t now, Addr addr, bool is_write, bool apply_write,
               uint64_t write_value, MemResponseQueue* sink, uint64_t cookie,
               uint32_t snapshot_words);

  /// Tick slow path: delivers every completion due at or before `now`
  /// and refreshes the lane's next_ready cache.
  void DrainLane(uint32_t lane, uint64_t now);

  Lane& CurrentLane() { return lanes_[LaneOf(partition_)]; }
  /// Index of the arena `partition` allocates from.
  uint32_t ArenaIndex(uint32_t partition) const {
    if (!partitioned_ || partition == kHostPartition) return 0;
    const uint64_t idx = uint64_t(partition) + 1;
    return idx < arenas_.size() ? uint32_t(idx) : 0;
  }

  uint64_t SumLanes(uint64_t Lane::* field) const {
    uint64_t total = 0;
    for (const Lane& l : lanes_) total += l.*field;
    return total;
  }

  /// Host storage for simulated pages: kPageSize pages, handed out in
  /// blocks of one huge page, from kChunkBytes anonymous mappings that are
  /// 2 MiB-aligned and advised for transparent huge pages (see
  /// SetPerArenaPageBlocks for which block a page comes from). The kernel
  /// zero-fills a mapping on first touch, so a fresh page reads as zero
  /// without a memset. Pages live until the store is destroyed, which
  /// unmaps every chunk. Callers hold DramMemory::page_mu_.
  class PageStore {
   public:
    PageStore() = default;
    ~PageStore();
    PageStore(const PageStore&) = delete;
    PageStore& operator=(const PageStore&) = delete;

    /// A fresh zero-filled page from `arena`'s block, or from the shared
    /// block with per-arena blocks off. A used-up block is replaced by a
    /// released remainder if any, else by the next huge page of the
    /// current chunk; a new chunk is mapped (counted through HotAllocProbe)
    /// when that one is used up.
    uint8_t* NewPage(size_t arena);

    /// Switches per-arena blocks on or off; off moves the unused rest of
    /// every block to the released list.
    void SetPerArenaBlocks(bool on);

   private:
    struct Block {
      uint8_t* next = nullptr;
      uint8_t* end = nullptr;
    };
    Block TakeBlock();

    std::vector<uint8_t*> chunks_;
    Block chunk_rest_;             // the newest chunk's uncarved huge pages
    std::vector<Block> released_;  // unused block remainders, reused first
    std::vector<Block> blocks_;    // by arena; blocks_[0] is also the shared one
    bool per_arena_ = false;
  };

  /// `addr`'s page if its arena's table holds it, else nullptr (never
  /// creates a page). A hit is three dependent loads: no hashing, no lock.
  uint8_t* TablePage(Addr addr) const {
    const uint64_t slot = addr >> kArenaShift;
    if (slot >= page_tables_.size()) return nullptr;
    const std::vector<uint8_t*>& table = page_tables_[slot];
    const uint64_t idx = (addr & kArenaMask) >> kPageBits;
    return idx < table.size() ? table[idx] : nullptr;
  }

  /// Resolves `addr`'s page: inline on a table hit, out-of-line (PageFor)
  /// otherwise. Const because reads of never-written pages materialise
  /// them lazily as zero-filled, matching real DRAM.
  uint8_t* PagePtr(Addr addr) const {
    uint8_t* page = TablePage(addr);
    return page != nullptr ? page : PageFor(addr);
  }

  /// Starts loading the host lines a timed read's completion reads, if
  /// `addr`'s page exists: [addr, addr + max(8 x snapshot_words, 64)),
  /// cut at the page end. The completion snapshots those words and its
  /// requester compares keys in them, ~dram_latency_cycles later. The hint
  /// never creates a page or changes a byte.
  void PrefetchLines(Addr addr, uint32_t snapshot_words) const {
    const uint8_t* page = TablePage(addr);
    if (page == nullptr) return;
    const uint64_t off = addr & (kPageSize - 1);
    const uint64_t len = std::max<uint64_t>(8ull * snapshot_words, 64);
    const uint64_t end = std::min(off + len, kPageSize);
    for (uint64_t line = off & ~uint64_t(63); line < end; line += 64) {
      // GCC 12 at -O2 emits nothing for __builtin_prefetch (or
      // _mm_prefetch) of this page-table-loaded address, so x86-64 issues
      // the instruction itself; the ctest sim_prefetch_emitted checks the
      // built library still holds it.
#if defined(__x86_64__)
      asm volatile("prefetcht0 %0" : : "m"(page[line]));
#else
      __builtin_prefetch(page + line);
#endif
    }
  }

  /// Table-miss path of PagePtr: creates (or moves in) `addr`'s page
  /// under page_mu_.
  uint8_t* PageFor(Addr addr) const;
  uint32_t ChannelOf(Addr addr) const;

  TimingConfig config_;
  /// Partition context (see PartitionContext).
  uint32_t partition_ = kHostPartition;
  // The page directory. Table `s` covers address slot s (addr >>
  // kArenaShift, the arena index) and is indexed by page number inside the
  // slot; AllocateIn grows it over the arena's allocated span, and an
  // entry stays null until the page is first touched. Only the thread
  // using an arena reads or writes its table. Pages first touched outside
  // every table (wild addresses, or ahead of the allocator) live in
  // wild_pages_, keyed by full page number; PageFor moves one into a table
  // that has grown over it.
  // Mutable: reads of untouched memory create its page.
  mutable std::vector<std::vector<uint8_t*>> page_tables_;
  mutable std::mutex page_mu_;  // guards wild_pages_ and store_
  mutable std::unordered_map<uint64_t, uint8_t*> wild_pages_;
  mutable PageStore store_;

  bool partitioned_ = false;
  std::vector<Arena> arenas_;
  std::vector<Lane> lanes_;
  DramFaultHook* fault_hook_ = nullptr;
};

}  // namespace bionicdb::sim

#endif  // BIONICDB_SIM_MEMORY_H_
