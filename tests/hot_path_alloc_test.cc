// Steady-state heap-allocation audit for the simulation hot path.
//
// The dense-activity speedup work (DESIGN.md section 15) replaced the hot
// path's per-cycle heap traffic — std::vector keys, snapshot vectors,
// std::deque FIFO block churn — with inline/ring containers that reach a
// warm high-water mark and then stop allocating. This test pins
// that property down so it cannot silently regress: it overrides global
// operator new/delete with counting wrappers, warms an engine on a YCSB
// burst, and then asserts that a steady-state simulation window performs
// ZERO heap allocations — from the counted global
// operators and from sim::HotAllocProbe (the inline/ring heap fallback
// and DRAM page-store mapping tally) alike. Two windows are audited, a
// read-only one (hash pipeline) and a scan-only one (skiplist traversal
// and scanners), each twice: once on the per-cycle loop, once in the
// default event-driven mode, whose per-block scheduling and clock jumps
// must stay allocation-free too.
//
// The audit runs single-threaded by construction (one host thread per
// engine, no driver threads), so the process-global counters attribute
// every allocation to the simulation loop under test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define BIONICDB_HAVE_BACKTRACE 1
#endif

#include "common/random.h"
#include "core/engine.h"
#include "sim/arena.h"
#include "workload/ycsb.h"

namespace {
std::atomic<uint64_t> g_heap_allocs{0};
// Armed by the test around the measured window when BIONICDB_ALLOC_TRAP is
// set: the first steady-state allocation aborts, so a debugger backtrace
// lands on the offending call site instead of a post-hoc counter delta.
std::atomic<bool> g_trap{false};

void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (g_trap.load(std::memory_order_relaxed)) {
    g_trap.store(false, std::memory_order_relaxed);  // don't recurse
#ifdef BIONICDB_HAVE_BACKTRACE
    void* frames[32];
    int n = backtrace(frames, 32);
    backtrace_symbols_fd(frames, n, 2);
#endif
    std::abort();
  }
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Counting overrides for the plain (unaligned) global allocation forms —
// the only forms the simulator's containers use. Over-aligned allocations
// fall through to the default aligned operator new/delete pair, which is
// self-consistent and outside this audit.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bionicdb {
namespace {

/// One audited steady-state window: the workload, the burst queued up
/// front, and the warmup and measured spans.
struct WindowSpec {
  workload::YcsbOptions ycsb;
  uint32_t max_contexts = 32;
  uint64_t txns_per_worker = 0;
  uint64_t warmup_cycles = 0;
  uint64_t window_cycles = 0;
};

/// Read-only YCSB: every hash pipeline stage, DRAM lane and softcore path
/// of a point-read transaction.
WindowSpec ReadOnlyWindow() {
  WindowSpec spec;
  spec.ycsb.mode = workload::YcsbOptions::Mode::kReadOnly;
  spec.ycsb.accesses_per_txn = 8;
  spec.ycsb.records_per_partition = 1'000;
  spec.ycsb.payload_len = 64;
  // A burst big enough to outlast warmup + measurement (~19k cycles of
  // work at this configuration).
  spec.txns_per_worker = 200;
  spec.warmup_cycles = 6'000;
  spec.window_cycles = 4'000;
  return spec;
}

/// Scan-only YCSB-E: the skiplist traversal stages and scanners, which
/// visit one tower per DRAM read. Short scans and few contexts keep
/// batches small, so commits land inside the window (about 24 of them);
/// the long warmup fills every DRAM lane's queue-wait reservoir.
WindowSpec ScanOnlyWindow() {
  WindowSpec spec;
  spec.ycsb.mode = workload::YcsbOptions::Mode::kScanOnly;
  spec.ycsb.scan_len = 10;
  spec.ycsb.records_per_partition = 1'000;
  spec.ycsb.payload_len = 64;
  spec.max_contexts = 4;
  spec.txns_per_worker = 200;
  spec.warmup_cycles = 100'000;
  spec.window_cycles = 20'000;
  return spec;
}

void AuditSteadyStateWindow(const sim::TimingConfig& timing,
                            const WindowSpec& spec) {
  core::EngineOptions opts;
  opts.n_workers = 2;
  opts.timing = timing;
  opts.softcore.max_contexts = spec.max_contexts;
  core::BionicDb engine(opts);

  workload::Ycsb ycsb(&engine, spec.ycsb);
  ASSERT_TRUE(ycsb.Setup().ok());

  // Queue the burst up front, so the measured window is genuinely dense
  // steady state rather than drain-to-idle. All block allocation and
  // host-side writes happen here, before either window.
  Rng rng(42);
  for (uint32_t w = 0; w < opts.n_workers; ++w) {
    for (uint64_t i = 0; i < spec.txns_per_worker; ++i) {
      engine.Submit(w, ycsb.MakeTxn(&rng, w));
    }
  }

  // Warmup: queues and rings reach their high-water marks, every hot
  // stats slot is bound.
  engine.Step(spec.warmup_cycles);
  const uint64_t committed_warm = engine.TotalCommitted();
  ASSERT_GT(committed_warm, 0u) << "warmup window committed nothing";

  const sim::Simulator::WarpStats before = engine.simulator().warp_stats();
  const uint64_t heap_before = g_heap_allocs.load(std::memory_order_relaxed);
  const uint64_t probe_before = sim::HotAllocProbe::Count();
  if (std::getenv("BIONICDB_ALLOC_TRAP") != nullptr) g_trap.store(true);
  engine.Step(spec.window_cycles);
  g_trap.store(false);
  const sim::Simulator::WarpStats after = engine.simulator().warp_stats();
  const uint64_t heap_delta =
      g_heap_allocs.load(std::memory_order_relaxed) - heap_before;
  const uint64_t probe_delta = sim::HotAllocProbe::Count() - probe_before;

  // The window must have been live on both ends: commits advanced, and
  // work remained queued when it closed.
  const uint64_t committed_after = engine.TotalCommitted();
  EXPECT_GT(committed_after, committed_warm)
      << "measured window committed nothing — not a steady-state sample";
  EXPECT_LT(committed_after, opts.n_workers * spec.txns_per_worker)
      << "burst drained before the window closed — widen the burst";
  const uint64_t warps = after.warps - before.warps;
  if (timing.event_driven) {
    // The window exercised the event-driven paths: clock jumps, and
    // blocks sleeping through cycles in which others ticked.
    EXPECT_GT(warps, 0u) << "event-driven window took no warp";
    const uint64_t ticked_cycles =
        spec.window_cycles - (after.skipped_cycles - before.skipped_cycles);
    EXPECT_LT(after.block_ticks - before.block_ticks,
              engine.simulator().components().size() * ticked_cycles)
        << "every block ticked in every ticked cycle: no per-block gating";
  } else {
    EXPECT_EQ(warps, 0u);
  }

  EXPECT_EQ(heap_delta, 0u)
      << "hot path heap-allocated during steady state";
  EXPECT_EQ(probe_delta, 0u)
      << "inline/ring containers spilled to the heap, or the DRAM page "
         "store mapped a chunk, during steady state (HotAllocProbe)";
}

sim::TimingConfig PerCycle() {
  sim::TimingConfig t;
  t.event_driven = false;
  return t;
}

TEST(HotPathAlloc, SteadyStateWindowPerformsZeroHeapAllocations) {
  AuditSteadyStateWindow(PerCycle(), ReadOnlyWindow());
}

TEST(HotPathAlloc, EventDrivenWindowPerformsZeroHeapAllocations) {
  AuditSteadyStateWindow(sim::TimingConfig(), ReadOnlyWindow());  // default
}

TEST(HotPathAlloc, ScanWindowPerformsZeroHeapAllocations) {
  AuditSteadyStateWindow(PerCycle(), ScanOnlyWindow());
}

TEST(HotPathAlloc, EventDrivenScanWindowPerformsZeroHeapAllocations) {
  AuditSteadyStateWindow(sim::TimingConfig(), ScanOnlyWindow());
}

}  // namespace
}  // namespace bionicdb
