// Steady-state heap-allocation audit for the simulation hot path.
//
// The dense-activity speedup work (DESIGN.md section 15) replaced the hot
// path's per-cycle heap traffic — std::vector keys, snapshot vectors,
// std::deque FIFO block churn — with inline/arena/ring containers that
// reach a warm high-water mark and then stop allocating. This test pins
// that property down so it cannot silently regress: it overrides global
// operator new/delete with counting wrappers, warms an engine on a
// read-only YCSB burst, and then asserts that a steady-state simulation
// window performs ZERO heap allocations — from the counted global
// operators and from sim::HotAllocProbe (the arena/inline/ring heap
// fallback tally) alike. The same window is audited twice: once on the
// per-cycle loop, once in the default event-driven mode, whose wake polls
// and warps must stay allocation-free too.
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

void AuditSteadyStateWindow(const sim::TimingConfig& timing) {
  core::EngineOptions opts;
  opts.n_workers = 2;
  opts.timing = timing;
  core::BionicDb engine(opts);

  workload::YcsbOptions yopts;
  yopts.mode = workload::YcsbOptions::Mode::kReadOnly;
  yopts.accesses_per_txn = 8;
  yopts.records_per_partition = 1'000;
  yopts.payload_len = 64;
  workload::Ycsb ycsb(&engine, yopts);
  ASSERT_TRUE(ycsb.Setup().ok());

  // Queue a burst big enough to outlast warmup + measurement (~19k cycles
  // of work at this configuration), so the measured window is genuinely
  // dense steady state rather than drain-to-idle. All block allocation and
  // host-side writes happen here, before either window.
  constexpr uint64_t kTxnsPerWorker = 200;
  Rng rng(42);
  for (uint32_t w = 0; w < opts.n_workers; ++w) {
    for (uint64_t i = 0; i < kTxnsPerWorker; ++i) {
      engine.Submit(w, ycsb.MakeTxn(&rng, w));
    }
  }

  // Warmup: queues reach occupancy, arenas and rings hit their high-water
  // marks, every hot stats slot is bound.
  engine.Step(6'000);
  const uint64_t committed_warm = engine.TotalCommitted();
  ASSERT_GT(committed_warm, 0u) << "warmup window committed nothing";

  const uint64_t warps_before = engine.simulator().warp_stats().warps;
  const uint64_t heap_before = g_heap_allocs.load(std::memory_order_relaxed);
  const uint64_t probe_before = sim::HotAllocProbe::Count();
  if (std::getenv("BIONICDB_ALLOC_TRAP") != nullptr) g_trap.store(true);
  engine.Step(4'000);
  g_trap.store(false);
  const uint64_t warps = engine.simulator().warp_stats().warps - warps_before;
  const uint64_t heap_delta =
      g_heap_allocs.load(std::memory_order_relaxed) - heap_before;
  const uint64_t probe_delta = sim::HotAllocProbe::Count() - probe_before;

  // The window must have been live on both ends: commits advanced, and
  // work remained queued when it closed.
  const uint64_t committed_after = engine.TotalCommitted();
  EXPECT_GT(committed_after, committed_warm)
      << "measured window committed nothing — not a steady-state sample";
  EXPECT_LT(committed_after, opts.n_workers * kTxnsPerWorker)
      << "burst drained before the window closed — widen the burst";
  // An event-driven window must have exercised the warp path.
  if (timing.event_driven) {
    EXPECT_GT(warps, 0u) << "event-driven window took no warp";
  } else {
    EXPECT_EQ(warps, 0u);
  }

  EXPECT_EQ(heap_delta, 0u)
      << "hot path heap-allocated during steady state";
  EXPECT_EQ(probe_delta, 0u)
      << "arena/inline/ring containers spilled to the heap during steady "
         "state (HotAllocProbe)";
}

TEST(HotPathAlloc, SteadyStateWindowPerformsZeroHeapAllocations) {
  sim::TimingConfig per_cycle;
  per_cycle.event_driven = false;
  AuditSteadyStateWindow(per_cycle);
}

TEST(HotPathAlloc, EventDrivenWindowPerformsZeroHeapAllocations) {
  AuditSteadyStateWindow(sim::TimingConfig());  // the default mode
}

}  // namespace
}  // namespace bionicdb
