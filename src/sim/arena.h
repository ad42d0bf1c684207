// Hot-path allocation primitives for the cycle engine.
//
// The dense-activity simulation regime (every worker busy, little stall
// time) executes millions of ticks per host second, and profiling showed
// the steady-state cost was dominated not by the modelled hardware but by
// simulator bookkeeping: per-op std::vector keys, per-response snapshot
// vectors, and std::deque block churn on every FIFO the pipelines own.
// This header provides the two replacements (DESIGN.md section 15):
//
//  * InlineVec<T, N> — vector with N elements of inline storage; the
//    common small case (snapshot reads, index keys) never allocates and
//    moves are memcpy-cheap. Spilling to the heap is counted, not
//    forbidden: rare big cases (skiplist tower snapshots) stay correct.
//
//  * RingQueue<T> — power-of-two ring buffer with deque FIFO semantics
//    (push_back/front/pop_front) that grows geometrically and never
//    shrinks, so steady-state traffic recirculates one warm allocation
//    instead of churning deque blocks.
//
// Every heap fallback of either container, and every chunk the DRAM page
// store maps (sim/memory.h), funnels through HotAllocProbe, a process-wide
// counter the allocation-audit test (and assert-heavy debug runs) read to
// prove the steady-state serial hot path performs zero heap allocations
// per cycle once warm.
#ifndef BIONICDB_SIM_ARENA_H_
#define BIONICDB_SIM_ARENA_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace bionicdb::sim {

/// Process-wide tally of heap fallbacks taken by the hot-path containers
/// in this header and of DRAM page-store mappings. Relaxed atomics: the
/// counter is a diagnostic (read at steady state by the allocation audit),
/// never a synchronisation point.
class HotAllocProbe {
 public:
  /// Allocations (page-store chunk mappings, inline-vec spills, ring
  /// growth) taken since process start.
  static uint64_t Count() {
    return count_.load(std::memory_order_relaxed);
  }
  static void Record() { count_.fetch_add(1, std::memory_order_relaxed); }

 private:
  static inline std::atomic<uint64_t> count_{0};
};

/// Small vector with N elements of inline storage, restricted to trivially
/// copyable element types (memory words, key bytes) so moves and growth
/// are raw memcpy. Heap spills are counted via HotAllocProbe.
template <typename T, size_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "InlineVec is for raw POD payloads");

 public:
  InlineVec() = default;
  explicit InlineVec(size_t n) { resize(n); }
  ~InlineVec() { delete[] heap_; }

  InlineVec(const InlineVec& o) { Assign(o); }
  InlineVec& operator=(const InlineVec& o) {
    if (this != &o) Assign(o);
    return *this;
  }
  InlineVec(InlineVec&& o) noexcept { Steal(std::move(o)); }
  InlineVec& operator=(InlineVec&& o) noexcept {
    if (this != &o) {
      delete[] heap_;
      heap_ = nullptr;
      Steal(std::move(o));
    }
    return *this;
  }

  void resize(size_t n) {
    if (n > capacity_) Grow(n);
    size_ = n;
  }
  void clear() { size_ = 0; }
  void push_back(const T& v) {
    if (size_ == capacity_) Grow(size_ + 1);
    data()[size_++] = v;
  }

  T* data() { return heap_ != nullptr ? heap_ : inline_; }
  const T* data() const { return heap_ != nullptr ? heap_ : inline_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

 private:
  void Assign(const InlineVec& o) {
    resize(o.size_);
    std::memcpy(data(), o.data(), o.size_ * sizeof(T));
  }
  void Steal(InlineVec&& o) noexcept {
    size_ = o.size_;
    if (o.heap_ != nullptr) {
      heap_ = o.heap_;
      capacity_ = o.capacity_;
      o.heap_ = nullptr;
    } else {
      heap_ = nullptr;
      capacity_ = N;
      std::memcpy(inline_, o.inline_, size_ * sizeof(T));
    }
    o.size_ = 0;
    o.capacity_ = N;
  }
  void Grow(size_t need) {
    size_t cap = capacity_;
    while (cap < need) cap *= 2;
    HotAllocProbe::Record();
    T* bigger = new T[cap];
    std::memcpy(bigger, data(), size_ * sizeof(T));
    delete[] heap_;
    heap_ = bigger;
    capacity_ = cap;
  }

  T inline_[N > 0 ? N : 1];
  T* heap_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = N;
};

/// FIFO ring buffer with the std::deque subset the simulator queues use.
/// Capacity is a power of two, grows geometrically (counted via
/// HotAllocProbe) and never shrinks: a warm queue recirculates its one
/// allocation forever. Elements are default-constructed slots assigned on
/// push; a popped slot keeps its heap payload (e.g. a std::vector inside
/// an envelope) alive for reuse by the next assignment, which is exactly
/// the recycling behaviour the hot path wants.
template <typename T>
class RingQueue {
 public:
  /// Forward iterator over the queue in FIFO order (front to back), for
  /// the wire-scan loops that visit every in-flight entry per tick.
  template <bool Const>
  class Iter {
    using Q = std::conditional_t<Const, const RingQueue, RingQueue>;

   public:
    Iter(Q* q, size_t i) : q_(q), i_(i) {}
    auto& operator*() const { return (*q_)[i_]; }
    auto* operator->() const { return &(*q_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }
    bool operator!=(const Iter& o) const { return i_ != o.i_; }

   private:
    Q* q_;
    size_t i_;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;
  iterator begin() { return {this, 0}; }
  iterator end() { return {this, size_}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() { return slots_[head_ & mask_]; }
  const T& front() const { return slots_[head_ & mask_]; }
  T& back() { return slots_[(head_ + size_ - 1) & mask_]; }
  const T& back() const { return slots_[(head_ + size_ - 1) & mask_]; }
  T& operator[](size_t i) { return slots_[(head_ + i) & mask_]; }
  const T& operator[](size_t i) const { return slots_[(head_ + i) & mask_]; }

  void push_back(const T& v) { Slot() = v; }
  void push_back(T&& v) { Slot() = std::move(v); }
  template <typename... Args>
  void emplace_back(Args&&... args) {
    Slot() = T(std::forward<Args>(args)...);
  }
  void pop_front() {
    assert(size_ > 0);
    ++head_;
    --size_;
  }
  void clear() {
    head_ = 0;
    size_ = 0;
  }
  /// Drops the back of the queue down to `n` elements — the tail step of
  /// in-place compaction (shift the keepers forward with operator[], then
  /// truncate), which replaces deque's scan-and-erase without allocating.
  void truncate(size_t n) {
    assert(n <= size_);
    size_ = n;
  }

 private:
  /// Reserves the next tail slot (growing first if full) and returns it.
  T& Slot() {
    if (size_ == slots_.size()) Grow();
    T& s = slots_[(head_ + size_) & mask_];
    ++size_;
    return s;
  }
  void Grow() {
    HotAllocProbe::Record();
    size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<T> bigger(cap);
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & mask_]);
    }
    slots_.swap(bigger);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<T> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
  size_t mask_ = 0;
};

}  // namespace bionicdb::sim

#endif  // BIONICDB_SIM_ARENA_H_
