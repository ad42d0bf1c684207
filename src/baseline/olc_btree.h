// B+tree with optimistic lock coupling — the baseline's Masstree stand-in.
//
// Silo's index is Masstree; what matters for the paper's comparisons is a
// state-of-the-art cache-optimised concurrent ordered index with fast point
// lookups and leaf-chained range scans. This is the classic OLC B+tree of
// Leis et al. ("The ART of Practical Synchronization", DaMoN'16): every
// node carries a version word (lock bit + obsolete bit + counter); readers
// proceed lock-free and restart on version changes; writers lock only the
// nodes they modify, splitting eagerly on the way down.
//
// Keys are 64-bit integers; values are Record pointers. Nodes are arena
// allocated and never freed mid-run (obsolete nodes are simply abandoned),
// so readers need no reclamation protocol.
#ifndef BIONICDB_BASELINE_OLC_BTREE_H_
#define BIONICDB_BASELINE_OLC_BTREE_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "baseline/record.h"

namespace bionicdb::baseline {

class OlcBTree {
 public:
  explicit OlcBTree(Arena* arena) : arena_(arena) {
    root_.store(NewLeaf(), std::memory_order_release);
  }

  /// Point lookup; nullptr when absent.
  Record* Find(uint64_t key) const;

  /// Insert-if-absent: links key -> value and returns nullptr, or returns
  /// the already-resident record without modifying the tree. The decision
  /// is made under the leaf's write lock, so two racing inserters of one
  /// key always agree on a single resident record (upsert semantics would
  /// let a later inserter silently orphan an earlier transaction's row).
  Record* Insert(uint64_t key, Record* value);

  /// Visits up to `count` entries with key >= start in ascending order;
  /// `fn` returns false to stop. Returns entries visited.
  uint32_t Scan(uint64_t start, uint32_t count,
                const std::function<bool(uint64_t, Record*)>& fn) const;

 private:
  static constexpr uint32_t kLeafCap = 32;
  static constexpr uint32_t kInnerCap = 32;

  struct Node {
    std::atomic<uint64_t> version{0b100};
    bool is_leaf = false;  // immutable after publication
    // Entry count; written under the node's write lock, read optimistically
    // (relaxed + version validation), hence atomic.
    std::atomic<uint32_t> count{0};

    // --- OLC version protocol (bit0 = obsolete, bit1 = locked) ---------
    uint64_t StableVersion() const {
      uint64_t v = version.load(std::memory_order_acquire);
      while (v & 2) {
        v = version.load(std::memory_order_acquire);
      }
      return v;
    }
    uint64_t ReadLockOrRestart(bool* restart) const {
      uint64_t v = StableVersion();
      if (v & 1) *restart = true;  // obsolete
      return v;
    }
    void ReadUnlockOrRestart(uint64_t start, bool* restart) const {
      // The fence orders the preceding optimistic (relaxed) reads before
      // the validation load; a concurrent writer bumps the version under
      // its lock, so any torn read forces a restart.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (start != version.load(std::memory_order_acquire)) *restart = true;
    }
    void CheckOrRestart(uint64_t start, bool* restart) const {
      ReadUnlockOrRestart(start, restart);
    }
    void UpgradeToWriteLockOrRestart(uint64_t* v, bool* restart) {
      if (version.compare_exchange_strong(*v, *v + 2,
                                          std::memory_order_acquire)) {
        *v += 2;
      } else {
        *restart = true;
      }
    }
    void WriteUnlock() { version.fetch_add(2, std::memory_order_release); }
  };

  // Key/value slots are written under the node write lock but read
  // optimistically by lock-free readers, so they are relaxed atomics (the
  // version protocol supplies the ordering; see ReadUnlockOrRestart).
  struct Leaf : Node {
    std::atomic<uint64_t> keys[kLeafCap];
    std::atomic<Record*> values[kLeafCap];
    std::atomic<Leaf*> next{nullptr};

    uint32_t LowerBound(uint64_t k) const {
      uint32_t lo = 0, hi = count.load(std::memory_order_relaxed);
      while (lo < hi) {
        uint32_t mid = (lo + hi) / 2;
        if (keys[mid].load(std::memory_order_relaxed) < k) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    }
    /// Returns the resident record when `k` already exists (no change),
    /// nullptr after inserting. Caller holds the write lock.
    Record* InsertIfAbsent(uint64_t k, Record* v) {
      uint32_t n = count.load(std::memory_order_relaxed);
      uint32_t pos = LowerBound(k);
      if (pos < n && keys[pos].load(std::memory_order_relaxed) == k) {
        return values[pos].load(std::memory_order_relaxed);
      }
      for (uint32_t i = n; i > pos; --i) {
        keys[i].store(keys[i - 1].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
        values[i].store(values[i - 1].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      }
      keys[pos].store(k, std::memory_order_relaxed);
      values[pos].store(v, std::memory_order_relaxed);
      count.store(n + 1, std::memory_order_relaxed);
      return nullptr;
    }
  };

  struct Inner : Node {
    std::atomic<uint64_t> keys[kInnerCap];
    std::atomic<Node*> children[kInnerCap + 1];

    /// Child slot for `k`: separators are the first key of their right
    /// subtree, so keys equal to a separator route RIGHT (upper bound).
    uint32_t LowerBound(uint64_t k) const {
      uint32_t lo = 0, hi = count.load(std::memory_order_relaxed);
      while (lo < hi) {
        uint32_t mid = (lo + hi) / 2;
        if (keys[mid].load(std::memory_order_relaxed) <= k) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    }
    /// Caller holds the write lock.
    void InsertAt(uint64_t sep, Node* child) {
      uint32_t n = count.load(std::memory_order_relaxed);
      uint32_t pos = LowerBound(sep);
      for (uint32_t i = n; i > pos; --i) {
        keys[i].store(keys[i - 1].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      }
      for (uint32_t i = n + 1; i > pos + 1; --i) {
        children[i].store(children[i - 1].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      }
      keys[pos].store(sep, std::memory_order_relaxed);
      children[pos + 1].store(child, std::memory_order_relaxed);
      count.store(n + 1, std::memory_order_relaxed);
    }
  };

  Leaf* NewLeaf() {
    Leaf* n = new (arena_->Allocate(sizeof(Leaf))) Leaf();
    n->is_leaf = true;
    return n;
  }
  Inner* NewInner() {
    Inner* n = new (arena_->Allocate(sizeof(Inner))) Inner();
    n->is_leaf = false;
    return n;
  }

  Leaf* SplitLeaf(Leaf* leaf, uint64_t* sep);
  Inner* SplitInner(Inner* inner, uint64_t* sep);
  void MakeRoot(uint64_t sep, Node* left, Node* right);

  /// Descends to the leaf covering `key` with full OLC validation; on
  /// success *leaf_version holds the leaf's read lock. Returns nullptr when
  /// the caller must restart.
  const Leaf* FindLeaf(uint64_t key, uint64_t* leaf_version) const;

  Arena* arena_;
  std::atomic<Node*> root_;
};

}  // namespace bionicdb::baseline

#endif  // BIONICDB_BASELINE_OLC_BTREE_H_
