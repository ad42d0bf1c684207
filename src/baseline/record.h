// Records and TID words for the Silo-style software baseline.
//
// The baseline reproduces Silo's commit protocol [Tu et al., SOSP'13]: each
// record carries a TID word combining a lock bit, an absent bit (inserted
// but not yet committed / logically deleted), an epoch and a sequence
// number. Readers take consistent snapshots by double-checking the TID;
// writers lock at commit, validate their read sets, then install new TIDs.
#ifndef BIONICDB_BASELINE_RECORD_H_
#define BIONICDB_BASELINE_RECORD_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace bionicdb::baseline {

namespace tid {
constexpr uint64_t kLockBit = 1ull << 63;
constexpr uint64_t kAbsentBit = 1ull << 62;
constexpr uint64_t kDataMask = ~(kLockBit | kAbsentBit);

constexpr uint64_t Make(uint64_t epoch, uint64_t seq) {
  return ((epoch << 32) | (seq & 0xffffffffull)) & kDataMask;
}
constexpr bool Locked(uint64_t t) { return (t & kLockBit) != 0; }
constexpr bool Absent(uint64_t t) { return (t & kAbsentBit) != 0; }
constexpr uint64_t Epoch(uint64_t t) { return (t & kDataMask) >> 32; }
}  // namespace tid

/// Torn-read-tolerant memory copy for Silo's optimistic reads: the TID
/// double-check discards torn snapshots, but the copy itself must still be
/// race-free C++ — word-wise relaxed atomics via std::atomic_ref (payloads
/// are 8-byte aligned; the tail is copied byte-wise).
inline void RelaxedCopy(void* dst, const void* src, size_t len) {
  auto* d8 = static_cast<uint64_t*>(dst);
  auto* s8 = static_cast<uint64_t*>(const_cast<void*>(src));
  size_t words = len / 8;
  for (size_t i = 0; i < words; ++i) {
    d8[i] = std::atomic_ref<uint64_t>(s8[i]).load(std::memory_order_relaxed);
  }
  auto* db = static_cast<uint8_t*>(dst) + words * 8;
  auto* sb = static_cast<uint8_t*>(const_cast<void*>(src)) + words * 8;
  for (size_t i = 0; i < len % 8; ++i) {
    db[i] = std::atomic_ref<uint8_t>(sb[i]).load(std::memory_order_relaxed);
  }
}

inline void RelaxedStore(void* dst, const void* src, size_t len) {
  auto* d8 = static_cast<uint64_t*>(dst);
  auto* s8 = static_cast<uint64_t*>(const_cast<void*>(src));
  size_t words = len / 8;
  for (size_t i = 0; i < words; ++i) {
    std::atomic_ref<uint64_t>(d8[i]).store(s8[i],
                                           std::memory_order_relaxed);
  }
  auto* db = static_cast<uint8_t*>(dst) + words * 8;
  auto* sb = static_cast<uint8_t*>(const_cast<void*>(src)) + words * 8;
  for (size_t i = 0; i < len % 8; ++i) {
    std::atomic_ref<uint8_t>(db[i]).store(sb[i], std::memory_order_relaxed);
  }
}

/// A heap record: TID word + inline payload.
struct Record {
  std::atomic<uint64_t> tid;
  uint32_t payload_len;

  uint8_t* payload() { return reinterpret_cast<uint8_t*>(this + 1); }
  const uint8_t* payload() const {
    return reinterpret_cast<const uint8_t*>(this + 1);
  }

  /// Spins until unlocked, then returns the TID word (acquire).
  uint64_t StableTid() const {
    uint64_t t;
    do {
      t = tid.load(std::memory_order_acquire);
    } while (tid::Locked(t));
    return t;
  }

  /// Consistent payload snapshot (Silo's optimistic read).
  uint64_t ReadConsistent(void* out) const {
    while (true) {
      uint64_t t1 = StableTid();
      RelaxedCopy(out, payload(), payload_len);
      std::atomic_thread_fence(std::memory_order_acquire);
      uint64_t t2 = tid.load(std::memory_order_acquire);
      if (t1 == t2) return t1;
    }
  }

  /// Spin-lock the record (commit phase 1).
  void Lock() {
    uint64_t t = tid.load(std::memory_order_relaxed);
    while (true) {
      if (!tid::Locked(t)) {
        if (tid.compare_exchange_weak(t, t | tid::kLockBit,
                                      std::memory_order_acquire)) {
          return;
        }
      } else {
        t = tid.load(std::memory_order_relaxed);
      }
    }
  }

  void Unlock() {
    tid.store(tid.load(std::memory_order_relaxed) & ~tid::kLockBit,
              std::memory_order_release);
  }
};

/// Thread-safe bump arena for records and index nodes. Memory is reclaimed
/// only at arena destruction (Silo-style: no mid-run deallocation, which
/// also sidesteps concurrent reclamation). Each thread bump-allocates from
/// its own current chunk per arena; arenas carry process-unique ids so the
/// thread-local cache can never resolve to a destroyed arena's chunk.
class Arena {
 public:
  Arena() : id_(NextId()) {}

  void* Allocate(size_t bytes, size_t align = 8) {
    thread_local std::unordered_map<uint64_t, Chunk*> tl_chunks;
    Chunk*& chunk = tl_chunks[id_];
    bytes = (bytes + align - 1) & ~(align - 1);
    if (chunk == nullptr || chunk->used + bytes > chunk->capacity) {
      chunk = NewChunk(bytes);
    }
    void* out = chunk->data + chunk->used;
    chunk->used += bytes;
    return out;
  }

  Record* AllocateRecord(uint32_t payload_len) {
    void* mem = Allocate(sizeof(Record) + payload_len);
    Record* r = new (mem) Record();
    r->tid.store(tid::kAbsentBit, std::memory_order_relaxed);
    r->payload_len = payload_len;
    return r;
  }

 private:
  static constexpr size_t kChunkSize = 1 << 20;

  struct Chunk {
    size_t capacity = 0;
    size_t used = 0;
    uint8_t data[];  // NOLINT
  };

  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  Chunk* NewChunk(size_t at_least) {
    size_t capacity = std::max(kChunkSize, at_least);
    auto mem = std::make_unique<uint8_t[]>(sizeof(Chunk) + capacity);
    Chunk* c = reinterpret_cast<Chunk*>(mem.get());
    c->capacity = capacity;
    c->used = 0;
    std::lock_guard<std::mutex> g(mu_);
    chunks_.push_back(std::move(mem));
    return c;
  }

  const uint64_t id_;
  std::mutex mu_;
  std::vector<std::unique_ptr<uint8_t[]>> chunks_;
};

}  // namespace bionicdb::baseline

#endif  // BIONICDB_BASELINE_RECORD_H_
