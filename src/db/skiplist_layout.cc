#include "db/skiplist_layout.h"

#include <cstring>

namespace bionicdb::db {

SkiplistLayout::SkiplistLayout(sim::DramMemory* dram, uint32_t partition,
                               uint64_t height_seed)
    : dram_(dram), partition_(partition), height_rng_(height_seed) {
  head_ = AllocateTuple(dram_, partition_, kSkiplistMaxHeight,
                        /*key=*/nullptr, /*key_len=*/0, /*payload=*/nullptr,
                        /*payload_len=*/0, /*write_ts=*/0, /*flags=*/0);
}

uint8_t SkiplistLayout::NextHeight() {
  uint8_t h = 1;
  while (h < kSkiplistMaxHeight && (height_rng_.Next() & 1)) ++h;
  return h;
}

int SkiplistLayout::CompareProbe(const uint8_t* key, uint16_t key_len,
                                 sim::Addr tower) const {
  TupleAccessor t(dram_, tower);
  // The head has key_len 0; any non-empty probe compares greater.
  return CompareKeyToTuple(*dram_, key, key_len, t);
}

void SkiplistLayout::FindPredecessors(
    const uint8_t* key, uint16_t key_len,
    sim::Addr preds[kSkiplistMaxHeight]) const {
  sim::Addr cur = head_;
  for (int level = kSkiplistMaxHeight - 1; level >= 0; --level) {
    while (true) {
      sim::Addr next = TupleAccessor(dram_, cur).next(level);
      if (next == sim::kNullAddr || CompareProbe(key, key_len, next) <= 0) {
        break;
      }
      cur = next;
    }
    preds[level] = cur;
  }
}

sim::Addr SkiplistLayout::Insert(const uint8_t* key, uint16_t key_len,
                                 const uint8_t* payload, uint32_t payload_len,
                                 Timestamp write_ts, uint8_t flags) {
  sim::Addr preds[kSkiplistMaxHeight];
  FindPredecessors(key, key_len, preds);
  uint8_t height = NextHeight();
  sim::Addr tower = AllocateTuple(dram_, partition_, height, key, key_len,
                                  payload, payload_len, write_ts, flags);
  TupleAccessor t(dram_, tower);
  for (uint8_t level = 0; level < height; ++level) {
    TupleAccessor pred(dram_, preds[level]);
    t.set_next(level, pred.next(level));
    pred.set_next(level, tower);
  }
  return tower;
}

sim::Addr SkiplistLayout::LowerBound(const uint8_t* key,
                                     uint16_t key_len) const {
  sim::Addr preds[kSkiplistMaxHeight];
  FindPredecessors(key, key_len, preds);
  return TupleAccessor(dram_, preds[0]).next(0);
}

sim::Addr SkiplistLayout::Find(const uint8_t* key, uint16_t key_len) const {
  sim::Addr cand = LowerBound(key, key_len);
  if (cand == sim::kNullAddr) return sim::kNullAddr;
  if (CompareProbe(key, key_len, cand) != 0) return sim::kNullAddr;
  return cand;
}

void SkiplistLayout::Scan(const uint8_t* key, uint16_t key_len,
                          uint32_t count,
                          const std::function<bool(TupleAccessor)>& fn) const {
  sim::Addr cur = LowerBound(key, key_len);
  uint32_t taken = 0;
  while (cur != sim::kNullAddr && taken < count) {
    TupleAccessor t(dram_, cur);
    if (fn(t)) ++taken;
    cur = t.next(0);
  }
}

void SkiplistLayout::ForEach(
    const std::function<bool(TupleAccessor)>& fn) const {
  sim::Addr cur = TupleAccessor(dram_, head_).next(0);
  while (cur != sim::kNullAddr) {
    TupleAccessor t(dram_, cur);
    sim::Addr next = t.next(0);
    if (!fn(t)) return;
    cur = next;
  }
}

bool SkiplistLayout::CheckInvariants() const {
  // Per-level sorted order and nesting: every tower present at level L must
  // also be present at L-1 (towers are contiguous from level 0 to height-1
  // by construction, so we check order and reachability).
  for (int level = kSkiplistMaxHeight - 1; level >= 0; --level) {
    sim::Addr cur = TupleAccessor(dram_, head_).next(level);
    sim::Addr prev = sim::kNullAddr;
    while (cur != sim::kNullAddr) {
      TupleAccessor t(dram_, cur);
      if (t.height() <= level) return false;  // tower linked above height
      if (prev != sim::kNullAddr) {
        TupleAccessor p(dram_, prev);
        auto pk = p.key_bytes();
        if (CompareKeyToTuple(*dram_, pk.data(), uint16_t(pk.size()), t) > 0) {
          return false;  // out of order
        }
      }
      prev = cur;
      cur = t.next(level);
    }
  }
  // Every tower at level L must be reachable at level 0.
  for (int level = 1; level < kSkiplistMaxHeight; ++level) {
    sim::Addr cur = TupleAccessor(dram_, head_).next(level);
    while (cur != sim::kNullAddr) {
      sim::Addr walk = TupleAccessor(dram_, head_).next(0);
      bool found = false;
      while (walk != sim::kNullAddr) {
        if (walk == cur) {
          found = true;
          break;
        }
        walk = TupleAccessor(dram_, walk).next(0);
      }
      if (!found) return false;
      cur = TupleAccessor(dram_, cur).next(level);
    }
  }
  return true;
}

}  // namespace bionicdb::db
