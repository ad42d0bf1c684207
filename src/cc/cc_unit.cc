#include "cc/cc_unit.h"

#include <algorithm>

#include "db/version.h"

namespace bionicdb::cc {

namespace {

constexpr uint32_t kNoNode = ~uint32_t{0};
/// Bound on wait-for chain walks; chains are short (one entry per parked
/// transaction on this partition).
/// Cap on the commit-validation cycle charge for huge adjacency sets.
constexpr uint32_t kMaxValidateCost = 64;

uint32_t Bursts(uint64_t bytes) { return uint32_t((bytes + 63) / 64); }

}  // namespace

CcUnit::AccessResult CcUnit::CheckAccess(db::TupleAccessor* tuple,
                                         db::Timestamp ts,
                                         AccessMode access) {
  switch (mode_) {
    case CcMode::kSgt:
      return SgtAccess(tuple, ts, access);
    case CcMode::kMvcc:
      return MvccAccess(tuple, ts, access);
    case CcMode::kTimestamp:
      break;
  }
  AccessResult out;
  out.vis = CheckVisibility(tuple, ts, access);
  return out;
}

void CcUnit::OnTxnBegin(db::Timestamp ts) {
  switch (mode_) {
    case CcMode::kTimestamp:
      return;
    case CcMode::kSgt: {
      if (node_ix_.count(ts) != 0) return;  // defensive: ts reuse
      SgtNode node;
      node.ts = ts;
      node_ix_.emplace(ts, uint32_t(nodes_.size()));
      nodes_.push_back(std::move(node));
      ++sgt_active_;
      counters_.Add("sgt/txns");
      return;
    }
    case CcMode::kMvcc:
      mvcc_active_.emplace(ts, MvccTxn{});
      counters_.Add("mvcc/txns");
      return;
  }
}

uint32_t CcUnit::OnCommitValidate(db::Timestamp ts) {
  if (mode_ != CcMode::kSgt) return 0;
  uint32_t ix = SgtNodeIndex(ts);
  if (ix == kNoNode) return 0;
  // Commit-time incremental check: the hardware walks the transaction's
  // adjacency set once more before publishing. All cycles were already
  // refused at access time, so this charges cycles without re-deciding.
  counters_.Add("sgt/commit_validations");
  return 2 + std::min<uint32_t>(uint32_t(nodes_[ix].out.size()),
                                kMaxValidateCost);
}

void CcUnit::OnTxnFinish(db::Timestamp ts, bool committed) {
  switch (mode_) {
    case CcMode::kTimestamp:
      return;
    case CcMode::kSgt: {
      uint32_t ix = SgtNodeIndex(ts);
      if (ix == kNoNode) return;
      SgtNode& node = nodes_[ix];
      if (node.finished) return;
      node.finished = true;
      node.aborted = !committed;
      if (!committed) node.out.clear();  // dead end: cannot sit on a cycle
      for (sim::Addr addr : node.writes) {
        auto mit = tuple_meta_.find(addr);
        if (mit == tuple_meta_.end()) continue;
        if (committed) mit->second.last_writer = ts;
        if (mit->second.active_writer == ts) {
          mit->second.active_writer = kNoTxn;
        }
      }
      if (sgt_active_ > 0) --sgt_active_;
      if (sgt_active_ == 0) SgtPrune();
      return;
    }
    case CcMode::kMvcc: {
      auto it = mvcc_active_.find(ts);
      if (it == mvcc_active_.end()) return;
      if (!committed) {
        // Pop the pre-image duplicates this writer pushed: the in-place
        // committed image is untouched (aborts happen before any Store),
        // so the snapshot only duplicates it.
        for (const MvccSnapshot& s : it->second.snapshots) {
          auto cit = chains_.find(s.tuple);
          if (cit == chains_.end() || cit->second.head != s.node) continue;
          db::VersionAccessor v(dram_, s.node);
          cit->second.head = v.next();
          if (cit->second.length > 0) --cit->second.length;
          free_versions_[cit->second.footprint].push_back(s.node);
          counters_.Add("mvcc/versions_freed");
          counters_.Add("mvcc/snapshots_popped");
        }
      }
      for (const MvccSnapshot& s : it->second.snapshots) {
        auto wit = mvcc_writer_.find(s.tuple);
        if (wit != mvcc_writer_.end() && wit->second == ts) {
          mvcc_writer_.erase(wit);
        }
      }
      mvcc_active_.erase(it);
      if (mvcc_active_.empty()) MvccGc(ts);
      return;
    }
  }
}

void CcUnit::CollectStats(StatsScope scope) const {
  if (mode_ == CcMode::kTimestamp) return;
  scope.SetGauge("scheme_id", double(uint8_t(mode_)));
  scope.MergeCounterSet(counters_);
  switch (mode_) {
    case CcMode::kTimestamp:
      break;
    case CcMode::kSgt:
      scope.SetCounter("sgt/live_nodes", nodes_.size());
      break;
    case CcMode::kMvcc: {
      uint64_t chained = 0;
      for (const auto& [addr, chain] : chains_) chained += chain.length;
      scope.SetCounter("mvcc/live_versions", chained);
      scope.SetGauge("mvcc/gc_watermark", last_watermark_);
      break;
    }
  }
}

// --- SGT -------------------------------------------------------------------

uint32_t CcUnit::SgtNodeIndex(db::Timestamp ts) const {
  auto it = node_ix_.find(ts);
  return it == node_ix_.end() ? kNoNode : it->second;
}

bool CcUnit::PathExists(uint32_t from, uint32_t to) {
  counters_.Add("sgt/cycle_checks");
  if (from == to) return true;
  ++visit_epoch_;
  dfs_stack_.clear();
  dfs_stack_.push_back(from);
  nodes_[from].mark = visit_epoch_;
  uint64_t visited = 0;
  while (!dfs_stack_.empty()) {
    uint32_t cur = dfs_stack_.back();
    dfs_stack_.pop_back();
    ++visited;
    for (uint32_t next : nodes_[cur].out) {
      if (next == to) {
        counters_.Add("sgt/dfs_visits", visited);
        return true;
      }
      if (nodes_[next].mark != visit_epoch_) {
        nodes_[next].mark = visit_epoch_;
        dfs_stack_.push_back(next);
      }
    }
  }
  counters_.Add("sgt/dfs_visits", visited);
  return false;
}

void CcUnit::SgtPrune() {
  counters_.Add("sgt/prunes");
  counters_.Add("sgt/nodes_pruned", nodes_.size());
  nodes_.clear();
  node_ix_.clear();
  tuple_meta_.clear();
}

bool CcUnit::WaitFutile(sim::Addr tuple, db::Timestamp ts) const {
  if (mode_ != CcMode::kSgt) return false;
  auto it = tuple_meta_.find(tuple);
  if (it == tuple_meta_.end()) return false;
  // Any live LOCAL writer makes further waiting pointless: its mark only
  // clears in its commit handler, behind the batch barrier this parked
  // access itself is holding open (see SgtAccess). A waiter only reaches
  // this state when the mark changed hands while it was parked.
  (void)ts;
  return it->second.active_writer != kNoTxn;
}

CcUnit::AccessResult CcUnit::SgtAccess(db::TupleAccessor* tuple,
                                       db::Timestamp ts, AccessMode access) {
  AccessResult out;
  const uint32_t me = SgtNodeIndex(ts);
  if (me == kNoNode) {
    // Remote transaction (multisite): T/O fallback, deterministically.
    counters_.Add("foreign_fallback");
    out.vis = CheckVisibility(tuple, ts, access);
    return out;
  }
  const sim::Addr addr = tuple->addr();
  const uint8_t flags = tuple->flags();
  SgtTupleMeta& meta = tuple_meta_[addr];

  if (flags & db::kFlagDirty) {
    const db::Timestamp writer = meta.active_writer;
    if (writer == ts) {
      // Own uncommitted mark: re-reads see the in-place image; re-writes
      // only need to extend the flag set.
      if (access == AccessMode::kRemove && !(flags & db::kFlagTombstone)) {
        tuple->SetFlag(db::kFlagTombstone);
        out.vis.header_dirtied = true;
      }
      return out;
    }
    const uint32_t wix =
        writer == kNoTxn ? kNoNode : SgtNodeIndex(writer);
    if (wix == kNoNode) {
      // Dirty mark not owned by a live local transaction: a remote writer
      // (multisite) or a just-finished local one whose posted header clear
      // is still in flight. Both resolve without this partition's commit
      // barrier, so parking on the dirty-waiter machinery pays.
      counters_.Add("sgt/unknown_dirty");
      out.vis.status = isa::CpStatus::kRejected;
      out.vis.dirty_conflict = true;
      return out;
    }
    if (access == AccessMode::kRemove || (flags & db::kFlagTombstone)) {
      // Structural changes don't defer to the commit slot (tombstones flip
      // at access time), so they cannot be commit-ordered past a pending
      // writer — nor can any access once a pending remove tombstoned the
      // tuple. Reject; the block retries with a fresh timestamp. Waiting
      // is not an option: the writer's mark clears in its commit handler,
      // which the softcore's batch barrier holds back until every logic
      // phase — including this parked access — completes.
      counters_.Add("sgt/busy_rejects");
      out.vis.status = isa::CpStatus::kRejected;
      return out;
    }
    // Commit-ordered admission — SGT's actual edge over T/O. A dirty mark
    // only RESERVES the tuple: the pending writer's Store, like this
    // access's own Load/Store, executes in its commit handler, and commit
    // handlers run in timestamp order. Whatever this transaction touches
    // at its own commit slot is therefore exactly the state a
    // timestamp-serial execution would produce, so the access is admitted
    // with a dependency edge (pending writer before me when earlier,
    // after me when later) instead of the blind abort T/O takes. All
    // candidate edges are cycle-checked before any is added so a refusal
    // leaves the graph untouched.
    std::vector<std::pair<uint32_t, uint32_t>> new_edges;
    auto propose = [&](uint32_t other, bool other_first) {
      if (nodes_[other].aborted) return true;
      const uint32_t from = other_first ? other : me;
      const uint32_t to = other_first ? me : other;
      std::vector<uint32_t>& edges = nodes_[from].out;
      if (std::find(edges.begin(), edges.end(), to) != edges.end()) {
        return true;  // already recorded
      }
      if (PathExists(to, from)) return false;  // edge would close a cycle
      new_edges.emplace_back(from, to);
      return true;
    };
    bool acyclic = propose(wix, writer < ts);
    if (acyclic && access != AccessMode::kRead) {
      // rw edges against registered readers, timestamp-oriented for the
      // same commit-slot reason: an earlier reader loads before my store
      // lands, a later one loads after it.
      for (db::Timestamp reader : meta.readers) {
        if (reader == ts || reader == writer) continue;
        const uint32_t rix = SgtNodeIndex(reader);
        if (rix == kNoNode || rix == me) continue;
        if (!(acyclic = propose(rix, reader < ts))) break;
      }
    }
    if (!acyclic) {
      counters_.Add("sgt/cycle_aborts");
      out.vis.status = isa::CpStatus::kRejected;
      return out;
    }
    for (const auto& e : new_edges) {
      nodes_[e.first].out.push_back(e.second);
      counters_.Add("sgt/edges_added");
    }
    if (access == AccessMode::kRead) {
      counters_.Add("sgt/dirty_reads_admitted");
      if (std::find(meta.readers.begin(), meta.readers.end(), ts) ==
          meta.readers.end()) {
        meta.readers.push_back(ts);
      }
      if (tuple->read_ts() < ts) {
        tuple->set_read_ts(ts);
        out.vis.header_dirtied = true;
      }
      return out;
    }
    counters_.Add("sgt/dirty_writes_admitted");
    std::vector<sim::Addr>& writes = nodes_[me].writes;
    if (std::find(writes.begin(), writes.end(), addr) == writes.end()) {
      writes.push_back(addr);
    }
    // Latest-wins ownership: the mark tracks the pending writer with the
    // highest timestamp, so OnTxnFinish hands it down the commit order.
    if (writer < ts) meta.active_writer = ts;
    return out;
  }

  if (flags & db::kFlagTombstone) {
    out.vis.status = isa::CpStatus::kNotFound;
    return out;
  }

  if (access == AccessMode::kRead) {
    // wr dependency: the committed writer of the current image precedes me.
    const uint32_t src =
        meta.last_writer == kNoTxn ? kNoNode : SgtNodeIndex(meta.last_writer);
    if (src != kNoNode && src != me && !nodes_[src].aborted) {
      if (PathExists(me, src)) {
        counters_.Add("sgt/cycle_aborts");
        out.vis.status = isa::CpStatus::kRejected;
        return out;
      }
      std::vector<uint32_t>& edges = nodes_[src].out;
      if (std::find(edges.begin(), edges.end(), me) == edges.end()) {
        edges.push_back(me);
        counters_.Add("sgt/edges_added");
      }
    }
    if (std::find(meta.readers.begin(), meta.readers.end(), ts) ==
        meta.readers.end()) {
      meta.readers.push_back(ts);
    }
    // Bump read_ts as the T/O path would: keeps DRAM header traffic and
    // the multisite fallback's admission rules comparable across modes.
    if (tuple->read_ts() < ts) {
      tuple->set_read_ts(ts);
      out.vis.header_dirtied = true;
    }
    return out;
  }

  // Write admission: ww edge from the committed writer, rw edges from every
  // registered reader. All candidate edges are cycle-checked before any is
  // added so a refused write leaves the graph untouched.
  std::vector<uint32_t> srcs;
  const uint32_t w_src =
      meta.last_writer == kNoTxn ? kNoNode : SgtNodeIndex(meta.last_writer);
  if (w_src != kNoNode && w_src != me && !nodes_[w_src].aborted) {
    srcs.push_back(w_src);
  }
  for (db::Timestamp reader : meta.readers) {
    if (reader == ts) continue;
    const uint32_t r_src = SgtNodeIndex(reader);
    if (r_src == kNoNode || r_src == me || nodes_[r_src].aborted) continue;
    if (std::find(srcs.begin(), srcs.end(), r_src) == srcs.end()) {
      srcs.push_back(r_src);
    }
  }
  for (uint32_t src : srcs) {
    if (PathExists(me, src)) {
      counters_.Add("sgt/cycle_aborts");
      out.vis.status = isa::CpStatus::kRejected;
      return out;
    }
  }
  for (uint32_t src : srcs) {
    std::vector<uint32_t>& edges = nodes_[src].out;
    if (std::find(edges.begin(), edges.end(), me) == edges.end()) {
      edges.push_back(me);
      counters_.Add("sgt/edges_added");
    }
  }
  tuple->SetFlag(db::kFlagDirty);
  if (access == AccessMode::kRemove) tuple->SetFlag(db::kFlagTombstone);
  out.vis.header_dirtied = true;
  meta.active_writer = ts;
  nodes_[me].writes.push_back(addr);
  return out;
}

// --- MVCC ------------------------------------------------------------------

sim::Addr CcUnit::PopFreeVersion(uint64_t footprint) {
  auto it = free_versions_.find(footprint);
  if (it == free_versions_.end() || it->second.empty()) return sim::kNullAddr;
  sim::Addr addr = it->second.back();
  it->second.pop_back();
  counters_.Add("mvcc/versions_reused");
  return addr;
}

void CcUnit::MvccGc(db::Timestamp watermark) {
  // Quiescent point: the low-watermark (min live timestamp) exceeds every
  // committed write, so every chained pre-image is unreachable — drain the
  // whole directory into the freelist.
  counters_.Add("mvcc/gc_runs");
  last_watermark_ = double(watermark);
  uint64_t freed = 0;
  for (auto& [tuple_addr, chain] : chains_) {
    sim::Addr cur = chain.head;
    while (cur != sim::kNullAddr) {
      db::VersionAccessor v(dram_, cur);
      sim::Addr next = v.next();
      free_versions_[chain.footprint].push_back(cur);
      cur = next;
      ++freed;
    }
  }
  chains_.clear();
  counters_.Add("mvcc/versions_freed", freed);
}

CcUnit::AccessResult CcUnit::MvccAccess(db::TupleAccessor* tuple,
                                        db::Timestamp ts, AccessMode access) {
  AccessResult out;
  auto active = mvcc_active_.find(ts);
  if (active == mvcc_active_.end()) {
    counters_.Add("foreign_fallback");
    out.vis = CheckVisibility(tuple, ts, access);
    return out;
  }
  const sim::Addr addr = tuple->addr();
  const uint8_t flags = tuple->flags();
  const bool dirty = (flags & db::kFlagDirty) != 0;
  auto writer_it = mvcc_writer_.find(addr);
  const db::Timestamp writer =
      writer_it == mvcc_writer_.end() ? kNoTxn : writer_it->second;

  if (access == AccessMode::kRead) {
    if (dirty && writer == ts) return out;  // own dirty image, in place
    const db::Timestamp wts = tuple->write_ts();
    if (wts <= ts) {
      if (!dirty) {
        if (flags & db::kFlagTombstone) {
          out.vis.status = isa::CpStatus::kNotFound;
          return out;
        }
      } else if (writer == kNoTxn) {
        // Dirty mark from outside the MVCC bookkeeping (in-flight insert /
        // remote writer): blind parkable rejection, as plain T/O.
        counters_.Add("mvcc/unknown_dirty");
        out.vis.status = isa::CpStatus::kRejected;
        out.vis.dirty_conflict = true;
        return out;
      } else if (flags & db::kFlagTombstone) {
        // Pending remove. Commit handlers run in timestamp order within a
        // batch, so a reader ordered before the remover still loads the
        // intact pre-image in place; a reader ordered after must wait for
        // the remove to resolve (commit -> not-found, abort -> pre-image).
        if (ts > writer) {
          out.vis.status = isa::CpStatus::kRejected;
          out.vis.dirty_conflict = true;
          return out;
        }
        counters_.Add("mvcc/dirty_inplace_reads");
      } else {
        // Pending update: batch timestamp order again makes the in-place
        // image correct for both orderings — a reader before the writer
        // loads before the writer's stores run, a reader after loads after
        // they (or the abort restore) completed.
        counters_.Add("mvcc/dirty_inplace_reads");
      }
      if (tuple->read_ts() < ts) {
        tuple->set_read_ts(ts);
        out.vis.header_dirtied = true;
      }
      return out;
    }
    // wts > ts: the in-place image is too new — serve from the chain.
    auto cit = chains_.find(addr);
    uint32_t hops = 0;
    sim::Addr cur = cit == chains_.end() ? sim::kNullAddr : cit->second.head;
    while (cur != sim::kNullAddr) {
      ++hops;
      db::VersionAccessor v(dram_, cur);
      if (v.write_ts() <= ts) {
        out.payload_override = v.payload_addr();
        out.charge_bursts = hops;  // one header probe per chain hop
        counters_.Add("mvcc/version_reads");
        return out;
      }
      cur = v.next();
    }
    counters_.Add("mvcc/read_misses");
    out.charge_bursts = hops;
    out.vis.status = isa::CpStatus::kRejected;
    return out;
  }

  // Write / remove admission.
  if (dirty) {
    if (writer == ts) {
      if (access == AccessMode::kRemove && !(flags & db::kFlagTombstone)) {
        tuple->SetFlag(db::kFlagTombstone);
        out.vis.header_dirtied = true;
      }
      return out;
    }
    out.vis.status = isa::CpStatus::kRejected;
    out.vis.dirty_conflict = true;
    return out;
  }
  if (flags & db::kFlagTombstone) {
    out.vis.status = isa::CpStatus::kNotFound;
    return out;
  }
  const db::Timestamp wts = tuple->write_ts();
  if (wts > ts || tuple->read_ts() > ts) {
    counters_.Add("mvcc/write_rejects");
    out.vis.status = isa::CpStatus::kRejected;
    return out;
  }
  // Snapshot the committed pre-image into the version chain before dirtying
  // the in-place tuple, so concurrent older readers keep a stable image.
  MvccChain& chain = chains_[addr];
  chain.footprint = db::VersionFootprint(tuple->payload_len());
  const sim::Addr reuse = PopFreeVersion(chain.footprint);
  const sim::Addr node =
      db::SnapshotVersion(dram_, *tuple, chain.head, reuse);
  chain.head = node;
  ++chain.length;
  counters_.Add("mvcc/versions_created");
  out.charge_bursts = 2 * Bursts(chain.footprint);  // copy read + write
  tuple->SetFlag(db::kFlagDirty);
  if (access == AccessMode::kRemove) tuple->SetFlag(db::kFlagTombstone);
  out.vis.header_dirtied = true;
  mvcc_writer_[addr] = ts;
  active->second.snapshots.push_back(MvccSnapshot{addr, node});
  return out;
}

}  // namespace bionicdb::cc
