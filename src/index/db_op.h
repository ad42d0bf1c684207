// Index-side view of the fabric message taxonomy.
//
// Historically this header held a single `DbOp`/`DbResult` pair that mixed
// index-probe fields, raw-memory operands, routing metadata and RTT/ack
// state in one record, with fields repurposed across meanings. That
// god-struct is gone: messages are now typed `comm::Envelope`s
// (comm/envelope.h) — a routing header plus exactly one of `IndexOp`,
// `MemOp`, `IndexResult`, `MemResult` — and the transport never looks past
// the header.
//
// What the index layer consumes and produces:
//
//  * The coprocessor accepts `kIndexOp` envelopes (IndexCoprocessor::Submit)
//    from the local softcore and from remote workers' background traffic
//    alike; remoteness is derived from the header (origin != partition),
//    never flagged in the payload.
//  * Both pipelines finish an op through their access stage
//    (index/access_stage.h), which pushes a `kIndexResult` reply envelope
//    (Envelope::Reply echoes origin/cp_index/txn_slot/sent_at) onto the
//    shared ResultQueue; the owning worker routes each entry home — to the
//    local softcore's CP registers or back over the response channel.
//  * Raw-memory traffic (`kMemOp`/`kMemResult`) never enters the index
//    layer; the worker's background unit services it directly.
#ifndef BIONICDB_INDEX_DB_OP_H_
#define BIONICDB_INDEX_DB_OP_H_

#include "comm/envelope.h"
#include "sim/arena.h"

namespace bionicdb::index {

/// How the skiplist pipeline turns admitted probes into DRAM traffic
/// (the hash pipeline always walks per-op).
///
///  * kPerOp — the classic paper pipeline: each probe traverses on its
///    own, one random DRAM access per tower hop (section 4.4.2).
///  * kBatched — a batch collector accumulates up to `batch_size` probes
///    (bounded by `batch_timeout_cycles`), sorts them by key and walks
///    them level-wise, fetching each tower once per batch. Every access
///    pays the same DRAM price as in kPerOp. Visibility/CC is still
///    checked per tuple (CcUnit::CheckAccess), and results are
///    byte-identical to kPerOp for the same input set.
enum class TraversalMode : uint8_t { kPerOp = 0, kBatched = 1 };

/// Completed-result staging shared by the hash and skiplist pipelines,
/// drained by the worker each tick (one-cycle result-routing latency, as in
/// the per-cycle hardware model). A ring rather than a deque: the queue
/// cycles every tick at dense activity, and deque block churn was a
/// measurable steady-state allocation source (tests/hot_path_alloc_test).
using ResultQueue = sim::RingQueue<comm::Envelope>;

}  // namespace bionicdb::index

#endif  // BIONICDB_INDEX_DB_OP_H_
