// Typed message envelopes for the on-chip request/response fabric.
//
// Every packet that travels between partition workers is an Envelope: a
// routing/timing header owned once by the envelope, plus a tagged payload
// that owns exactly the fields its message class needs. The fabric and its
// reliability layer read ONLY the header — they are payload-agnostic
// transports — while the endpoints (softcore, worker
// background unit, index coprocessor) switch on the message class.
//
// Message taxonomy (DESIGN.md section 12):
//
//   class         direction  payload        consumer at the destination
//   ------------  ---------  -------------  ------------------------------
//   kIndexOp      request    IndexOp        index coprocessor (Submit)
//   kMemOp        request    MemOp          worker raw-memory service unit
//   kIndexResult  response   IndexResult    softcore CP-register writeback
//   kMemResult    response   MemResult      softcore remote-LOAD resume
//   kPrepareReq   request    PrepareReq     worker 2PC participant unit
//   kPrepareAck   response   PrepareAck     softcore 2PC coordinator
//   kCommitReq    request    CommitReq      worker 2PC participant unit
//   kCommitAck    response   CommitAck      softcore 2PC coordinator
//
// The variant alternative order IS the MessageClass encoding, so
// `MessageClass(payload.index())` is the tag and no second discriminant can
// drift out of sync.
#ifndef BIONICDB_COMM_ENVELOPE_H_
#define BIONICDB_COMM_ENVELOPE_H_

#include <cstdint>
#include <variant>
#include <vector>

#include "cc/write_set.h"
#include "db/types.h"
#include "isa/instruction.h"
#include "sim/memory.h"

namespace bionicdb::comm {

enum class MessageClass : uint8_t {
  kIndexOp = 0,
  kMemOp = 1,
  kIndexResult = 2,
  kMemResult = 3,
  kPrepareReq = 4,
  kPrepareAck = 5,
  kCommitReq = 6,
  kCommitAck = 7,
};

inline constexpr uint32_t kNumMessageClasses = 8;

constexpr bool IsRequestClass(MessageClass c) {
  return c == MessageClass::kIndexOp || c == MessageClass::kMemOp ||
         c == MessageClass::kPrepareReq || c == MessageClass::kCommitReq;
}

/// Stable lowercase name used for stats paths (fabric/<class>/...).
constexpr const char* MessageClassName(MessageClass c) {
  switch (c) {
    case MessageClass::kIndexOp: return "index_op";
    case MessageClass::kMemOp: return "mem_op";
    case MessageClass::kIndexResult: return "index_result";
    case MessageClass::kMemResult: return "mem_result";
    case MessageClass::kPrepareReq: return "prepare_req";
    case MessageClass::kPrepareAck: return "prepare_ack";
    case MessageClass::kCommitReq: return "commit_req";
    case MessageClass::kCommitAck: return "commit_ack";
  }
  return "unknown";
}

/// One DB instruction bound for an index coprocessor — the local one, or a
/// remote partition's reached through the channels. Built by the softcore's
/// Prepare stage from the instruction word and the catalogue.
struct IndexOp {
  isa::Opcode op = isa::Opcode::kNop;
  db::TableId table = 0;
  db::Timestamp ts = 0;

  /// Key location inside the initiator's transaction block. Remote
  /// coprocessors fetch it directly: the FPGA-side DRAM is physically
  /// shared even though partitions are logically private.
  sim::Addr key_addr = sim::kNullAddr;
  uint16_t key_len = 0;

  sim::Addr payload_src = sim::kNullAddr;  // INSERT: payload bytes
  uint32_t payload_len = 0;
  sim::Addr out_buf = sim::kNullAddr;      // SCAN: result buffer
  uint32_t scan_count = 0;                 // SCAN: max tuples
  uint8_t batch_flags = 0;                 // isa::kBatchFlag* framing bits
};

/// One raw-memory operation shipped to the partition that owns `addr`.
/// Under partitioned DRAM a softcore LOAD/STORE/commit-publication touching
/// a foreign partition's arena must execute on the owning worker — its
/// DRAM lane, its timing — so it travels the fabric like any request.
struct MemOp {
  enum class Kind : uint8_t { kLoad, kStore, kCommit, kAbort };
  Kind kind = Kind::kLoad;
  sim::Addr addr = sim::kNullAddr;
  uint64_t store_value = 0;                       // kStore only
  cc::WriteKind write_kind = cc::WriteKind::kNone;  // kCommit/kAbort only
  db::Timestamp commit_ts = 0;                    // kCommit only
};

/// Result of an IndexOp, written back (asynchronously) to the initiator's
/// CP register.
struct IndexResult {
  isa::CpStatus status = isa::CpStatus::kOk;
  /// Tuple payload address for point operations; tuple count for SCAN.
  uint64_t payload = 0;
  /// Write-set bookkeeping the origin worker records on writeback.
  cc::WriteKind write_kind = cc::WriteKind::kNone;
  sim::Addr tuple_addr = sim::kNullAddr;

  /// The 64-bit value stored into the CP register.
  uint64_t ToCpValue() const { return isa::EncodeCpValue(status, payload); }
};

/// Result of a MemOp kLoad: the origin resumes its stalled softcore with
/// the fetched value instead of writing a CP register.
struct MemResult {
  uint64_t value = 0;
};

/// 2PC phase 1: the coordinator (the softcore committing a multi-chip
/// transaction) asks a participant worker on a foreign chip to vote on
/// transaction `txn_ts` — globally unique, `(begin_cycle << 8) | worker`.
struct PrepareReq {
  db::Timestamp txn_ts = 0;
};

/// 2PC phase 1 response: the participant's vote. A "no" vote forces the
/// coordinator to abort everywhere.
struct PrepareAck {
  db::Timestamp txn_ts = 0;
  bool vote_commit = true;
};

/// 2PC phase 2: the coordinator's decision, carrying the write-set entries
/// the participant's chip owns. Entries travel WITH the decision so an
/// abort applies even when the matching PrepareReq was lost — the
/// participant needs no per-transaction state before this message.
struct CommitReq {
  db::Timestamp txn_ts = 0;
  bool commit = false;
  std::vector<cc::WriteSetEntry> entries;
};

/// 2PC phase 2 response: the participant applied (or replayed its recorded
/// decision for) `txn_ts`. Re-sent on duplicate CommitReq delivery.
struct CommitAck {
  db::Timestamp txn_ts = 0;
};

/// Routing/timing metadata, owned once per message. The transport and the
/// reliability layer operate on nothing else.
struct Header {
  db::WorkerId origin = 0;  // initiating worker: results route back to it
  /// Worker that put this packet on the wire — stamped by the sender at
  /// every fabric send (Reply echoes the request header, then the
  /// responding worker re-stamps). 2PC coordinators match acks to
  /// participants by it; workers classify returning cross-chip traffic
  /// for the in-flight window by it. 0 until first stamped.
  db::WorkerId src = 0;
  uint32_t cp_index = 0;    // physical CP register at the origin
  uint32_t txn_slot = 0;    // origin context slot (write-set routing)
  /// Cycle the origin worker put the REQUEST on the wire (0 = local
  /// dispatch, never stamped). Echoed unchanged into the reply so the
  /// origin can measure channel round-trip latency.
  uint64_t sent_at = 0;
  /// Reliability ack state: fabric-unique sequence number assigned at send
  /// time when the delivery-guarantee layer is on (0 = untracked).
  uint64_t seq = 0;
};

struct Envelope {
  Header hdr;
  std::variant<IndexOp, MemOp, IndexResult, MemResult, PrepareReq,
               PrepareAck, CommitReq, CommitAck>
      payload;

  Envelope() = default;
  Envelope(Header h, IndexOp p) : hdr(h), payload(p) {}
  Envelope(Header h, MemOp p) : hdr(h), payload(p) {}
  Envelope(Header h, IndexResult p) : hdr(h), payload(p) {}
  Envelope(Header h, MemResult p) : hdr(h), payload(p) {}
  Envelope(Header h, PrepareReq p) : hdr(h), payload(p) {}
  Envelope(Header h, PrepareAck p) : hdr(h), payload(p) {}
  Envelope(Header h, CommitReq p) : hdr(h), payload(std::move(p)) {}
  Envelope(Header h, CommitAck p) : hdr(h), payload(p) {}

  MessageClass cls() const { return MessageClass(payload.index()); }
  bool is_request() const { return IsRequestClass(cls()); }

  IndexOp& index_op() { return std::get<IndexOp>(payload); }
  const IndexOp& index_op() const { return std::get<IndexOp>(payload); }
  MemOp& mem_op() { return std::get<MemOp>(payload); }
  const MemOp& mem_op() const { return std::get<MemOp>(payload); }
  IndexResult& index_result() { return std::get<IndexResult>(payload); }
  const IndexResult& index_result() const {
    return std::get<IndexResult>(payload);
  }
  MemResult& mem_result() { return std::get<MemResult>(payload); }
  const MemResult& mem_result() const { return std::get<MemResult>(payload); }
  PrepareReq& prepare_req() { return std::get<PrepareReq>(payload); }
  const PrepareReq& prepare_req() const {
    return std::get<PrepareReq>(payload);
  }
  PrepareAck& prepare_ack() { return std::get<PrepareAck>(payload); }
  const PrepareAck& prepare_ack() const {
    return std::get<PrepareAck>(payload);
  }
  CommitReq& commit_req() { return std::get<CommitReq>(payload); }
  const CommitReq& commit_req() const { return std::get<CommitReq>(payload); }
  CommitAck& commit_ack() { return std::get<CommitAck>(payload); }
  const CommitAck& commit_ack() const { return std::get<CommitAck>(payload); }

  /// Builds a reply to `req` carrying `result`: the header is echoed
  /// (origin, cp_index, txn_slot, sent_at) so the response routes back to
  /// the initiator with the RTT stamp intact; transport state (seq) is NOT
  /// inherited — the reply is its own packet on the wire.
  template <typename Result>
  static Envelope Reply(const Envelope& req, Result result) {
    Header h = req.hdr;
    h.seq = 0;
    return Envelope(h, result);
  }
};

/// The single dispatch surface for every message an endpoint emits: the
/// softcore's Prepare stage, the worker's inbox/outbox routing and the
/// coprocessor's completed results all go through Issue. The worker
/// implements it — a destination equal to the worker's own id applies the
/// message locally (coprocessor submit, raw-memory service, CP writeback,
/// remote-LOAD resume); any other destination puts it on the fabric.
class IssuePort {
 public:
  virtual ~IssuePort() = default;
  /// Returns false only when a request could not be accepted this cycle —
  /// locally (coprocessor at its in-flight cap, DRAM backpressure) or, for
  /// cross-chip destinations, when the worker's inter-chip in-flight window
  /// is full — the caller keeps the envelope and retries. Same-chip fabric
  /// sends never block.
  virtual bool Issue(db::WorkerId dst, const Envelope& env) = 0;
};

}  // namespace bionicdb::comm

#endif  // BIONICDB_COMM_ENVELOPE_H_
