#include "log/command_log.h"

#include <algorithm>
#include <fstream>
#include <iterator>

#include "common/hash.h"
#include "db/txn_block.h"

namespace bionicdb::log {

namespace {

// On-disk format v2: [magic u64][body][CRC32 trailer u64], all fields
// little-endian. The CRC covers magic + body, so truncation and bit rot
// both fail fast. Loaders parse from a fully in-memory buffer with bounds
// checks on every length field — a corrupt file yields a clear Status,
// never UB (the v1 loader would happily resize() to a garbage length).

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(uint8_t(v >> (8 * i)));
}
void PutBytes(std::vector<uint8_t>* out, const std::vector<uint8_t>& b) {
  PutU64(out, b.size());
  out->insert(out->end(), b.begin(), b.end());
}

struct ByteReader {
  const uint8_t* data;
  size_t size;
  size_t off = 0;
  bool U64(uint64_t* v) {
    if (size - off < 8) return false;
    uint64_t x = 0;
    for (int i = 0; i < 8; ++i) x |= uint64_t(data[off + i]) << (8 * i);
    *v = x;
    off += 8;
    return true;
  }
  bool Bytes(std::vector<uint8_t>* b) {
    uint64_t n;
    if (!U64(&n)) return false;
    if (n > size - off) return false;  // corrupt length field
    b->assign(data + off, data + off + n);
    off += size_t(n);
    return true;
  }
};

Status WriteFileWithTrailer(const std::string& path,
                            const std::vector<uint8_t>& body) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return Status::Internal("cannot open " + path);
  os.write(reinterpret_cast<const char*>(body.data()),
           std::streamsize(body.size()));
  std::vector<uint8_t> trailer;
  PutU64(&trailer, Crc32(body.data(), body.size()));
  os.write(reinterpret_cast<const char*>(trailer.data()), 8);
  return os ? Status::Ok() : Status::Internal("write failed: " + path);
}

/// Reads the whole file, validates the checksum trailer and hands back the
/// body (magic included) for parsing.
Status ReadFileWithTrailer(const std::string& path, const char* what,
                           std::vector<uint8_t>* body) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::NotFound("cannot open " + path);
  std::vector<uint8_t> raw((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
  // Minimum: magic + one count + trailer.
  if (raw.size() < 24) {
    return Status::InvalidArgument(std::string(what) + " truncated");
  }
  ByteReader tr{raw.data() + raw.size() - 8, 8};
  uint64_t stored = 0;
  tr.U64(&stored);
  if (stored != Crc32(raw.data(), raw.size() - 8)) {
    return Status::InvalidArgument(std::string(what) +
                                   " checksum mismatch (corrupt file)");
  }
  raw.resize(raw.size() - 8);
  body->swap(raw);
  return Status::Ok();
}

constexpr uint64_t kLogMagic = 0xb10c10600101ull;   // v2 (checksummed)
constexpr uint64_t kCkptMagic = 0xb10c10600102ull;  // v2 (checksummed)

}  // namespace

size_t CommandLog::Append(db::WorkerId worker, sim::Addr block) {
  sim::DramMemory* dram = &engine_->simulator().dram();
  db::TxnBlock b(dram, block);
  LogRecord rec;
  rec.txn_type = b.txn_type();
  rec.worker = worker;
  const db::ProcedureInfo* proc =
      engine_->database().catalogue().FindProcedure(rec.txn_type);
  uint64_t size = proc != nullptr ? proc->block_data_size : 0;
  rec.input.resize(size);
  if (size > 0) b.ReadBytes(0, rec.input.data(), size);
  records_.push_back(std::move(rec));
  return records_.size() - 1;
}

void CommandLog::MarkOutcome(size_t record, sim::Addr block) {
  sim::DramMemory* dram = &engine_->simulator().dram();
  db::TxnBlock b(dram, block);
  records_[record].committed = b.state() == db::TxnState::kCommitted;
  records_[record].commit_ts = b.commit_ts();
}

std::vector<const LogRecord*> CommandLog::ReplayOrder() const {
  std::vector<const LogRecord*> out;
  for (const LogRecord& r : records_) {
    if (r.committed) out.push_back(&r);
  }
  std::sort(out.begin(), out.end(),
            [](const LogRecord* a, const LogRecord* b) {
              return a->commit_ts < b->commit_ts;
            });
  return out;
}

Status CommandLog::SaveToFile(const std::string& path) const {
  std::vector<uint8_t> body;
  PutU64(&body, kLogMagic);
  PutU64(&body, records_.size());
  for (const LogRecord& r : records_) {
    PutU64(&body, r.txn_type);
    PutU64(&body, r.worker);
    PutU64(&body, r.committed ? 1 : 0);
    PutU64(&body, r.commit_ts);
    PutBytes(&body, r.input);
  }
  return WriteFileWithTrailer(path, body);
}

Status CommandLog::LoadFromFile(const std::string& path) {
  std::vector<uint8_t> body;
  BIONICDB_RETURN_IF_ERROR(ReadFileWithTrailer(path, "command log", &body));
  ByteReader r{body.data(), body.size()};
  uint64_t magic, n;
  if (!r.U64(&magic) || magic != kLogMagic) {
    return Status::InvalidArgument("bad command-log magic");
  }
  if (!r.U64(&n)) return Status::InvalidArgument("truncated command log");
  // Parse into a scratch vector: a failure mid-file leaves records_ intact.
  std::vector<LogRecord> loaded;
  for (uint64_t i = 0; i < n; ++i) {
    LogRecord rec;
    uint64_t type, worker, committed;
    if (!r.U64(&type) || !r.U64(&worker) || !r.U64(&committed) ||
        !r.U64(&rec.commit_ts) || !r.Bytes(&rec.input)) {
      return Status::InvalidArgument("truncated command-log record");
    }
    rec.txn_type = db::TxnTypeId(type);
    rec.worker = db::WorkerId(worker);
    rec.committed = committed != 0;
    loaded.push_back(std::move(rec));
  }
  if (r.off != r.size) {
    return Status::InvalidArgument("trailing garbage in command log");
  }
  records_.swap(loaded);
  return Status::Ok();
}

// --- Checkpoint ----------------------------------------------------------

Checkpoint Checkpoint::Capture(const db::Database& database) {
  Checkpoint ckpt;
  auto collect = [](db::TupleAccessor t, std::vector<TupleRecord>* out) {
    if (t.dirty() || t.tombstone()) return true;  // skip uncommitted/deleted
    TupleRecord rec;
    rec.key = t.key_bytes();
    rec.payload = t.payload_bytes();
    rec.write_ts = t.write_ts();
    out->push_back(std::move(rec));
    return true;
  };
  for (const db::TableSchema& schema : database.catalogue().tables()) {
    for (db::PartitionId p = 0; p < database.n_partitions(); ++p) {
      TableDump dump;
      dump.table = schema.id;
      dump.partition = p;
      if (schema.index == db::IndexKind::kHash) {
        database.hash_index(schema.id, p)->ForEach(
            [&](db::TupleAccessor t) { return collect(t, &dump.tuples); });
      } else {
        database.skiplist_index(schema.id, p)->ForEach(
            [&](db::TupleAccessor t) { return collect(t, &dump.tuples); });
      }
      ckpt.dumps_.push_back(std::move(dump));
    }
  }
  return ckpt;
}

Status Checkpoint::Restore(db::Database* database) const {
  for (const TableDump& dump : dumps_) {
    const db::TableSchema* schema = database->catalogue().FindTable(dump.table);
    if (schema == nullptr) {
      return Status::NotFound("checkpoint table missing from schema");
    }
    for (const TupleRecord& rec : dump.tuples) {
      // Replicated tables appear once per partition in the dump; loading
      // them partition-by-partition (not fanned out) preserves multiplicity.
      BIONICDB_RETURN_IF_ERROR(database->LoadOne(
          dump.table, dump.partition, rec.key.data(),
          uint16_t(rec.key.size()), rec.payload.data(),
          uint32_t(rec.payload.size()), rec.write_ts));
    }
  }
  return Status::Ok();
}

db::Timestamp Checkpoint::MaxTimestamp() const {
  db::Timestamp ts = 0;
  for (const TableDump& dump : dumps_) {
    for (const TupleRecord& rec : dump.tuples) {
      ts = std::max(ts, rec.write_ts);
    }
  }
  return ts;
}

bool Checkpoint::Equivalent(const Checkpoint& other) const {
  if (dumps_.size() != other.dumps_.size()) return false;
  auto canon = [](const TableDump& d) {
    std::vector<std::pair<std::vector<uint8_t>, std::vector<uint8_t>>> v;
    for (const TupleRecord& r : d.tuples) v.emplace_back(r.key, r.payload);
    std::sort(v.begin(), v.end());
    return v;
  };
  for (size_t i = 0; i < dumps_.size(); ++i) {
    if (dumps_[i].table != other.dumps_[i].table ||
        dumps_[i].partition != other.dumps_[i].partition) {
      return false;
    }
    if (canon(dumps_[i]) != canon(other.dumps_[i])) return false;
  }
  return true;
}

Status Checkpoint::SaveToFile(const std::string& path) const {
  std::vector<uint8_t> body;
  PutU64(&body, kCkptMagic);
  PutU64(&body, dumps_.size());
  for (const TableDump& d : dumps_) {
    PutU64(&body, d.table);
    PutU64(&body, d.partition);
    PutU64(&body, d.tuples.size());
    for (const TupleRecord& r : d.tuples) {
      PutU64(&body, r.write_ts);
      PutBytes(&body, r.key);
      PutBytes(&body, r.payload);
    }
  }
  return WriteFileWithTrailer(path, body);
}

Status Checkpoint::LoadFromFile(const std::string& path) {
  std::vector<uint8_t> body;
  BIONICDB_RETURN_IF_ERROR(ReadFileWithTrailer(path, "checkpoint", &body));
  ByteReader r{body.data(), body.size()};
  uint64_t magic, n;
  if (!r.U64(&magic) || magic != kCkptMagic) {
    return Status::InvalidArgument("bad checkpoint magic");
  }
  if (!r.U64(&n)) return Status::InvalidArgument("truncated checkpoint");
  std::vector<TableDump> loaded;
  for (uint64_t i = 0; i < n; ++i) {
    TableDump d;
    uint64_t table, partition, count;
    if (!r.U64(&table) || !r.U64(&partition) || !r.U64(&count)) {
      return Status::InvalidArgument("truncated checkpoint dump");
    }
    d.table = db::TableId(table);
    d.partition = db::PartitionId(partition);
    for (uint64_t t = 0; t < count; ++t) {
      TupleRecord rec;
      if (!r.U64(&rec.write_ts) || !r.Bytes(&rec.key) ||
          !r.Bytes(&rec.payload)) {
        return Status::InvalidArgument("truncated checkpoint tuple");
      }
      d.tuples.push_back(std::move(rec));
    }
    loaded.push_back(std::move(d));
  }
  if (r.off != r.size) {
    return Status::InvalidArgument("trailing garbage in checkpoint");
  }
  dumps_.swap(loaded);
  return Status::Ok();
}

// --- Recovery ------------------------------------------------------------

Status Recover(core::BionicDb* engine, const Checkpoint& checkpoint,
               const CommandLog& log) {
  BIONICDB_RETURN_IF_ERROR(checkpoint.Restore(&engine->database()));
  // Re-initialise the hardware clock past the newest checkpointed write so
  // replayed transactions pass visibility checks.
  engine->simulator().FastForward((checkpoint.MaxTimestamp() >> 8) + 1);

  for (const LogRecord* rec : log.ReplayOrder()) {
    db::TxnBlock block = engine->AllocateBlock(rec->txn_type);
    if (!rec->input.empty()) {
      block.WriteBytes(0, rec->input.data(), rec->input.size());
    }
    engine->Submit(rec->worker, block.base());
    engine->Drain();
    if (block.state() != db::TxnState::kCommitted) {
      return Status::Internal(
          "replay of a committed transaction did not commit");
    }
  }
  return Status::Ok();
}

}  // namespace bionicdb::log
