#include "workload/ycsb.h"

#include <algorithm>
#include <vector>

#include "isa/program.h"

namespace bionicdb::workload {

namespace {

using isa::ProgramBuilder;

// Register conventions: r0 = transaction-block data base (hardware), r1 =
// scratch, r2.. = per-update tuple addresses in the update-mix program.

isa::Program ReadOnlyProgram(uint32_t n) {
  ProgramBuilder b;
  b.Logic();
  for (uint32_t i = 0; i < n; ++i) {
    b.Search({.table_id = Ycsb::kTable,
              .cp = isa::Reg(i),
              .key_offset = int32_t(8 * i)});
  }
  b.Yield();
  b.Commit();
  for (uint32_t i = 0; i < n; ++i) b.Ret(1, isa::Reg(i));
  b.CommitTxn();
  b.Abort().AbortTxn();
  return b.Build().value();
}

// Layout: [0, 8n) keys; [8n, 8n+8u) new values; [8n+8u, 8n+16u) UNDO slots.
isa::Program UpdateMixProgram(uint32_t n, uint32_t u) {
  ProgramBuilder b;
  const int32_t newval_base = int32_t(8 * n);
  const int32_t undo_base = int32_t(8 * n + 8 * u);
  b.Logic();
  for (uint32_t i = 0; i < n; ++i) {
    ProgramBuilder::DbArgs args{.table_id = Ycsb::kTable,
                                .cp = isa::Reg(i),
                                .key_offset = int32_t(8 * i)};
    if (i < u) {
      b.Update(args);
    } else {
      b.Search(args);
    }
  }
  b.Yield();
  b.Commit();
  // All RETs first: any failure aborts before a single byte is modified,
  // so the abort handler has nothing to restore.
  for (uint32_t i = 0; i < n; ++i) {
    b.Ret(isa::Reg(i < u ? 2 + i : 1), isa::Reg(i));
  }
  // Then apply the in-place updates, backing each original up in the UNDO
  // area of the transaction block first (paper section 4.7).
  for (uint32_t i = 0; i < u; ++i) {
    isa::Reg addr = isa::Reg(2 + i);
    b.Load(1, addr, 0);                             // old value
    b.Store(1, 0, undo_base + int32_t(8 * i));      // UNDO backup
    b.Load(1, 0, newval_base + int32_t(8 * i));     // new value
    b.Store(1, addr, 0);                            // in-place update
  }
  b.CommitTxn();
  b.Abort().AbortTxn();
  return b.Build().value();
}

// Layout: key at 0; per-txn scan length at 8 (variable variant only);
// result buffer (8 B per collected tuple) at 16.
isa::Program ScanProgram(uint32_t scan_len, bool variable = false) {
  ProgramBuilder b;
  b.Logic();
  if (variable) {
    // Widened YCSB-E: the scan length comes from the transaction block
    // through the scan_reg override; scan_count stays the cap.
    b.Load(2, 0, 8);
    b.Scan({.table_id = Ycsb::kTable,
            .cp = 0,
            .key_offset = 0,
            .aux_offset = 16,
            .scan_count = scan_len,
            .scan_reg = 2});
  } else {
    b.Scan({.table_id = Ycsb::kTable,
            .cp = 0,
            .key_offset = 0,
            .aux_offset = 16,
            .scan_count = scan_len});
  }
  b.Yield();
  b.Commit().Ret(1, 0).CommitTxn();
  b.Abort().AbortTxn();
  return b.Build().value();
}

// Layout: per access i, key at 16i and target partition at 16i + 8.
isa::Program MultisiteProgram(uint32_t n) {
  ProgramBuilder b;
  b.Logic();
  for (uint32_t i = 0; i < n; ++i) {
    b.Load(1, 0, int32_t(16 * i + 8));
    b.Search({.table_id = Ycsb::kTable,
              .cp = isa::Reg(i),
              .key_offset = int32_t(16 * i),
              .part_reg = 1});
  }
  b.Yield();
  b.Commit();
  for (uint32_t i = 0; i < n; ++i) b.Ret(1, isa::Reg(i));
  b.CommitTxn();
  b.Abort().AbortTxn();
  return b.Build().value();
}

// Layout: per access i, key at 16i and target partition at 16i + 8; new
// values at [16n, 16n + 8u); UNDO slots at [16n + 8u, 16n + 16u). Same
// commit discipline as UpdateMixProgram: all RETs before any in-place
// Store, so a rejected access aborts with nothing to restore.
isa::Program MultisiteUpdateProgram(uint32_t n, uint32_t u) {
  ProgramBuilder b;
  const int32_t newval_base = int32_t(16 * n);
  const int32_t undo_base = int32_t(16 * n + 8 * u);
  b.Logic();
  for (uint32_t i = 0; i < n; ++i) {
    b.Load(1, 0, int32_t(16 * i + 8));
    ProgramBuilder::DbArgs args{.table_id = Ycsb::kTable,
                                .cp = isa::Reg(i),
                                .key_offset = int32_t(16 * i),
                                .part_reg = 1};
    if (i < u) {
      b.Update(args);
    } else {
      b.Search(args);
    }
  }
  b.Yield();
  b.Commit();
  for (uint32_t i = 0; i < n; ++i) {
    b.Ret(isa::Reg(i < u ? 2 + i : 1), isa::Reg(i));
  }
  for (uint32_t i = 0; i < u; ++i) {
    isa::Reg addr = isa::Reg(2 + i);
    b.Load(1, addr, 0);                             // old value
    b.Store(1, 0, undo_base + int32_t(8 * i));      // UNDO backup
    b.Load(1, 0, newval_base + int32_t(8 * i));     // new value
    b.Store(1, addr, 0);                            // in-place update
  }
  b.CommitTxn();
  b.Abort().AbortTxn();
  return b.Build().value();
}

}  // namespace

Ycsb::Ycsb(core::BionicDb* engine, const YcsbOptions& options)
    : engine_(engine), options_(options) {
  if (options.zipfian) zipf_.emplace(options.records_per_partition);
}

Status Ycsb::Setup() {
  db::TableSchema schema;
  schema.id = kTable;
  schema.name = "usertable";
  schema.key_len = 8;
  schema.payload_len = options_.payload_len;
  schema.index = options_.mode == YcsbOptions::Mode::kScanOnly
                     ? db::IndexKind::kSkiplist
                     : db::IndexKind::kHash;
  // Oversize the table (~4x records): the paper notes a "sufficiently
  // large hash table could minimize the activation of Traverse stage".
  schema.hash_buckets =
      db::HashBucketsFor(uint64_t(options_.records_per_partition) * 4);
  BIONICDB_RETURN_IF_ERROR(engine_->database().CreateTable(schema));

  isa::Program program;
  const uint32_t n = options_.accesses_per_txn;
  switch (options_.mode) {
    case YcsbOptions::Mode::kReadOnly:
      program = ReadOnlyProgram(n);
      block_data_size_ = 8ull * n;
      break;
    case YcsbOptions::Mode::kUpdateMix: {
      uint32_t u = std::min(options_.updates_per_txn, n);
      program = UpdateMixProgram(n, u);
      block_data_size_ = 8ull * n + 16ull * u;
      break;
    }
    case YcsbOptions::Mode::kScanOnly:
      program = ScanProgram(options_.scan_len,
                            /*variable=*/options_.scan_len_min > 0);
      block_data_size_ = 16 + 8ull * options_.scan_len;
      break;
    case YcsbOptions::Mode::kMultisite:
      program = MultisiteProgram(n);
      block_data_size_ = 16ull * n;
      break;
    case YcsbOptions::Mode::kMultisiteUpdate: {
      uint32_t u = std::min(options_.updates_per_txn, n);
      program = MultisiteUpdateProgram(n, u);
      block_data_size_ = 16ull * n + 16ull * u;
      break;
    }
  }
  BIONICDB_RETURN_IF_ERROR(
      engine_->RegisterProcedure(kTxnType, program, block_data_size_));

  // Bulk load: partition p owns keys [p*R, (p+1)*R).
  std::vector<uint8_t> payload(options_.payload_len);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = uint8_t(i * 131);
  const uint64_t r = options_.records_per_partition;
  db::Database& database = engine_->database();
  return database.Populate([&](db::PartitionId p) {
    for (uint64_t k = 0; k < r; ++k) {
      BIONICDB_RETURN_IF_ERROR(database.LoadU64(
          kTable, p, p * r + k, payload.data(), uint32_t(payload.size())));
    }
    return Status::Ok();
  });
}

uint64_t Ycsb::RandomKey(Rng* rng, db::PartitionId partition) {
  uint64_t local = zipf_ ? zipf_->Next(rng)
                        : rng->NextUint64(options_.records_per_partition);
  return uint64_t(partition) * options_.records_per_partition + local;
}

sim::Addr Ycsb::MakeTxn(Rng* rng, db::WorkerId worker) {
  db::TxnBlock block = engine_->AllocateBlock(kTxnType);
  const uint32_t n = options_.accesses_per_txn;
  switch (options_.mode) {
    case YcsbOptions::Mode::kReadOnly:
      for (uint32_t i = 0; i < n; ++i) {
        block.WriteKeyU64(int64_t(8 * i), RandomKey(rng, worker));
      }
      break;
    case YcsbOptions::Mode::kUpdateMix: {
      // Distinct keys within the transaction: re-touching a tuple this
      // transaction already dirtied is blindly rejected by the CC
      // (section 4.7), which would make the block unretryable.
      uint32_t u = std::min(options_.updates_per_txn, n);
      std::vector<uint64_t> keys;
      while (keys.size() < n) {
        uint64_t k = RandomKey(rng, worker);
        if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
          keys.push_back(k);
        }
      }
      for (uint32_t i = 0; i < n; ++i) {
        block.WriteKeyU64(int64_t(8 * i), keys[i]);
      }
      for (uint32_t i = 0; i < u; ++i) {
        block.WriteU64(int64_t(8 * n + 8 * i), rng->Next());
      }
      break;
    }
    case YcsbOptions::Mode::kScanOnly: {
      // Leave headroom so a full-length scan is possible.
      uint64_t span = options_.records_per_partition;
      uint64_t start = rng->NextUint64(
          span > options_.scan_len ? span - options_.scan_len : 1);
      block.WriteKeyU64(0, uint64_t(worker) * span + start);
      if (options_.scan_len_min > 0) {
        uint64_t lo = std::min(options_.scan_len_min, options_.scan_len);
        block.WriteU64(8, lo + rng->NextUint64(options_.scan_len - lo + 1));
      }
      break;
    }
    case YcsbOptions::Mode::kMultisite: {
      uint32_t parts = engine_->database().n_partitions();
      for (uint32_t i = 0; i < n; ++i) {
        db::PartitionId target = worker;
        if (parts > 1 && rng->NextBool(options_.remote_fraction)) {
          target = db::PartitionId(rng->NextUint64(parts - 1));
          if (target >= worker) ++target;
        }
        block.WriteKeyU64(int64_t(16 * i), RandomKey(rng, target));
        block.WriteU64(int64_t(16 * i + 8), target);
      }
      break;
    }
    case YcsbOptions::Mode::kMultisiteUpdate: {
      const uint32_t parts = engine_->database().n_partitions();
      const uint32_t wpc = engine_->options().workers_per_chip;
      const uint32_t n_chips = engine_->n_chips();
      // The multisite coin is only flipped when there is more than one
      // chip, so single-chip runs consume the identical RNG stream at
      // every fraction (their throughput is the fraction-independent
      // baseline of the scale-out sweep).
      const bool multisite =
          n_chips > 1 && rng->NextBool(options_.multisite_fraction);
      const uint32_t u = std::min(options_.updates_per_txn, n);
      std::vector<uint64_t> keys;
      std::vector<db::PartitionId> targets;
      while (keys.size() < n) {
        const uint32_t i = uint32_t(keys.size());
        db::PartitionId target = worker;
        if (multisite && i < u && (i % 2) == 0) {
          // Even update slots write a foreign-chip partition: every
          // multisite transaction carries at least one remote write leg
          // (slot 0), so it cannot commit without the 2PC round.
          const uint32_t my_chip = engine_->ChipOf(worker);
          uint32_t chip = uint32_t(rng->NextUint64(n_chips - 1));
          if (chip >= my_chip) ++chip;
          const uint32_t base = chip * wpc;
          const uint32_t span = std::min(wpc, parts - base);
          target = db::PartitionId(base + rng->NextUint64(span));
        }
        // Distinct keys within the transaction (same CC blind-reject
        // rationale as kUpdateMix; cross-partition keys are distinct by
        // construction of the per-partition key ranges).
        const uint64_t k = RandomKey(rng, target);
        if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
          keys.push_back(k);
          targets.push_back(target);
        }
      }
      for (uint32_t i = 0; i < n; ++i) {
        block.WriteKeyU64(int64_t(16 * i), keys[i]);
        block.WriteU64(int64_t(16 * i + 8), targets[i]);
      }
      for (uint32_t i = 0; i < u; ++i) {
        block.WriteU64(int64_t(16 * n + 8 * i), rng->Next());
      }
      break;
    }
  }
  return block.base();
}

uint64_t Ycsb::SubmitBatch(Rng* rng, uint64_t n_per_worker) {
  uint64_t total = 0;
  for (uint32_t w = 0; w < engine_->database().n_partitions(); ++w) {
    for (uint64_t i = 0; i < n_per_worker; ++i) {
      engine_->Submit(w, MakeTxn(rng, w));
      ++total;
    }
  }
  return total;
}

std::function<sim::Addr(db::WorkerId)> Ycsb::Factory(Rng* rng) {
  return [this, rng](db::WorkerId w) { return MakeTxn(rng, w); };
}

}  // namespace bionicdb::workload
