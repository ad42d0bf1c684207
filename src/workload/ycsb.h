// YCSB workload for BionicDB (paper section 5.3).
//
// The paper's YCSB transaction issues 16 independent DB accesses with no
// data dependency over a table of 8-byte integer keys and 1 KB payloads,
// 300 K records per partition. Variants used in the evaluation:
//  * YCSB-C  — read-only (Figures 9a, 10b, 12a, 13);
//  * YCSB-E  — modified to scan-only, fixed 50-record scans (Fig. 11c/d);
//  * a cross-partition variant where 75 % of accesses are remote (Fig. 13);
//  * a footprint sweep (1..64 accesses per transaction) for Fig. 12a.
// A read/update mix (YCSB-A/B flavour) is also provided; the paper omits
// YCSB-B for brevity but the engine supports it, and it exercises the
// UNDO-logging commit path.
#ifndef BIONICDB_WORKLOAD_YCSB_H_
#define BIONICDB_WORKLOAD_YCSB_H_

#include <cstdint>
#include <functional>
#include <optional>

#include "common/random.h"
#include "common/status.h"
#include "core/engine.h"

namespace bionicdb::workload {

struct YcsbOptions {
  enum class Mode {
    kReadOnly,   // YCSB-C
    kUpdateMix,  // reads + in-place updates (YCSB-A/B flavour)
    kScanOnly,   // modified YCSB-E
    kMultisite,  // read-only with explicit per-access partition routing
    /// Update mix with explicit per-access partition routing across a
    /// sharded cluster: a `multisite_fraction` of transactions write at
    /// least one tuple owned by a foreign chip, forcing the engine's
    /// two-phase distributed commit. Chips are the engine's
    /// (EngineOptions::workers_per_chip); one-chip engines never draw the
    /// multisite coin, so their RNG stream — and therefore their results
    /// — are identical across fractions.
    kMultisiteUpdate,
  };

  Mode mode = Mode::kReadOnly;
  uint32_t records_per_partition = 300'000;
  uint32_t payload_len = 1024;
  uint32_t accesses_per_txn = 16;
  uint32_t updates_per_txn = 8;    // kUpdateMix: first N accesses update
  uint32_t scan_len = 50;          // kScanOnly
  /// kScanOnly: when >0, every transaction draws its scan length
  /// uniformly from [scan_len_min, scan_len] and passes it through the
  /// Scan op's scan_reg register override (the widened YCSB-E variant);
  /// 0 keeps the fixed scan_len immediate.
  uint32_t scan_len_min = 0;
  /// kMultisite: probability that an access targets a remote partition.
  double remote_fraction = 0.75;
  /// kMultisiteUpdate: probability that a transaction spans chips.
  double multisite_fraction = 0.1;
  bool zipfian = false;            // uniform by default (paper uses uniform)
};

/// Sets up and drives a YCSB database on a BionicDB engine.
class Ycsb {
 public:
  static constexpr db::TableId kTable = 0;
  static constexpr db::TxnTypeId kTxnType = 100;

  Ycsb(core::BionicDb* engine, const YcsbOptions& options);

  /// Creates the table, registers the stored procedure and bulk-loads
  /// `records_per_partition` tuples into every partition.
  Status Setup();

  /// Builds one transaction block for `worker` (keys local to its partition
  /// unless kMultisite). Returns the block's base address.
  sim::Addr MakeTxn(Rng* rng, db::WorkerId worker);

  /// Submits `n` transactions per worker and returns total submitted.
  uint64_t SubmitBatch(Rng* rng, uint64_t n_per_worker);

  /// On-demand generator in the host driver's TxnFactory shape (for the
  /// closed/open-loop drivers, which pull transactions as slots free
  /// instead of pre-populating blocks). `rng` and this workload must
  /// outlive the returned function.
  std::function<sim::Addr(db::WorkerId)> Factory(Rng* rng);

  uint64_t block_data_size() const { return block_data_size_; }
  const YcsbOptions& options() const { return options_; }

 private:
  uint64_t RandomKey(Rng* rng, db::PartitionId partition);

  core::BionicDb* engine_;
  YcsbOptions options_;
  uint64_t block_data_size_ = 0;
  /// Built only when `zipfian` is set: its zeta costs one pow per key.
  std::optional<ZipfianGenerator> zipf_;
};

}  // namespace bionicdb::workload

#endif  // BIONICDB_WORKLOAD_YCSB_H_
