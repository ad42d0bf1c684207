// Multi-chip cluster topology (DESIGN.md section 14).
//
// A cluster instantiates N chips — each the full existing engine: partition
// workers with private DRAM lanes — as one sharded BionicDb whose
// worker id space is split into chips of `workers_per_chip`. Two fabric
// tiers connect them:
//
//  * on-chip: the existing 3-cycle crossbar/ring hop;
//  * inter-chip: NIC/PCIe-class links (TimingConfig::interchip_latency_
//    cycles per hop, TimingConfig::interchip_issue_gap_cycles of
//    serialisation per directed chip pair) with queueing and per-link
//    counters.
//
// Transactions that write tuples owned by a foreign chip commit through
// the engine's two-phase distributed commit (Softcore coordinator +
// PartitionWorker participants over PrepareReq/PrepareAck/CommitReq/
// CommitAck envelopes). The wrapper only wires configuration and stats:
// all mechanism lives in the engine, so both simulator modes (per-cycle
// and event-driven) stay bit-identical.
#ifndef BIONICDB_CLUSTER_CLUSTER_H_
#define BIONICDB_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <memory>

#include "core/engine.h"

namespace bionicdb::cluster {

struct ClusterOptions {
  uint32_t n_chips = 1;
  uint32_t workers_per_chip = 4;
  /// Template for the per-chip engine configuration. n_workers, the chip
  /// grouping (cluster.workers_per_node) and the 2PC knobs
  /// (softcore.two_pc.workers_per_chip) are derived from the cluster shape
  /// and overwrite whatever the template holds. With n_chips == 1 no
  /// cluster knob is set at all, so a single-chip cluster is byte-identical
  /// to a plain engine of the same size — the scale-out baseline.
  core::EngineOptions engine;
};

/// A sharded BionicDb: one engine spanning n_chips * workers_per_chip
/// workers, chip boundaries enforced by the inter-chip fabric tier and the
/// distributed-commit configuration.
class ClusterDb {
 public:
  explicit ClusterDb(const ClusterOptions& options);

  core::BionicDb& engine() { return *engine_; }
  const core::BionicDb& engine() const { return *engine_; }

  uint32_t n_chips() const { return options_.n_chips; }
  uint32_t workers_per_chip() const { return options_.workers_per_chip; }
  uint32_t n_workers() const {
    return options_.n_chips * options_.workers_per_chip;
  }
  uint32_t ChipOf(db::WorkerId w) const {
    return w / options_.workers_per_chip;
  }

  /// Committed/aborted transaction counts restricted to one chip's workers.
  uint64_t ChipCommitted(uint32_t chip) const;
  uint64_t ChipAborted(uint32_t chip) const;

  /// Dumps the engine's full statistics tree plus a `cluster/` subtree
  /// (shape, per-chip commit/abort totals) into `registry`.
  void CollectStats(StatsRegistry* registry) const;

 private:
  ClusterOptions options_;
  std::unique_ptr<core::BionicDb> engine_;
};

}  // namespace bionicdb::cluster

#endif  // BIONICDB_CLUSTER_CLUSTER_H_
