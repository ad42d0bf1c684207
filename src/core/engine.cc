#include "core/engine.h"

namespace bionicdb::core {

BionicDb::BionicDb(const EngineOptions& options) : options_(options) {
  // One chip holding every worker is the plain engine: no inter-chip tier,
  // no 2PC grouping, no 2PC stats.
  const uint32_t workers_per_chip =
      options.workers_per_chip < options.n_workers ? options.workers_per_chip
                                                   : 0;
  sim_ = std::make_unique<sim::Simulator>(options.timing);
  // One DRAM lane + arena per partition (the per-worker memory channels of
  // Fig. 1b). Must precede table creation so rows land in their partition's
  // arena.
  sim_->dram().ConfigurePartitions(options.n_workers);
  database_ = std::make_unique<db::Database>(&sim_->dram(), options.n_workers,
                                             options.seed);
  fabric_ = std::make_unique<comm::CommFabric>(
      options.n_workers, options.timing, options.topology, workers_per_chip);
  fabric_->set_reliability(options.reliability);
  sim_->AddComponent(fabric_.get());
  for (uint32_t w = 0; w < options.n_workers; ++w) {
    cc_units_.push_back(std::make_unique<cc::CcUnit>(
        &sim_->dram(), options.cc_mode, options.dirty_wait_cycles));
    Softcore::Config softcore = options.softcore;
    softcore.cc_unit = cc_units_.back().get();
    index::IndexCoprocessor::Config coproc = options.coproc;
    coproc.cc_unit = cc_units_.back().get();
    workers_.push_back(std::make_unique<PartitionWorker>(
        database_.get(), w, options.timing, softcore, coproc,
        workers_per_chip, fabric_.get()));
    sim_->AddComponent(workers_.back().get(), w);
    // Deliveries into worker w's inboxes wake worker w.
    fabric_->set_inbox_owner(w, workers_.back().get());
  }
}

Status BionicDb::RegisterProcedure(db::TxnTypeId type, isa::Program program,
                                   uint64_t block_data_size) {
  return database_->catalogue().RegisterProcedure(type, std::move(program),
                                                  block_data_size);
}

db::TxnBlock BionicDb::AllocateBlock(db::TxnTypeId type) {
  const db::ProcedureInfo* proc = database_->catalogue().FindProcedure(type);
  uint64_t size = proc != nullptr ? proc->block_data_size : 256;
  return db::TxnBlock::Allocate(&sim_->dram(), type, size);
}

void BionicDb::Submit(db::WorkerId worker, sim::Addr block) {
  workers_[worker]->SubmitBlock(block);
}

uint64_t BionicDb::Drain(uint64_t max_cycles) {
  uint64_t start = sim_->now();
  sim_->RunUntilIdle(max_cycles);
  return sim_->now() - start;
}

uint64_t BionicDb::TotalCommitted() const {
  uint64_t n = 0;
  for (const auto& w : workers_) n += w->stats().committed;
  return n;
}

uint64_t BionicDb::TotalAborted() const {
  uint64_t n = 0;
  for (const auto& w : workers_) n += w->stats().aborted;
  return n;
}

void BionicDb::CollectStats(StatsRegistry* registry) const {
  StatsScope root(registry, "");
  sim_->CollectStats(root.Sub("sim"));
  fabric_->CollectStats(root.Sub("fabric"));
  StatsScope workers = root.Sub("workers");
  for (const auto& w : workers_) {
    w->CollectStats(workers.Sub(std::to_string(w->id())));
  }
  root.SetCounter("total_committed", TotalCommitted());
  root.SetCounter("total_aborted", TotalAborted());
  root.SetGauge("throughput_tps", Throughput());
}

}  // namespace bionicdb::core
