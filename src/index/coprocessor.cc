#include "index/coprocessor.h"

#include "cc/cc_unit.h"

namespace bionicdb::index {

IndexCoprocessor::IndexCoprocessor(db::Database* db,
                                   db::PartitionId partition, Config config)
    : sim::Component("coproc/p" + std::to_string(partition)),
      db_(db),
      partition_(partition),
      config_(config),
      hash_(std::make_unique<HashPipeline>(db, partition, config.hash, config,
                                           &results_)),
      skiplist_(std::make_unique<SkiplistPipeline>(
          db, partition, config.skiplist, config, &results_)) {}

bool IndexCoprocessor::Submit(const comm::Envelope& env) {
  if (inflight() >= config_.max_inflight) {
    fc_cap_rejects_.Add();
    return false;
  }
  const db::TableSchema* schema =
      db_->catalogue().FindTable(env.index_op().table);
  if (schema == nullptr) {
    comm::IndexResult r;
    r.status = isa::CpStatus::kError;
    results_.push_back(comm::Envelope::Reply(env, r));
    return true;
  }
  // Background = shipped here by a remote initiator; the header is the
  // single source of truth for remoteness (origin != serving partition).
  (env.hdr.origin != partition_ ? fc_background_ops_ : fc_foreground_ops_)
      .Add();
  if (schema->index == db::IndexKind::kHash) {
    return hash_->stage().Accept(env);
  }
  return skiplist_->stage().Accept(env);
}

void IndexCoprocessor::Tick(uint64_t cycle) {
  hash_->Tick(cycle);
  skiplist_->Tick(cycle);
}

void IndexCoprocessor::CollectStats(StatsScope scope) const {
  scope.SetCounter("max_inflight", config_.max_inflight);
  scope.MergeCounterSet(counters_);
  hash_->CollectStats(scope.Sub("hash"));
  skiplist_->CollectStats(scope.Sub("skiplist"));
  config_.cc_unit->CollectStats(scope.Sub("cc"));
}

}  // namespace bionicdb::index
