#include <gtest/gtest.h>

#include "cc/visibility.h"
#include "cc/write_set.h"
#include "db/tuple.h"
#include "sim/memory.h"

namespace bionicdb::cc {
namespace {

class VisibilityTest : public ::testing::Test {
 protected:
  VisibilityTest() : dram_(sim::TimingConfig()) {}

  db::TupleAccessor MakeTuple(db::Timestamp wts, db::Timestamp rts,
                              uint8_t flags) {
    uint8_t key[8] = {1};
    sim::Addr a = db::AllocateTuple(&dram_, sim::DramMemory::kHostPartition, 0,
                                    key, 8, nullptr, 0, wts, flags);
    db::TupleAccessor t(&dram_, a);
    t.set_read_ts(rts);
    return t;
  }

  sim::DramMemory dram_;
};

TEST_F(VisibilityTest, ReadGrantedOnOlderWrite) {
  auto t = MakeTuple(/*wts=*/5, /*rts=*/0, 0);
  auto r = CheckVisibility(&t, /*ts=*/10, AccessMode::kRead);
  EXPECT_EQ(r.status, isa::CpStatus::kOk);
  EXPECT_TRUE(r.header_dirtied);  // read_ts bumped
  EXPECT_EQ(t.read_ts(), 10u);
}

TEST_F(VisibilityTest, ReadRejectedOnNewerWrite) {
  auto t = MakeTuple(/*wts=*/20, /*rts=*/0, 0);
  auto r = CheckVisibility(&t, /*ts=*/10, AccessMode::kRead);
  EXPECT_EQ(r.status, isa::CpStatus::kRejected);
  EXPECT_EQ(t.read_ts(), 0u);  // untouched
}

TEST_F(VisibilityTest, ReadDoesNotLowerReadTs) {
  auto t = MakeTuple(/*wts=*/1, /*rts=*/50, 0);
  auto r = CheckVisibility(&t, /*ts=*/10, AccessMode::kRead);
  EXPECT_EQ(r.status, isa::CpStatus::kOk);
  EXPECT_FALSE(r.header_dirtied);
  EXPECT_EQ(t.read_ts(), 50u);
}

TEST_F(VisibilityTest, WriteRequiresLowerReadAndWriteTimes) {
  auto ok = MakeTuple(5, 5, 0);
  EXPECT_EQ(CheckVisibility(&ok, 10, AccessMode::kUpdate).status,
            isa::CpStatus::kOk);
  EXPECT_TRUE(ok.dirty());

  auto newer_reader = MakeTuple(5, 20, 0);
  EXPECT_EQ(CheckVisibility(&newer_reader, 10, AccessMode::kUpdate).status,
            isa::CpStatus::kRejected);
  EXPECT_FALSE(newer_reader.dirty());

  auto newer_writer = MakeTuple(20, 5, 0);
  EXPECT_EQ(CheckVisibility(&newer_writer, 10, AccessMode::kUpdate).status,
            isa::CpStatus::kRejected);
}

TEST_F(VisibilityTest, DirtyTupleBlindlyRejected) {
  auto t = MakeTuple(1, 1, db::kFlagDirty);
  for (auto mode :
       {AccessMode::kRead, AccessMode::kUpdate, AccessMode::kRemove}) {
    EXPECT_EQ(CheckVisibility(&t, 100, mode).status,
              isa::CpStatus::kRejected);
  }
}

TEST_F(VisibilityTest, TombstoneReportsNotFound) {
  auto t = MakeTuple(1, 1, db::kFlagTombstone);
  EXPECT_EQ(CheckVisibility(&t, 100, AccessMode::kRead).status,
            isa::CpStatus::kNotFound);
  EXPECT_EQ(CheckVisibility(&t, 100, AccessMode::kUpdate).status,
            isa::CpStatus::kNotFound);
}

TEST_F(VisibilityTest, RemoveMarksDirtyAndTombstone) {
  auto t = MakeTuple(1, 1, 0);
  EXPECT_EQ(CheckVisibility(&t, 10, AccessMode::kRemove).status,
            isa::CpStatus::kOk);
  EXPECT_TRUE(t.dirty());
  EXPECT_TRUE(t.tombstone());
}

TEST_F(VisibilityTest, ScanVisibleFiltersDirtyTombstoneAndFuture) {
  auto clean = MakeTuple(5, 0, 0);
  EXPECT_TRUE(ScanVisible(clean, 10));
  EXPECT_FALSE(ScanVisible(clean, 3));  // written after scanner began
  auto dirty = MakeTuple(5, 0, db::kFlagDirty);
  EXPECT_FALSE(ScanVisible(dirty, 10));
  auto dead = MakeTuple(5, 0, db::kFlagTombstone);
  EXPECT_FALSE(ScanVisible(dead, 10));
}

TEST_F(VisibilityTest, RepeatableReadViaTimestamps) {
  // T1 (ts=10) reads; T2 (ts=20) updates; T1 re-reads -> still fine (its
  // ts is older than nothing new committed). If T2 commits first with
  // wts=20, T1's second read must be rejected.
  auto t = MakeTuple(5, 0, 0);
  EXPECT_EQ(CheckVisibility(&t, 10, AccessMode::kRead).status,
            isa::CpStatus::kOk);
  // T2 writes and commits.
  EXPECT_EQ(CheckVisibility(&t, 20, AccessMode::kUpdate).status,
            isa::CpStatus::kOk);
  ApplyCommit(&dram_, {t.addr(), WriteKind::kUpdate}, 20);
  // T1's second read now sees a newer writer -> abort for repeatable read.
  EXPECT_EQ(CheckVisibility(&t, 10, AccessMode::kRead).status,
            isa::CpStatus::kRejected);
}

class WriteSetTest : public VisibilityTest {};

TEST_F(WriteSetTest, CommitPublishesUpdate) {
  auto t = MakeTuple(1, 1, 0);
  CheckVisibility(&t, 10, AccessMode::kUpdate);
  ApplyCommit(&dram_, {t.addr(), WriteKind::kUpdate}, 10);
  EXPECT_FALSE(t.dirty());
  EXPECT_EQ(t.write_ts(), 10u);
}

TEST_F(WriteSetTest, CommitKeepsTombstoneOnRemove) {
  auto t = MakeTuple(1, 1, 0);
  CheckVisibility(&t, 10, AccessMode::kRemove);
  ApplyCommit(&dram_, {t.addr(), WriteKind::kRemove}, 10);
  EXPECT_FALSE(t.dirty());
  EXPECT_TRUE(t.tombstone());
}

TEST_F(WriteSetTest, AbortRollsBackEachKind) {
  auto upd = MakeTuple(3, 1, 0);
  CheckVisibility(&upd, 10, AccessMode::kUpdate);
  ApplyAbort(&dram_, {upd.addr(), WriteKind::kUpdate});
  EXPECT_FALSE(upd.dirty());
  EXPECT_EQ(upd.write_ts(), 3u);  // old version intact

  auto rem = MakeTuple(3, 1, 0);
  CheckVisibility(&rem, 10, AccessMode::kRemove);
  ApplyAbort(&dram_, {rem.addr(), WriteKind::kRemove});
  EXPECT_FALSE(rem.dirty());
  EXPECT_FALSE(rem.tombstone());  // resurrection

  auto ins = MakeTuple(0, 0, db::kFlagDirty);  // freshly inserted
  ApplyAbort(&dram_, {ins.addr(), WriteKind::kInsert});
  EXPECT_FALSE(ins.dirty());
  EXPECT_TRUE(ins.tombstone());  // aborted insert becomes invisible
}

}  // namespace
}  // namespace bionicdb::cc
