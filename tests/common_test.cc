#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/json.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table_printer.h"

namespace bionicdb {
namespace {

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusOr, ValueAndError) {
  StatusOr<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  StatusOr<int> bad(Status::InvalidArgument("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(Rng, DeterministicAndDistinctSeeds) {
  Rng a(1), b(1), c(2);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
  }
  bool differs = false;
  Rng a2(1);
  for (int i = 0; i < 10; ++i) {
    if (a2.Next() != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, BoundedSampling) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
    uint64_t v = rng.NextInRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Zipfian, SkewsTowardLowRanks) {
  Rng rng(3);
  ZipfianGenerator zipf(1000, 0.99);
  uint64_t low = 0, total = 20000;
  for (uint64_t i = 0; i < total; ++i) {
    if (zipf.Next(&rng) < 10) ++low;
  }
  // With theta=0.99 the top-10 of 1000 items draw far more than 1 % of
  // requests (analytically ~35 %); anything over 15 % proves skew.
  EXPECT_GT(low, total * 15 / 100);
}

TEST(Zipfian, InRange) {
  Rng rng(5);
  ZipfianGenerator zipf(100);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Next(&rng), 100u);
}

TEST(ScrambledZipfian, SpreadsHotKeys) {
  Rng rng(9);
  ScrambledZipfianGenerator gen(1000);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(gen.Next(&rng));
  // Hot ranks scatter across the keyspace instead of clustering at 0..k.
  EXPECT_GT(*seen.rbegin(), 500u);
}

TEST(Hash, SdbmMatchesReference) {
  // Reference values computed with the classic sdbm loop.
  auto ref = [](const std::string& s) {
    uint64_t h = 0;
    for (unsigned char c : s) h = c + (h << 6) + (h << 16) - h;
    return h;
  };
  for (const char* cs : {"", "a", "key", "bionicdb", "0123456789"}) {
    std::string s(cs);
    EXPECT_EQ(SdbmHash(reinterpret_cast<const uint8_t*>(s.data()), s.size()),
              ref(s))
        << s;
  }
}

TEST(Hash, Sdbm64ConsistentWithBytes) {
  uint64_t key = 0x0123456789abcdefULL;
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = uint8_t(key >> (8 * i));
  EXPECT_EQ(SdbmHash64(key), SdbmHash(bytes, 8));
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.min(), 1);
  EXPECT_DOUBLE_EQ(s.max(), 100);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_NEAR(s.Quantile(0.5), 50.5, 1.0);
  EXPECT_NEAR(s.Quantile(0.99), 99, 1.5);
}

TEST(Summary, QuantileEdgeCases) {
  Summary empty;
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0);

  Summary one;
  one.Add(3.5);
  EXPECT_DOUBLE_EQ(one.Quantile(0.0), 3.5);
  EXPECT_DOUBLE_EQ(one.Quantile(0.5), 3.5);
  EXPECT_DOUBLE_EQ(one.Quantile(1.0), 3.5);

  Summary s;
  for (int i = 1; i <= 10; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 10);
  // Out-of-range and NaN inputs clamp instead of indexing out of bounds.
  EXPECT_DOUBLE_EQ(s.Quantile(-0.3), 1);
  EXPECT_DOUBLE_EQ(s.Quantile(7.0), 10);
  EXPECT_DOUBLE_EQ(s.Quantile(std::numeric_limits<double>::quiet_NaN()), 1);
}

TEST(Summary, ReservoirInclusionIsUniform) {
  // Stream 16 full reservoirs' worth of distinct values; with unbiased
  // algorithm-R sampling every element has inclusion probability k/n, so
  // each quarter of the stream should land ~k/4 reservoir slots. The old
  // biased sampler (modulo of a raw LCG draw) over-retained the early
  // prefix by several sigma.
  Summary s;
  const size_t k = 4096;
  const size_t n = 16 * k;
  for (size_t i = 0; i < n; ++i) s.Add(double(i));
  ASSERT_EQ(s.reservoir().size(), k);
  size_t quartile[4] = {0, 0, 0, 0};
  for (double v : s.reservoir()) {
    quartile[size_t(v) / (n / 4)] += 1;
  }
  // Expected 1024 per quartile; sd ~= sqrt(k * 1/4 * 3/4) ~= 28. Allow 6
  // sigma so the deterministic seed never flakes but real bias fails.
  for (size_t q = 0; q < 4; ++q) {
    EXPECT_NEAR(double(quartile[q]), double(k) / 4, 170)
        << "quartile " << q;
  }
  // Reservoir mean must track the stream mean.
  double sum = 0;
  for (double v : s.reservoir()) sum += v;
  EXPECT_NEAR(sum / double(k), s.mean(), double(n) * 0.02);
}

TEST(Histogram, PowerOfTwoBuckets) {
  Histogram h;
  h.Add(0);
  h.Add(1);
  h.Add(2);
  h.Add(3);
  h.Add(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030u);
  EXPECT_EQ(h.buckets()[0], 1u);  // 0
  EXPECT_EQ(h.buckets()[1], 1u);  // [1,2)
  EXPECT_EQ(h.buckets()[2], 2u);  // [2,4)
  EXPECT_EQ(h.buckets()[11], 1u);  // [1024,2048)
  EXPECT_EQ(Histogram::BucketFloor(11), 1024u);
}

TEST(StatsRegistry, HierarchicalPathsAndScopes) {
  StatsRegistry reg;
  StatsScope root(&reg, "");
  StatsScope w0 = root.Sub("workers").Sub("0");
  w0.SetCounter("cycles/busy", 10);
  w0.SetGauge("tps", 2.5);
  CounterSet set;
  set.Add("stalls", 3);
  w0.MergeCounterSet(set);
  // Root scope must not introduce a leading '/'.
  EXPECT_TRUE(reg.HasPath("workers/0/cycles/busy"));
  EXPECT_EQ(reg.GetCounter("workers/0/cycles/busy"), 10u);
  EXPECT_EQ(reg.GetCounter("workers/0/stalls"), 3u);
  EXPECT_FALSE(reg.HasPath("/workers/0/cycles/busy"));
  reg.AddCounter("workers/0/cycles/busy", 5);
  EXPECT_EQ(reg.GetCounter("workers/0/cycles/busy"), 15u);
}

TEST(StatsRegistry, ToJsonRoundTrips) {
  StatsRegistry reg;
  reg.SetCounter("sim/cycles", 1234);
  reg.SetCounter("workers/0/cycles/busy", 70);
  reg.SetCounter("workers/0/cycles/idle", 30);
  reg.SetGauge("run/tps", 1.5e6);
  Summary lat;
  for (int i = 1; i <= 100; ++i) lat.Add(i);
  reg.SetSummary("run/latency_cycles", lat);
  Histogram h;
  h.Add(7);
  reg.SetHistogram("sim/dram/latency", h);

  auto parsed = json::Value::Parse(reg.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const json::Value& doc = parsed.value();
  ASSERT_NE(doc.FindPath("sim/cycles"), nullptr);
  EXPECT_DOUBLE_EQ(doc.FindPath("sim/cycles")->number(), 1234);
  EXPECT_DOUBLE_EQ(doc.FindPath("workers/0/cycles/busy")->number(), 70);
  EXPECT_DOUBLE_EQ(doc.FindPath("run/tps")->number(), 1.5e6);
  ASSERT_NE(doc.FindPath("run/latency_cycles/p50"), nullptr);
  EXPECT_NEAR(doc.FindPath("run/latency_cycles/p50")->number(), 50.5, 1.0);
  ASSERT_NE(doc.FindPath("sim/dram/latency/buckets/4"), nullptr);
  EXPECT_DOUBLE_EQ(doc.FindPath("sim/dram/latency/buckets/4")->number(), 1);
}

TEST(Json, WriterParserRoundTrip) {
  json::Writer w(2);
  w.BeginObject();
  w.Key("name");
  w.Value(std::string("bench \"x\"\n"));
  w.Key("vals");
  w.BeginArray();
  w.Value(uint64_t{1});
  w.Value(-2.5);
  w.Value(true);
  w.Null();
  w.EndArray();
  w.EndObject();
  auto parsed = json::Value::Parse(w.TakeString());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const json::Value& doc = parsed.value();
  EXPECT_EQ(doc.Find("name")->string(), "bench \"x\"\n");
  ASSERT_EQ(doc.Find("vals")->array().size(), 4u);
  EXPECT_DOUBLE_EQ(doc.Find("vals")->array()[1].number(), -2.5);
  EXPECT_FALSE(json::Value::Parse("{\"unterminated").ok());
  EXPECT_FALSE(json::Value::Parse("").ok());
}

TEST(CounterSet, AddAndGet) {
  CounterSet c;
  c.Add("x");
  c.Add("x", 4);
  EXPECT_EQ(c.Get("x"), 5u);
  EXPECT_EQ(c.Get("missing"), 0u);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "2.50"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("2.50"), std::string::npos);
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
}

TEST(ParallelFor, NestedLoopsRunSeriallyOnTheJobsThread) {
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  std::vector<int> runs(kOuter * kInner, 0);
  std::vector<int> on_job_thread(kOuter * kInner, 0);
  ParallelFor(kOuter, 0, [&](size_t i) {
    const std::thread::id job_thread = std::this_thread::get_id();
    ParallelFor(kInner, 0, [&](size_t j) {
      ++runs[i * kInner + j];
      on_job_thread[i * kInner + j] =
          std::this_thread::get_id() == job_thread;
    });
  });
  for (size_t k = 0; k < runs.size(); ++k) {
    EXPECT_EQ(runs[k], 1) << k;
    EXPECT_EQ(on_job_thread[k], 1) << k;
  }
}

}  // namespace
}  // namespace bionicdb
