// Degraded-mode serving: recovery with RecoverPolicy::kDegraded marks
// unrecoverable shards absent instead of failing the generation, and
// QueryService answers every aggregate from the surviving shards with a
// coverage annotation and conservatively widened (cluster-sampling)
// intervals. The answers must be deterministic -- bitwise identical across
// thread counts (and across PIE_SIMD builds; CI runs this test in both) --
// and a degraded store must refuse to checkpoint.

#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "persist/format.h"
#include "store/query_service.h"
#include "store/sketch_store.h"
#include "test_dirs.h"
#include "util/random.h"
#include "util/status.h"

namespace pie {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};
constexpr int kNumShards = 8;

SketchStoreOptions StoreOptions() {
  SketchStoreOptions options;
  options.num_shards = kNumShards;
  options.default_tau = 16.0;
  options.instance_tau[10] = 4.0;  // unit weights: tau = 1/p
  options.instance_tau[11] = 4.0;
  options.salt = 909090;
  return options;
}

/// Two weighted instances with overlapping keys (dominance / L1) plus two
/// unit-weight instances (DistinctUnion). Deterministic.
std::unique_ptr<SketchStore> BuildStore() {
  auto store = std::make_unique<SketchStore>(StoreOptions());
  Rng rng(777);
  for (uint64_t key = 1; key <= 4000; ++key) {
    store->Update(0, key, std::ceil(64.0 / (1 + rng.UniformInt(63))));
    if (key % 2 == 0) {
      store->Update(1, key, std::ceil(32.0 / (1 + rng.UniformInt(31))));
    }
    store->Update(10, key, 1.0);
    if (key % 3 == 0) store->Update(11, key + 1000, 1.0);
  }
  return store;
}

/// Checkpoints a fresh store into `dir` and deletes the given shard files
/// of its (single) generation.
void WriteStoreWithLostShards(const std::string& dir,
                              const std::vector<uint32_t>& lost) {
  const auto store = BuildStore();
  ASSERT_TRUE(store->Checkpoint(dir).ok());
  for (const uint32_t s : lost) {
    const std::string path =
        dir + "/" + persist::ShardFileName(/*seq=*/1, s);
    ASSERT_TRUE(std::filesystem::remove(path)) << path;
  }
}

/// All four aggregate types answered from `service`, as intervals in a
/// fixed order: MaxDominance (ht, l), MinDominanceHt, L1Distance,
/// DistinctUnion (ht, l).
std::vector<IntervalEstimate> AllAggregates(const QueryService& service) {
  std::vector<IntervalEstimate> out;
  const auto max_dom = service.MaxDominance(0, 1);
  EXPECT_TRUE(max_dom.ok()) << max_dom.status().ToString();
  out.push_back(max_dom->ht);
  out.push_back(max_dom->l);
  const auto min_dom = service.MinDominanceHt(0, 1);
  EXPECT_TRUE(min_dom.ok()) << min_dom.status().ToString();
  out.push_back(*min_dom);
  const auto l1 = service.L1Distance(0, 1);
  EXPECT_TRUE(l1.ok()) << l1.status().ToString();
  out.push_back(*l1);
  const auto distinct = service.DistinctUnion({10, 11});
  EXPECT_TRUE(distinct.ok()) << distinct.status().ToString();
  out.push_back(distinct->ht);
  out.push_back(distinct->l);
  return out;
}

std::vector<uint64_t> Bits(const std::vector<IntervalEstimate>& intervals) {
  std::vector<uint64_t> bits;
  for (const auto& e : intervals) {
    bits.push_back(std::bit_cast<uint64_t>(e.estimate));
    bits.push_back(std::bit_cast<uint64_t>(e.variance));
    bits.push_back(std::bit_cast<uint64_t>(e.std_err));
    bits.push_back(std::bit_cast<uint64_t>(e.lo));
    bits.push_back(std::bit_cast<uint64_t>(e.hi));
    bits.push_back(std::bit_cast<uint64_t>(e.coverage));
  }
  return bits;
}

TEST(DegradedTest, DegradedRecoverMarksLostShardsAbsent) {
  const std::string dir = FreshTestDir("mark");
  WriteStoreWithLostShards(dir, {1, 5});

  // Strict recovery must NOT serve the damaged (only) generation.
  auto strict = SketchStore::Recover(dir);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kDataLoss);

  RecoverOptions options;
  options.policy = RecoverPolicy::kDegraded;
  auto degraded = SketchStore::Recover(dir, options);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  const SketchStore& store = **degraded;
  EXPECT_EQ(store.absent_shards(), 2);
  EXPECT_TRUE(store.ShardAbsent(1));
  EXPECT_TRUE(store.ShardAbsent(5));
  EXPECT_FALSE(store.ShardAbsent(0));

  const auto snapshot = store.Snapshot();
  EXPECT_EQ(snapshot->absent_shards(), 2);
  EXPECT_DOUBLE_EQ(snapshot->coverage(), 6.0 / 8.0);
  // The surviving shards carry fewer records than the full store.
  const auto full = BuildStore();
  EXPECT_LT(snapshot->UpdateCount(0), full->Snapshot()->UpdateCount(0));
  EXPECT_GT(snapshot->UpdateCount(0), 0u);
}

TEST(DegradedTest, DegradedNeverResurrectsUncommittedGeneration) {
  // Generation 2 has every shard file but NO manifest (crashed before its
  // commit point): degraded recovery must serve complete generation 1, not
  // stitch together the uncommitted one.
  const std::string dir = FreshTestDir("uncommitted");
  const auto store = BuildStore();
  ASSERT_TRUE(store->Checkpoint(dir).ok());
  ASSERT_TRUE(store->Checkpoint(dir).ok());
  ASSERT_TRUE(std::filesystem::remove(
      dir + "/" + persist::ManifestFileName(/*seq=*/2)));

  RecoverOptions options;
  options.policy = RecoverPolicy::kDegraded;
  auto degraded = SketchStore::Recover(dir, options);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ((*degraded)->absent_shards(), 0);
  EXPECT_EQ((*degraded)->Snapshot()->UpdateCount(0),
            store->Snapshot()->UpdateCount(0));
}

TEST(DegradedTest, AllShardsLostIsDataLoss) {
  const std::string dir = FreshTestDir("all_lost");
  WriteStoreWithLostShards(dir, {0, 1, 2, 3, 4, 5, 6, 7});
  RecoverOptions options;
  options.policy = RecoverPolicy::kDegraded;
  auto degraded = SketchStore::Recover(dir, options);
  ASSERT_FALSE(degraded.ok());
  EXPECT_EQ(degraded.status().code(), StatusCode::kDataLoss);
}

TEST(DegradedTest, DegradedStoreRefusesCheckpoint) {
  const std::string dir = FreshTestDir("refuse");
  WriteStoreWithLostShards(dir, {2});
  RecoverOptions options;
  options.policy = RecoverPolicy::kDegraded;
  auto degraded = SketchStore::Recover(dir, options);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();

  const std::string out = FreshTestDir("refuse_out");
  const Status status = (*degraded)->Checkpoint(out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(DegradedTest, DegradedAnswersAllAggregatesDeterministically) {
  const std::string dir = FreshTestDir("determinism");
  WriteStoreWithLostShards(dir, {1, 5});
  RecoverOptions options;
  options.policy = RecoverPolicy::kDegraded;
  auto degraded = SketchStore::Recover(dir, options);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  const auto snapshot = (*degraded)->Snapshot();

  std::vector<uint64_t> want;
  for (const int threads : kThreadCounts) {
    QueryServiceOptions query_options;
    query_options.num_threads = threads;
    QueryService service(snapshot, query_options);
    const auto intervals = AllAggregates(service);
    for (const auto& e : intervals) {
      EXPECT_DOUBLE_EQ(e.coverage, 6.0 / 8.0);
      EXPECT_GT(e.estimate, 0.0);
      EXPECT_GE(e.hi, e.lo);
    }
    const std::vector<uint64_t> bits = Bits(intervals);
    if (want.empty()) {
      want = bits;
    } else {
      EXPECT_EQ(bits, want)
          << "degraded answers drifted at num_threads=" << threads;
    }
  }
  ASSERT_FALSE(want.empty());
}

TEST(DegradedTest, DegradedIntervalsAreConservative) {
  // The cluster-sampling extrapolation must not narrow error bars: for
  // every aggregate the degraded CI is at least as wide as the full-store
  // CI (1/c^2 within-shard scaling plus the between-shard term).
  const auto full = BuildStore();
  QueryService full_service(full->Snapshot());
  const auto full_intervals = AllAggregates(full_service);

  const std::string dir = FreshTestDir("conservative");
  WriteStoreWithLostShards(dir, {1, 5});
  RecoverOptions options;
  options.policy = RecoverPolicy::kDegraded;
  auto degraded = SketchStore::Recover(dir, options);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  QueryService degraded_service((*degraded)->Snapshot());
  const auto degraded_intervals = AllAggregates(degraded_service);

  ASSERT_EQ(full_intervals.size(), degraded_intervals.size());
  for (size_t i = 0; i < full_intervals.size(); ++i) {
    const double full_width = full_intervals[i].hi - full_intervals[i].lo;
    const double degraded_width =
        degraded_intervals[i].hi - degraded_intervals[i].lo;
    EXPECT_GE(degraded_width, full_width) << "aggregate " << i;
    EXPECT_DOUBLE_EQ(full_intervals[i].coverage, 1.0) << "aggregate " << i;
    EXPECT_DOUBLE_EQ(degraded_intervals[i].coverage, 6.0 / 8.0)
        << "aggregate " << i;
  }
}

TEST(DegradedTest, SelectorAggregatesCarryCoverageToo) {
  const std::string dir = FreshTestDir("auto");
  WriteStoreWithLostShards(dir, {3});
  RecoverOptions options;
  options.policy = RecoverPolicy::kDegraded;
  auto degraded = SketchStore::Recover(dir, options);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  QueryService service((*degraded)->Snapshot());

  const auto max_auto = service.MaxDominanceAuto(0, 1);
  ASSERT_TRUE(max_auto.ok()) << max_auto.status().ToString();
  EXPECT_DOUBLE_EQ(max_auto->interval.coverage, 7.0 / 8.0);
  const auto distinct_auto = service.DistinctUnionAuto({10, 11});
  ASSERT_TRUE(distinct_auto.ok()) << distinct_auto.status().ToString();
  EXPECT_DOUBLE_EQ(distinct_auto->interval.coverage, 7.0 / 8.0);
}

TEST(DegradedTest, WithVarianceOffKeepsZeroWidthContract) {
  const std::string dir = FreshTestDir("novariance");
  WriteStoreWithLostShards(dir, {1, 5});
  RecoverOptions options;
  options.policy = RecoverPolicy::kDegraded;
  auto degraded = SketchStore::Recover(dir, options);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();

  QueryServiceOptions query_options;
  query_options.with_variance = false;
  QueryService service((*degraded)->Snapshot(), query_options);
  for (const auto& e : AllAggregates(service)) {
    EXPECT_EQ(std::bit_cast<uint64_t>(e.std_err),
              std::bit_cast<uint64_t>(0.0));
    EXPECT_EQ(std::bit_cast<uint64_t>(e.lo),
              std::bit_cast<uint64_t>(e.estimate));
    EXPECT_EQ(std::bit_cast<uint64_t>(e.hi),
              std::bit_cast<uint64_t>(e.estimate));
    EXPECT_DOUBLE_EQ(e.coverage, 6.0 / 8.0);
  }
}

TEST(DegradedTest, CompleteStoreReportsFullCoverage) {
  // The strict path is untouched: a complete store's answers carry
  // coverage 1.0 (the byte-identical gate for strict-mode answers is
  // tests/persist_determinism_test.cc).
  const auto full = BuildStore();
  QueryService service(full->Snapshot());
  for (const auto& e : AllAggregates(service)) {
    EXPECT_DOUBLE_EQ(e.coverage, 1.0);
  }
}

}  // namespace
}  // namespace pie
