// Tests for the store layer: one-pass streaming sketch builders
// (equivalence with the batch builders on any arrival order, exact
// merges), the sharded SketchStore's snapshot semantics, and the
// QueryService's parity with the aggregate-layer estimators.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <random>
#include <vector>

#include "aggregate/distinct.h"
#include "aggregate/distinct_multi.h"
#include "aggregate/dominance.h"
#include "aggregate/sketch.h"
#include "core/min_weighted.h"
#include "gtest/gtest.h"
#include "sampling/bottomk.h"
#include "store/query_service.h"
#include "store/sketch_store.h"
#include "store/streaming_sketch.h"
#include "util/random.h"
#include "workload/sets.h"

namespace pie {
namespace {

std::vector<WeightedItem> ZipfishItems(int n, Rng& rng) {
  std::vector<WeightedItem> items;
  for (int i = 0; i < n; ++i) {
    items.push_back({static_cast<uint64_t>(i + 1),
                     std::ceil(100.0 / (1 + rng.UniformInt(50)))});
  }
  return items;
}

std::vector<std::vector<WeightedItem>> Permutations(
    const std::vector<WeightedItem>& items) {
  std::vector<std::vector<WeightedItem>> perms;
  perms.push_back(items);
  perms.push_back({items.rbegin(), items.rend()});
  std::mt19937_64 shuffler(12345);
  for (int i = 0; i < 3; ++i) {
    auto shuffled = items;
    std::shuffle(shuffled.begin(), shuffled.end(), shuffler);
    perms.push_back(std::move(shuffled));
  }
  return perms;
}

// ---------------------------------------------------------------------------
// StreamingPpsSketch
// ---------------------------------------------------------------------------

TEST(StreamingPpsTest, MatchesBatchBuildOnAnyPermutation) {
  Rng rng(3);
  const auto items = ZipfishItems(300, rng);
  const double tau = 40.0;
  const uint64_t salt = 9;
  const auto batch = PpsInstanceSketch::Build(items, tau, salt);
  std::vector<WeightedItem> batch_sorted(batch.entries());
  std::sort(batch_sorted.begin(), batch_sorted.end(),
            [](const WeightedItem& a, const WeightedItem& b) {
              return a.key < b.key;
            });
  ASSERT_GT(batch.size(), 0);

  for (const auto& perm : Permutations(items)) {
    StreamingPpsSketch stream(tau, salt);
    for (const auto& item : perm) stream.Update(item.key, item.weight);
    const auto stream_sorted = stream.EntriesByKey();
    ASSERT_EQ(stream_sorted.size(), batch_sorted.size());
    for (size_t i = 0; i < stream_sorted.size(); ++i) {
      EXPECT_EQ(stream_sorted[i].key, batch_sorted[i].key);
      EXPECT_EQ(stream_sorted[i].weight, batch_sorted[i].weight);  // bitwise
    }
    EXPECT_EQ(stream.num_updates(), items.size());
  }
}

TEST(StreamingPpsTest, MergeOfDisjointPartsMatchesDirect) {
  Rng rng(5);
  const auto items = ZipfishItems(400, rng);
  const double tau = 25.0;
  const uint64_t salt = 77;
  StreamingPpsSketch direct(tau, salt);
  for (const auto& item : items) direct.Update(item.key, item.weight);

  std::vector<StreamingPpsSketch> parts(
      4, StreamingPpsSketch(tau, salt));
  for (const auto& item : items) {
    parts[Mix64(item.key) % 4].Update(item.key, item.weight);
  }
  StreamingPpsSketch merged(tau, salt);
  for (const auto& part : parts) merged.Merge(part);

  const auto direct_sorted = direct.EntriesByKey();
  const auto merged_sorted = merged.EntriesByKey();
  ASSERT_EQ(direct_sorted.size(), merged_sorted.size());
  for (size_t i = 0; i < direct_sorted.size(); ++i) {
    EXPECT_EQ(direct_sorted[i].key, merged_sorted[i].key);
    EXPECT_EQ(direct_sorted[i].weight, merged_sorted[i].weight);
  }
  EXPECT_EQ(merged.num_updates(), direct.num_updates());
}

TEST(StreamingPpsTest, SampledKeyAccumulatesRepeats) {
  StreamingPpsSketch stream(10.0, /*salt=*/1);
  // Weight 100 clears any threshold; repeats accumulate exactly.
  stream.Update(42, 100.0);
  stream.Update(42, 7.0);
  double value = 0.0;
  ASSERT_TRUE(stream.Lookup(42, &value));
  EXPECT_EQ(value, 107.0);
  EXPECT_EQ(stream.size(), 1);
  EXPECT_EQ(stream.num_updates(), 2u);
}

TEST(StreamingPpsTest, TemplatedSubsetSumMatchesSketchPath) {
  Rng rng(11);
  const auto items = ZipfishItems(200, rng);
  StreamingPpsSketch stream(60.0, /*salt=*/13);
  for (const auto& item : items) stream.Update(item.key, item.weight);
  const auto view = PpsInstanceSketch::FromStreaming(stream);
  auto pred = [](uint64_t key) { return key % 3 == 0; };
  EXPECT_EQ(stream.SubsetSumEstimate(pred), view.SubsetSumEstimate(pred));
}

// ---------------------------------------------------------------------------
// StreamingBottomkSketch
// ---------------------------------------------------------------------------

void ExpectSketchesIdentical(const BottomKSketch& a, const BottomKSketch& b) {
  EXPECT_EQ(a.family, b.family);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.threshold, b.threshold);  // bitwise (also covers +inf)
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].key, b.entries[i].key);
    EXPECT_EQ(a.entries[i].weight, b.entries[i].weight);
    EXPECT_EQ(a.entries[i].rank, b.entries[i].rank);
  }
}

// A tau this small samples every positive record (seeds are < 1), so the
// index tests below control exactly which keys the sketch holds.
constexpr double kSampleAllTau = 1e-12;

TEST(StreamingPpsIndexTest, OneShardKeysGrowThroughTenDoublingsLikeAMap) {
  // Keys the store would route to shard 0 of 16: Mix64(key) % 16 == 0
  // pins the hash's low bits, the clustering the index must not feel.
  std::vector<uint64_t> keys;
  for (uint64_t key = 1; keys.size() < (16u << 10); ++key) {
    if (Mix64(key) % 16 == 0) keys.push_back(key);
  }
  std::mt19937_64 shuffler(77);
  StreamingPpsSketch sketch(kSampleAllTau, 5);
  std::map<uint64_t, double> oracle;
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t key = keys[i];
    const double weight = static_cast<double>(1 + i % 13);
    sketch.Update(key, weight);
    oracle[key] += weight;
    // Repeat an earlier key now and then: it must accumulate, not append.
    const uint64_t again = keys[shuffler() % (i + 1)];
    sketch.Update(again, 0.5);
    oracle[again] += 0.5;
  }
  ASSERT_EQ(static_cast<size_t>(sketch.size()), oracle.size());
  for (const auto& [key, weight] : oracle) {
    double value = 0.0;
    ASSERT_TRUE(sketch.Lookup(key, &value)) << key;
    EXPECT_EQ(value, weight) << key;
  }
  // Arrival order is kept: entries_[i] is the i-th distinct key offered.
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(sketch.entries()[i].key, keys[i]);
  }
  // Misses on keys of the same shard that were never offered.
  int misses = 0;
  for (uint64_t key = keys.back() + 1; misses < 1000; ++key) {
    if (Mix64(key) % 16 != 0) continue;
    ++misses;
    EXPECT_FALSE(sketch.Lookup(key, nullptr)) << key;
  }
  // The rebuilt and merged indexes answer the same.
  const auto rebuilt = StreamingPpsSketch::FromParts(
      kSampleAllTau, 5, sketch.entries(), sketch.num_updates());
  StreamingPpsSketch merged(kSampleAllTau, 5);
  merged.Merge(sketch);
  for (const auto& [key, weight] : oracle) {
    double a = 0.0, b = 0.0;
    ASSERT_TRUE(rebuilt.Lookup(key, &a));
    ASSERT_TRUE(merged.Lookup(key, &b));
    EXPECT_EQ(a, weight);
    EXPECT_EQ(b, weight);
  }
  EXPECT_FALSE(rebuilt.Lookup(keys.back() + 1, nullptr));
}

TEST(StreamingPpsIndexTest, LookupOnEmptyAndMissAfterGrowth) {
  StreamingPpsSketch sketch(kSampleAllTau, 1);
  double value = -1.0;
  EXPECT_FALSE(sketch.Lookup(0, &value));
  EXPECT_FALSE(sketch.Lookup(42, nullptr));
  EXPECT_EQ(value, -1.0);  // untouched on a miss
  sketch.Update(7, 0.0);   // counted, never sampled
  EXPECT_FALSE(sketch.Lookup(7, nullptr));
  EXPECT_EQ(sketch.num_updates(), 1u);

  // Even keys only, through several doublings; odd keys must all miss.
  for (uint64_t key = 0; key < 5000; key += 2) sketch.Update(key, 1.0);
  for (uint64_t key = 1; key < 5000; key += 2) {
    EXPECT_FALSE(sketch.Lookup(key, &value)) << key;
  }
  EXPECT_EQ(value, -1.0);
  EXPECT_TRUE(sketch.Lookup(4998, &value));
  EXPECT_EQ(value, 1.0);
}

TEST(StreamingPpsIndexDeathTest, FromPartsRejectsDuplicateKey) {
  std::vector<WeightedItem> entries = {{3, 1.0}, {9, 2.0}, {3, 4.0}};
  EXPECT_DEATH(
      {
        auto sketch = StreamingPpsSketch::FromParts(kSampleAllTau, 1,
                                                    entries, 3);
        (void)sketch;
      },
      "duplicate key");
}

TEST(StreamingBottomkTest, MatchesBatchSamplerOnAnyPermutation) {
  Rng rng(7);
  const auto items = ZipfishItems(500, rng);
  for (RankFamily family : {RankFamily::kPps, RankFamily::kExp}) {
    const int k = 64;
    const uint64_t salt = 21;
    const auto batch = BottomKSample(items, k, family, SeedFunction(salt));
    for (const auto& perm : Permutations(items)) {
      StreamingBottomkSketch stream(k, family, salt);
      for (const auto& item : perm) stream.Update(item.key, item.weight);
      ExpectSketchesIdentical(stream.Finalize(), batch);
    }
  }
}

TEST(StreamingBottomkTest, MergeOfDisjointPartsMatchesDirect) {
  Rng rng(9);
  const auto items = ZipfishItems(300, rng);
  const int k = 48;
  const uint64_t salt = 33;
  const auto batch =
      BottomKSample(items, k, RankFamily::kPps, SeedFunction(salt));

  // Uneven split: one part smaller than k (infinite threshold), one large.
  std::vector<StreamingBottomkSketch> parts(
      3, StreamingBottomkSketch(k, RankFamily::kPps, salt));
  for (size_t i = 0; i < items.size(); ++i) {
    const int part = i < 10 ? 0 : (i % 2 == 0 ? 1 : 2);
    parts[static_cast<size_t>(part)].Update(items[i].key, items[i].weight);
  }
  StreamingBottomkSketch merged(k, RankFamily::kPps, salt);
  for (const auto& part : parts) merged.Merge(part);
  ExpectSketchesIdentical(merged.Finalize(), batch);
  EXPECT_EQ(merged.num_updates(), items.size());
}

TEST(StreamingBottomkTest, FewerThanKItemsIsExact) {
  StreamingBottomkSketch stream(10, RankFamily::kPps, /*salt=*/3);
  stream.Update(1, 5.0);
  stream.Update(2, 3.0);
  stream.Update(3, 0.0);  // never retained
  const auto sketch = stream.Finalize();
  EXPECT_EQ(sketch.entries.size(), 2u);
  EXPECT_TRUE(std::isinf(sketch.threshold));
}

// ---------------------------------------------------------------------------
// SketchStore snapshots
// ---------------------------------------------------------------------------

SketchStoreOptions SmallStoreOptions() {
  SketchStoreOptions options;
  options.num_shards = 4;
  options.default_tau = 30.0;
  options.salt = 101;
  return options;
}

TEST(SketchStoreTest, SnapshotReusesCleanShardsAndSeesWrites) {
  Rng rng(15);
  const auto items = ZipfishItems(200, rng);
  SketchStore store(SmallStoreOptions());
  store.UpdateBatch(0, items);

  const auto snap1 = store.Snapshot();
  const auto snap2 = store.Snapshot();
  for (int s = 0; s < store.num_shards(); ++s) {
    // Quiet shards republish nothing: both snapshots share the same
    // immutable per-shard capture.
    EXPECT_EQ(&snap1->Shard(s), &snap2->Shard(s)) << s;
  }

  // One write dirties exactly its shard.
  const uint64_t key = 999983;
  store.Update(0, key, 1e6);
  const auto snap3 = store.Snapshot();
  for (int s = 0; s < store.num_shards(); ++s) {
    if (s == store.ShardOf(key)) {
      EXPECT_NE(&snap1->Shard(s), &snap3->Shard(s));
    } else {
      EXPECT_EQ(&snap1->Shard(s), &snap3->Shard(s));
    }
  }
  // The old snapshot is immutable: the new key is visible only in snap3.
  EXPECT_FALSE(snap1->MergedInstance(0).Lookup(key, nullptr));
  EXPECT_TRUE(snap3->MergedInstance(0).Lookup(key, nullptr));
}

TEST(SketchStoreTest, PublishedSnapshotIgnoresLaterUpdates) {
  SketchStoreOptions options;
  options.num_shards = 2;
  options.default_tau = kSampleAllTau;
  SketchStore store(options);
  for (uint64_t key = 1; key <= 40; ++key) store.Update(0, key, 1.0);
  const auto snapshot = store.Snapshot();
  std::vector<std::vector<WeightedItem>> before;
  for (int s = 0; s < snapshot->num_shards(); ++s) {
    before.push_back(snapshot->Shard(s).Instance(0)->entries());
  }

  // Grow every live sketch through several index doublings and bump the
  // weights of the keys the snapshot already holds.
  for (uint64_t key = 1; key <= 4000; ++key) store.Update(0, key, 2.0);
  for (int s = 0; s < snapshot->num_shards(); ++s) {
    const StreamingPpsSketch* sketch = snapshot->Shard(s).Instance(0);
    const auto& entries = before[static_cast<size_t>(s)];
    ASSERT_EQ(sketch->entries().size(), entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(sketch->entries()[i].key, entries[i].key);
      double value = 0.0;
      ASSERT_TRUE(sketch->Lookup(entries[i].key, &value));
      EXPECT_EQ(value, 1.0);
    }
    for (uint64_t key = 41; key <= 4000; ++key) {
      EXPECT_FALSE(sketch->Lookup(key, nullptr)) << key;
    }
  }
  const auto after = store.Snapshot();
  EXPECT_EQ(after->UpdateCount(0), 4040u);
  double value = 0.0;
  ASSERT_TRUE(after->Shard(store.ShardOf(7)).Instance(0)->Lookup(7, &value));
  EXPECT_EQ(value, 3.0);
}

TEST(SketchStoreTest, MaterializeMatchesDirectBuild) {
  Rng rng(17);
  const auto items = ZipfishItems(500, rng);
  const auto options = SmallStoreOptions();
  SketchStore store(options);
  store.UpdateBatch(2, items);
  const auto snapshot = store.Snapshot();
  EXPECT_EQ(snapshot->Instances(), std::vector<int>{2});
  EXPECT_EQ(snapshot->UpdateCount(2), items.size());

  const auto materialized = MaterializeInstance(*snapshot, 2);
  const auto direct = PpsInstanceSketch::Build(items, options.default_tau,
                                               store.InstanceSalt(2));
  ASSERT_EQ(materialized.size(), direct.size());
  for (const auto& e : direct.entries()) {
    double value = 0.0;
    ASSERT_TRUE(materialized.Lookup(e.key, &value)) << e.key;
    EXPECT_EQ(value, e.weight);
  }
  EXPECT_EQ(materialized.tau(), direct.tau());
  EXPECT_EQ(materialized.salt(), direct.salt());
}

TEST(SketchStoreTest, SaltDerivation) {
  SketchStoreOptions options = SmallStoreOptions();
  {
    SketchStore store(options);
    EXPECT_NE(store.InstanceSalt(0), store.InstanceSalt(1));
  }
  options.coordinated = true;
  {
    SketchStore store(options);
    EXPECT_EQ(store.InstanceSalt(0), store.InstanceSalt(1));
    EXPECT_EQ(store.InstanceSalt(0), options.salt);
  }
}

TEST(SketchStoreTest, PerInstanceTauOverride) {
  SketchStoreOptions options = SmallStoreOptions();
  options.instance_tau[1] = 7.5;
  SketchStore store(options);
  EXPECT_EQ(store.TauFor(0), options.default_tau);
  EXPECT_EQ(store.TauFor(1), 7.5);
  store.Update(1, 4, 1.0);
  EXPECT_EQ(store.Snapshot()->TauFor(1), 7.5);
}

// ---------------------------------------------------------------------------
// QueryService parity with the aggregate layer
// ---------------------------------------------------------------------------

struct TwoInstanceStore {
  std::shared_ptr<SketchStore> store;
  std::vector<WeightedItem> items1, items2;
};

TwoInstanceStore MakeTwoInstanceStore() {
  Rng rng(23);
  TwoInstanceStore out;
  // Overlapping universes with distinct weights per instance.
  for (int i = 0; i < 600; ++i) {
    const uint64_t key = static_cast<uint64_t>(1 + rng.UniformInt(800));
    const double weight = std::ceil(100.0 / (1 + rng.UniformInt(30)));
    auto& items = i % 2 == 0 ? out.items1 : out.items2;
    bool seen = false;
    for (const auto& item : items) seen = seen || item.key == key;
    if (!seen) items.push_back({key, weight});
  }
  SketchStoreOptions options;
  options.num_shards = 8;
  options.default_tau = 20.0;
  options.salt = 5150;
  out.store = std::make_shared<SketchStore>(options);
  out.store->UpdateBatch(0, out.items1);
  out.store->UpdateBatch(1, out.items2);
  return out;
}

TEST(QueryServiceTest, MaxDominanceMatchesAggregatePath) {
  const auto fixture = MakeTwoInstanceStore();
  const auto snapshot = fixture.store->Snapshot();
  QueryService service(snapshot, {/*num_threads=*/1});
  const auto store_est = service.MaxDominance(0, 1);
  ASSERT_TRUE(store_est.ok());

  const auto s1 = MaterializeInstance(*snapshot, 0);
  const auto s2 = MaterializeInstance(*snapshot, 1);
  const auto direct = EstimateMaxDominance(s1, s2);
  EXPECT_NEAR(store_est->ht.estimate, direct.ht, 1e-9 * std::fabs(direct.ht));
  EXPECT_NEAR(store_est->l.estimate, direct.l, 1e-9 * std::fabs(direct.l));

  // The aggregate layer's snapshot overload is the same computation.
  const auto bridged = EstimateMaxDominance(*snapshot, 0, 1);
  EXPECT_EQ(bridged.ht, store_est->ht.estimate);
  EXPECT_EQ(bridged.l, store_est->l.estimate);
}

TEST(QueryServiceTest, MinAndL1MatchAggregatePath) {
  const auto fixture = MakeTwoInstanceStore();
  const auto snapshot = fixture.store->Snapshot();
  QueryService service(snapshot, {/*num_threads=*/1});
  const auto s1 = MaterializeInstance(*snapshot, 0);
  const auto s2 = MaterializeInstance(*snapshot, 1);

  const auto min_est = service.MinDominanceHt(0, 1);
  ASSERT_TRUE(min_est.ok());
  const double direct_min = EstimateMinDominanceHt(s1, s2);
  EXPECT_NEAR(min_est->estimate, direct_min, 1e-9 * std::fabs(direct_min));

  const auto l1_est = service.L1Distance(0, 1);
  ASSERT_TRUE(l1_est.ok());
  const double direct_l1 = EstimateL1Distance(s1, s2);
  EXPECT_NEAR(l1_est->estimate, direct_l1, 1e-9 * std::fabs(direct_l1));
  EXPECT_NEAR(EstimateL1Distance(*snapshot, 0, 1), l1_est->estimate,
              1e-12 * std::fabs(l1_est->estimate));
}

TEST(QueryServiceTest, ParallelScanIsBitwiseDeterministic) {
  const auto fixture = MakeTwoInstanceStore();
  const auto snapshot = fixture.store->Snapshot();
  const auto sequential =
      QueryService(snapshot, {/*num_threads=*/1}).MaxDominance(0, 1);
  const auto parallel =
      QueryService(snapshot, {/*num_threads=*/4}).MaxDominance(0, 1);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(sequential->ht.estimate, parallel->ht.estimate);  // bitwise: fixed reduction order
  EXPECT_EQ(sequential->l.estimate, parallel->l.estimate);
  EXPECT_EQ(sequential->ht.variance, parallel->ht.variance);
  EXPECT_EQ(sequential->l.variance, parallel->l.variance);
}

TEST(QueryServiceTest, DistinctUnionMatchesClassificationPath) {
  const SetPair pair = MakeJaccardSetPair(3000, 0.4);
  SketchStoreOptions options;
  options.num_shards = 8;
  options.default_tau = 1.0 / 0.25;  // p = 0.25 membership sampling
  options.salt = 31337;
  SketchStore store(options);
  for (uint64_t key : pair.n1) store.Update(0, key, 1.0);
  for (uint64_t key : pair.n2) store.Update(1, key, 1.0);
  const auto snapshot = store.Snapshot();

  QueryService service(snapshot, {/*num_threads=*/2});
  const auto est = service.DistinctUnion({0, 1});
  ASSERT_TRUE(est.ok());

  const auto b1 = BinaryInstanceFromStore(*snapshot, 0);
  const auto b2 = BinaryInstanceFromStore(*snapshot, 1);
  const auto c = ClassifyDistinct(b1, b2);
  const double ht = DistinctHtEstimate(c, b1.p, b2.p);
  const double l = DistinctLEstimate(c, b1.p, b2.p);
  EXPECT_NEAR(est->ht.estimate, ht, 1e-9 * std::fabs(ht) + 1e-9);
  EXPECT_NEAR(est->l.estimate, l, 1e-9 * std::fabs(l) + 1e-9);
}

TEST(QueryServiceTest, DistinctUnionMultiInstanceMatchesMultiPath) {
  Rng rng(41);
  SketchStoreOptions options;
  options.num_shards = 4;
  options.default_tau = 1.0 / 0.2;
  options.salt = 2024;
  SketchStore store(options);
  std::vector<std::vector<uint64_t>> sets(3);
  for (int i = 0; i < 3; ++i) {
    for (int u = 0; u < 2000; ++u) {
      const uint64_t key = static_cast<uint64_t>(1 + rng.UniformInt(4000));
      sets[static_cast<size_t>(i)].push_back(key);
    }
    std::sort(sets[static_cast<size_t>(i)].begin(),
              sets[static_cast<size_t>(i)].end());
    sets[static_cast<size_t>(i)].erase(
        std::unique(sets[static_cast<size_t>(i)].begin(),
                    sets[static_cast<size_t>(i)].end()),
        sets[static_cast<size_t>(i)].end());
    for (uint64_t key : sets[static_cast<size_t>(i)]) {
      store.Update(i, key, 1.0);
    }
  }
  const auto snapshot = store.Snapshot();
  const auto est =
      QueryService(snapshot, {/*num_threads=*/1}).DistinctUnion({0, 1, 2});
  ASSERT_TRUE(est.ok());

  std::vector<BinaryInstanceSketch> sketches;
  for (int i = 0; i < 3; ++i) {
    sketches.push_back(BinaryInstanceFromStore(*snapshot, i));
  }
  const auto multi = EstimateDistinctMulti(sketches);
  EXPECT_NEAR(est->ht.estimate, multi.ht, 1e-9 * std::fabs(multi.ht) + 1e-9);
  EXPECT_NEAR(est->l.estimate, multi.l, 1e-9 * std::fabs(multi.l) + 1e-9);
}

TEST(QueryServiceTest, DistinctUnionRejectsWeightedIngestion) {
  SketchStoreOptions options;
  options.num_shards = 2;
  options.default_tau = 5.0;
  SketchStore store(options);
  store.Update(0, 1, 50.0);  // heavy: sampled with certainty
  store.Update(1, 2, 50.0);
  const auto est = QueryService(store.Snapshot()).DistinctUnion({0, 1});
  EXPECT_FALSE(est.ok());
}

TEST(QueryServiceTest, SubsetSumMatchesMaterializedSketch) {
  const auto fixture = MakeTwoInstanceStore();
  const auto snapshot = fixture.store->Snapshot();
  QueryService service(snapshot);
  const auto s1 = MaterializeInstance(*snapshot, 0);
  auto pred = [](uint64_t key) { return key % 5 != 0; };
  EXPECT_NEAR(service.SubsetSumHt(0, pred), s1.SubsetSumEstimate(pred),
              1e-9 * std::fabs(s1.SubsetSumEstimate(pred)));
}

TEST(QueryServiceTest, CoordinatedStoreRefusesMultiInstanceAggregates) {
  SketchStoreOptions options;
  options.num_shards = 4;
  options.default_tau = 4.0;
  options.salt = 11;
  options.coordinated = true;
  SketchStore store(options);
  for (uint64_t key = 1; key <= 500; ++key) {
    store.Update(0, key, 1.0);
    if (key % 2 == 0) store.Update(1, key, 1.0);
  }
  QueryService service(store.Snapshot());
  const auto is_precondition = [](const Status& status) {
    return status.code() == StatusCode::kFailedPrecondition;
  };
  EXPECT_TRUE(is_precondition(service.MaxDominance(0, 1).status()));
  EXPECT_TRUE(is_precondition(service.MaxDominanceAuto(0, 1).status()));
  EXPECT_TRUE(is_precondition(service.MinDominanceHt(0, 1).status()));
  EXPECT_TRUE(is_precondition(service.L1Distance(0, 1).status()));
  EXPECT_TRUE(is_precondition(service.DistinctUnion({0, 1}).status()));
  EXPECT_TRUE(is_precondition(service.DistinctUnionAuto({0, 1}).status()));
  // Per-instance subset sums do not depend on cross-instance seeds.
  EXPECT_GT(service.SubsetSumHt(0, [](uint64_t) { return true; }), 0.0);
}

// The union-batch fill as it stood before the single-probe rewrite: every
// row probes every instance. The store's fills must produce the same rows
// in the same order, so every aggregate keeps its bits.
void TwoLookupUnionFill(const std::vector<const StreamingPpsSketch*>& sketches,
                        const std::vector<double>& taus,
                        const std::vector<SeedFunction>& seeds,
                        OutcomeBatch* batch) {
  const int r = static_cast<int>(sketches.size());
  batch->Reset(Scheme::kPps, r);
  for (int j = 0; j < r; ++j) {
    const StreamingPpsSketch* sj = sketches[static_cast<size_t>(j)];
    if (sj == nullptr) continue;
    for (const auto& e : sj->entries()) {
      bool covered = false;
      for (int j2 = 0; j2 < j && !covered; ++j2) {
        const StreamingPpsSketch* prev = sketches[static_cast<size_t>(j2)];
        covered = prev != nullptr && prev->Lookup(e.key, nullptr);
      }
      if (covered) continue;
      const int i = batch->AppendRow();
      for (int j2 = 0; j2 < r; ++j2) {
        const StreamingPpsSketch* other = sketches[static_cast<size_t>(j2)];
        double v = 0.0;
        const bool in = other != nullptr && other->Lookup(e.key, &v);
        batch->param_row(i)[j2] = taus[static_cast<size_t>(j2)];
        batch->seed_row(i)[j2] = seeds[static_cast<size_t>(j2)](e.key);
        batch->sampled_row(i)[j2] = in ? 1 : 0;
        batch->value_row(i)[j2] = in ? v : 0.0;
      }
    }
  }
}

/// One two-lookup batch per shard of `instances`.
std::vector<OutcomeBatch> TwoLookupBatches(const StoreSnapshot& snapshot,
                                           const std::vector<int>& instances) {
  std::vector<double> taus;
  std::vector<SeedFunction> seeds;
  for (int instance : instances) {
    taus.push_back(snapshot.TauFor(instance));
    seeds.emplace_back(snapshot.InstanceSalt(instance));
  }
  std::vector<OutcomeBatch> batches(static_cast<size_t>(snapshot.num_shards()));
  for (int s = 0; s < snapshot.num_shards(); ++s) {
    std::vector<const StreamingPpsSketch*> sketches;
    for (int instance : instances) {
      sketches.push_back(snapshot.Shard(s).Instance(instance));
    }
    TwoLookupUnionFill(sketches, taus, seeds,
                       &batches[static_cast<size_t>(s)]);
  }
  return batches;
}

/// The kernel over every batch, reduced in shard order like the store.
IntervalEstimate ScanBatches(const std::vector<OutcomeBatch>& batches,
                             KernelSpec spec, const std::vector<double>& taus) {
  auto kernel = EstimationEngine::Global().Kernel(
      spec, SamplingParams(taus, QueryServiceOptions().quad_tol));
  EXPECT_TRUE(kernel.ok());
  AccuracyAccumulator total;
  for (const auto& batch : batches) {
    AccuracyAccumulator shard;
    shard.AddBatch(**kernel, batch, 1);
    total.Merge(shard);
  }
  return total.Interval();
}

bool SameBits(const IntervalEstimate& a, const IntervalEstimate& b) {
  return std::memcmp(&a.estimate, &b.estimate, sizeof(double)) == 0 &&
         std::memcmp(&a.variance, &b.variance, sizeof(double)) == 0 &&
         std::memcmp(&a.lo, &b.lo, sizeof(double)) == 0 &&
         std::memcmp(&a.hi, &b.hi, sizeof(double)) == 0;
}

TEST(QueryServiceTest, FillsMatchTheTwoLookupFillBitwise) {
  const auto fixture = MakeTwoInstanceStore();
  const auto weighted = fixture.store->Snapshot();
  const double tau1 = weighted->TauFor(0);
  const double tau2 = weighted->TauFor(1);
  const auto pair_batches = TwoLookupBatches(*weighted, {0, 1});
  const KernelSpec max_ht{Function::kMax, Scheme::kPps, Regime::kKnownSeeds,
                          Family::kHt};
  const KernelSpec max_l{Function::kMax, Scheme::kPps, Regime::kKnownSeeds,
                         Family::kL};
  const KernelSpec min_ht{Function::kMin, Scheme::kPps,
                          Regime::kUnknownSeeds, Family::kHt};
  const IntervalEstimate want_ht =
      ScanBatches(pair_batches, max_ht, {tau1, tau2});
  const IntervalEstimate want_l =
      ScanBatches(pair_batches, max_l, {tau1, tau2});

  // L1: the joint max^(L) - min^(HT) scan over the same batches.
  const SamplingParams params({tau1, tau2}, QueryServiceOptions().quad_tol);
  auto kx = EstimationEngine::Global().Kernel(max_l, params);
  auto ky = EstimationEngine::Global().Kernel(min_ht, params);
  ASSERT_TRUE(kx.ok() && ky.ok());
  const MinHtWeighted min_core({tau1, tau2});
  const auto cross = [&min_core](const BatchView& chunk, int i, double x,
                                 double y) {
    return x * y - min_core.MaxMinProductRow(chunk.sampled_row(i),
                                             chunk.value_row(i));
  };
  DifferenceAccumulator l1_total;
  for (const auto& batch : pair_batches) {
    DifferenceAccumulator shard;
    shard.AddBatch(**kx, **ky, batch, cross);
    l1_total.Merge(shard);
  }
  const IntervalEstimate want_l1 = l1_total.Interval();

  // Distinct union of three unit-weight instances with a uniform tau.
  SketchStoreOptions set_options;
  set_options.num_shards = 4;
  set_options.default_tau = 1.0 / 0.3;
  set_options.salt = 808;
  SketchStore sets(set_options);
  for (uint64_t key = 1; key <= 3000; ++key) {
    if (key % 2 == 0) sets.Update(0, key, 1.0);
    if (key % 3 == 0) sets.Update(1, key, 1.0);
    if (key % 5 != 0) sets.Update(2, key, 1.0);
  }
  const auto unit = sets.Snapshot();
  const double tau = set_options.default_tau;
  const auto or_batches = TwoLookupBatches(*unit, {0, 1, 2});
  const KernelSpec or_ht{Function::kOr, Scheme::kPps, Regime::kKnownSeeds,
                         Family::kHt};
  const KernelSpec or_l{Function::kOr, Scheme::kPps, Regime::kKnownSeeds,
                        Family::kL};
  const IntervalEstimate want_or_ht =
      ScanBatches(or_batches, or_ht, {tau, tau, tau});
  const IntervalEstimate want_or_l =
      ScanBatches(or_batches, or_l, {tau, tau, tau});

  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    QueryServiceOptions options;
    options.num_threads = threads;
    const auto max_dom = QueryService(weighted, options).MaxDominance(0, 1);
    ASSERT_TRUE(max_dom.ok());
    EXPECT_TRUE(SameBits(max_dom->ht, want_ht));
    EXPECT_TRUE(SameBits(max_dom->l, want_l));
    const auto l1 = QueryService(weighted, options).L1Distance(0, 1);
    ASSERT_TRUE(l1.ok());
    EXPECT_TRUE(SameBits(*l1, want_l1));
    const auto distinct =
        QueryService(unit, options).DistinctUnion({0, 1, 2});
    ASSERT_TRUE(distinct.ok());
    EXPECT_TRUE(SameBits(distinct->ht, want_or_ht));
    EXPECT_TRUE(SameBits(distinct->l, want_or_l));
  }
}

}  // namespace
}  // namespace pie
