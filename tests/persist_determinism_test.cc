// The distributed-merge determinism gate: N processes each ingesting a
// disjoint slice of a stream and checkpointing to their own directory
// must, after MergeCheckpoints, answer every QueryService query with the
// IDENTICAL BITS a single-process build over the concatenated stream
// produces -- across thread counts {1, 2, 8} and in PIE_SIMD ON and OFF
// builds (CI runs this test in both configurations; within one build the
// engine's fixed-chunk tree reduction already guarantees thread-count
// invariance, which this test re-asserts on the merged store).
//
// Also the torn-write half of the acceptance gate: corrupting the newest
// generation of one participant must make its recovery fall back to the
// previous complete generation, visible in the merged answers.

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "persist/format.h"
#include "store/query_service.h"
#include "store/sketch_store.h"
#include "test_dirs.h"
#include "util/random.h"

namespace pie {
namespace {

namespace fs = std::filesystem;

constexpr int kNumProcesses = 3;
constexpr int kThreadCounts[] = {1, 2, 8};

struct Record {
  int instance;
  uint64_t key;
  double weight;
};

/// The concatenated stream: two weighted instances with overlapping key
/// sets plus two unit-weight instances (10/11) for DistinctUnion. Keys are
/// distinct per instance (the store's pre-aggregated record model).
std::vector<Record> MakeStream() {
  std::vector<Record> stream;
  Rng rng(2011);
  for (uint64_t key = 1; key <= 6000; ++key) {
    stream.push_back({0, key, std::ceil(64.0 / (1 + rng.UniformInt(63)))});
    if (key % 2 == 0) {
      stream.push_back({1, key, std::ceil(32.0 / (1 + rng.UniformInt(31)))});
    }
    stream.push_back({10, key, 1.0});
    if (key % 3 == 0) stream.push_back({11, key + 2000, 1.0});
  }
  return stream;
}

SketchStoreOptions StoreOptions() {
  SketchStoreOptions options;
  options.num_shards = 8;
  options.default_tau = 16.0;
  options.instance_tau[10] = 4.0;  // unit weights: tau = 1/p
  options.instance_tau[11] = 4.0;
  options.salt = 424242;
  return options;
}

/// Every query answer the service gives, as raw bits.
std::vector<uint64_t> QueryBits(const SketchStore& store, int num_threads) {
  QueryServiceOptions options;
  options.num_threads = num_threads;
  QueryService service(store.Snapshot(), options);
  std::vector<uint64_t> bits;
  auto push = [&bits](const IntervalEstimate& e) {
    bits.push_back(std::bit_cast<uint64_t>(e.estimate));
    bits.push_back(std::bit_cast<uint64_t>(e.std_err));
    bits.push_back(std::bit_cast<uint64_t>(e.lo));
    bits.push_back(std::bit_cast<uint64_t>(e.hi));
  };
  const auto max_dom = service.MaxDominance(0, 1);
  EXPECT_TRUE(max_dom.ok()) << max_dom.status().ToString();
  push(max_dom->ht);
  push(max_dom->l);
  const auto min_dom = service.MinDominanceHt(0, 1);
  EXPECT_TRUE(min_dom.ok());
  push(*min_dom);
  const auto l1 = service.L1Distance(0, 1);
  EXPECT_TRUE(l1.ok());
  push(*l1);
  const auto distinct = service.DistinctUnion({10, 11});
  EXPECT_TRUE(distinct.ok()) << distinct.status().ToString();
  push(distinct->ht);
  push(distinct->l);
  return bits;
}

/// Ingests stream[begin, end) into a fresh store.
std::unique_ptr<SketchStore> BuildSlice(const std::vector<Record>& stream,
                                        size_t begin, size_t end) {
  auto store = std::make_unique<SketchStore>(StoreOptions());
  for (size_t i = begin; i < end; ++i) {
    store->Update(stream[i].instance, stream[i].key, stream[i].weight);
  }
  return store;
}

class PersistDeterminismTest : public testing::Test {
 protected:
  /// Checkpoints 3 contiguous slices of the stream into fresh dirs and
  /// returns the dirs (simulating 3 independent ingest processes).
  std::vector<std::string> CheckpointSlices(const std::vector<Record>& stream,
                                            const std::string& tag) {
    std::vector<std::string> dirs;
    const size_t n = stream.size();
    for (int p = 0; p < kNumProcesses; ++p) {
      const size_t begin = n * p / kNumProcesses;
      const size_t end = n * (p + 1) / kNumProcesses;
      const auto slice = BuildSlice(stream, begin, end);
      const std::string dir = FreshTestDir(tag + "_p" + std::to_string(p));
      EXPECT_TRUE(slice->Checkpoint(dir).ok());
      dirs.push_back(dir);
    }
    return dirs;
  }
};

TEST_F(PersistDeterminismTest, ThreeWayMergeMatchesSingleProcessBitwise) {
  const std::vector<Record> stream = MakeStream();
  const auto single = BuildSlice(stream, 0, stream.size());
  const std::vector<std::string> dirs = CheckpointSlices(stream, "merge");
  auto merged = SketchStore::MergeCheckpoints(dirs);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  // The merged store IS the single-process store, entry order included.
  const auto single_snapshot = single->Snapshot();
  const auto merged_snapshot = (*merged)->Snapshot();
  ASSERT_EQ(single_snapshot->num_shards(), merged_snapshot->num_shards());
  for (int s = 0; s < single_snapshot->num_shards(); ++s) {
    const auto& a = single_snapshot->Shard(s).sketches();
    const auto& b = merged_snapshot->Shard(s).sketches();
    ASSERT_EQ(a.size(), b.size()) << "shard " << s;
    auto ita = a.begin();
    auto itb = b.begin();
    for (; ita != a.end(); ++ita, ++itb) {
      ASSERT_EQ(ita->first, itb->first);
      ASSERT_EQ(ita->second.entries().size(), itb->second.entries().size())
          << "shard " << s << " instance " << ita->first;
      EXPECT_EQ(ita->second.num_updates(), itb->second.num_updates());
      for (size_t i = 0; i < ita->second.entries().size(); ++i) {
        EXPECT_EQ(ita->second.entries()[i].key,
                  itb->second.entries()[i].key);
        EXPECT_EQ(
            std::bit_cast<uint64_t>(ita->second.entries()[i].weight),
            std::bit_cast<uint64_t>(itb->second.entries()[i].weight));
      }
    }
  }

  // Every query, every thread count: identical bits.
  const std::vector<uint64_t> want = QueryBits(*single, 1);
  ASSERT_FALSE(want.empty());
  for (const int threads : kThreadCounts) {
    EXPECT_EQ(QueryBits(*single, threads), want)
        << "single-process answers drifted at num_threads=" << threads;
    EXPECT_EQ(QueryBits(**merged, threads), want)
        << "merged answers differ at num_threads=" << threads;
  }
}

TEST_F(PersistDeterminismTest, MergeOrderIsDirectoryOrder) {
  // Concatenation order matters for entry order, and dir order encodes it:
  // merging {p0, p1, p2} equals the single process that saw the slices in
  // that order. (A different permutation is a *different* but equally
  // valid store; this test pins the contract that dirs[i] supplies slice
  // i's entries first.)
  const std::vector<Record> stream = MakeStream();
  const std::vector<std::string> dirs = CheckpointSlices(stream, "order");
  auto merged = SketchStore::MergeCheckpoints(dirs);
  ASSERT_TRUE(merged.ok());
  const auto single = BuildSlice(stream, 0, stream.size());
  EXPECT_EQ(QueryBits(**merged, 1), QueryBits(*single, 1));
}

TEST_F(PersistDeterminismTest, TornParticipantFallsBackAndStaysBitwise) {
  const std::vector<Record> stream = MakeStream();
  const auto single = BuildSlice(stream, 0, stream.size());
  const std::vector<uint64_t> want = QueryBits(*single, 1);

  // Each participant checkpoints twice (the second generation identical);
  // then participant 1's newest generation is torn mid-write.
  std::vector<std::string> dirs;
  const size_t n = stream.size();
  for (int p = 0; p < kNumProcesses; ++p) {
    const auto slice =
        BuildSlice(stream, n * p / kNumProcesses, n * (p + 1) / kNumProcesses);
    const std::string dir = FreshTestDir("torn_p" + std::to_string(p));
    ASSERT_TRUE(slice->Checkpoint(dir).ok());
    ASSERT_TRUE(slice->Checkpoint(dir).ok());
    dirs.push_back(dir);
  }
  const std::string victim =
      dirs[1] + "/" + persist::ShardFileName(/*seq=*/2, /*shard=*/3);
  auto bytes = persist::ReadFileBytes(victim);
  ASSERT_TRUE(bytes.ok());
  std::string torn = bytes->substr(0, bytes->size() / 3);
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(torn.data(), static_cast<std::streamsize>(torn.size()));
    ASSERT_TRUE(out.good());
  }

  // Merge falls back to participant 1's generation 1 -- same contents --
  // and the answers are still the single-process bits.
  auto merged = SketchStore::MergeCheckpoints(dirs);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  for (const int threads : kThreadCounts) {
    EXPECT_EQ(QueryBits(**merged, threads), want)
        << "torn-write fallback changed answers at num_threads=" << threads;
  }
}

}  // namespace
}  // namespace pie
