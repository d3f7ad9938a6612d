// Crash-point torture harness: enumerate EVERY fault-injectable operation
// index of a checkpoint write and of a retention GC run, crash there, and
// assert recovery always serves a fully verified prior generation, bitwise
// -- never a torn one, never UB (the sweep runs under ASan/UBSan in CI).
//
// Protocol per sweep: a clean instrumented pass first measures the total
// operation count M (FaultInjectingFs numbers every fs call), then the
// sweep replays the identical scenario M times from a fresh directory,
// crashing at op K = 1..M. The op sequence is deterministic, so the sweep
// provably covers every crash point; each sweep asserts M > 0 and logs it.
//
// Crash model: the injected crash freezes the directory in exactly the
// applied-so-far state (appends may leave a seeded torn prefix). A real
// crash that additionally loses an un-fsync'd rename is equivalent to
// crashing one or more ops EARLIER, so sweeping every K covers those
// interleavings too.

#include <bit>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/checkpoint.h"
#include "persist/gc.h"
#include "store/sketch_store.h"
#include "test_dirs.h"
#include "util/fs.h"
#include "util/status.h"

namespace pie {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = FreshTestDir(name);
  std::filesystem::create_directories(dir);
  return dir;
}

SketchStoreOptions TortureStoreOptions() {
  SketchStoreOptions options;
  options.num_shards = 2;  // keeps the per-checkpoint op count tight
  options.default_tau = 8.0;
  options.salt = 77;
  return options;
}

/// The deterministic record stream: records [1, n] of instance 0 plus a
/// weighted instance 1. Same n => bitwise-identical store.
void Ingest(SketchStore* store, uint64_t from, uint64_t to) {
  for (uint64_t k = from; k <= to; ++k) {
    store->Update(0, k * 0x9e3779b97f4a7c15ull, 1.0 + (k % 7));
    if (k % 3 == 0) store->Update(1, k * 0xc2b2ae3d27d4eb4full, 2.0);
  }
}

/// Bitwise snapshot equality: shard count, instance sets, and every
/// sketch's entry sequence (keys and weight BITS, order included).
bool SameSnapshot(const StoreSnapshot& a, const StoreSnapshot& b) {
  if (a.num_shards() != b.num_shards()) return false;
  for (int s = 0; s < a.num_shards(); ++s) {
    const auto& sa = a.Shard(s).sketches();
    const auto& sb = b.Shard(s).sketches();
    if (sa.size() != sb.size()) return false;
    auto ita = sa.begin();
    auto itb = sb.begin();
    for (; ita != sa.end(); ++ita, ++itb) {
      if (ita->first != itb->first) return false;
      const auto& ea = ita->second.entries();
      const auto& eb = itb->second.entries();
      if (ea.size() != eb.size()) return false;
      for (size_t i = 0; i < ea.size(); ++i) {
        if (ea[i].key != eb[i].key ||
            std::bit_cast<uint64_t>(ea[i].weight) !=
                std::bit_cast<uint64_t>(eb[i].weight)) {
          return false;
        }
      }
    }
  }
  return true;
}

persist::CheckpointOptions NoRetryOptions(FileSystem* fs) {
  persist::CheckpointOptions options;
  options.fs = fs;
  options.retry.max_retries = 0;  // keep the op sequence exactly M long
  options.retry.sleep_ms = [](int) {};
  return options;
}

TEST(CrashTortureTest, EveryCheckpointCrashPointRecoversBitwise) {
  // Scenario: generation 1 committed clean, then a crash at op K of
  // generation 2's write. Recovery must serve gen 1 or gen 2, bitwise.
  SketchStore store1(TortureStoreOptions());
  Ingest(&store1, 1, 120);
  SketchStore store2(TortureStoreOptions());
  Ingest(&store2, 1, 200);
  const auto want1 = store1.Snapshot();
  const auto want2 = store2.Snapshot();

  // Clean instrumented pass: measure M.
  uint64_t total_ops = 0;
  {
    const std::string dir = FreshDir("torture_count");
    ASSERT_TRUE(
        persist::WriteCheckpoint(*want1, dir, persist::CheckpointOptions())
            .ok());
    FaultInjectingFs fs(&FileSystem::Default(), /*seed=*/11);
    ASSERT_TRUE(
        persist::WriteCheckpoint(*want2, dir, NoRetryOptions(&fs)).ok());
    total_ops = fs.ops();
  }
  ASSERT_GT(total_ops, 0u);

  uint64_t crashes = 0;
  uint64_t served_gen1 = 0;
  uint64_t served_gen2 = 0;
  for (uint64_t k = 1; k <= total_ops; ++k) {
    const std::string dir = FreshDir("torture_ckpt");
    ASSERT_TRUE(
        persist::WriteCheckpoint(*want1, dir, persist::CheckpointOptions())
            .ok());
    FaultInjectingFs fs(&FileSystem::Default(), /*seed=*/k);
    fs.CrashAtOp(k);
    const Status status =
        persist::WriteCheckpoint(*want2, dir, NoRetryOptions(&fs));
    ASSERT_FALSE(status.ok()) << "crash at op " << k << " did not surface";
    ASSERT_TRUE(fs.crashed());
    ++crashes;

    // The directory is frozen at the crash state; a restarting process
    // must recover a fully verified generation.
    auto recovered = SketchStore::Recover(dir);
    ASSERT_TRUE(recovered.ok())
        << "crash at op " << k << ": " << recovered.status().ToString();
    const auto got = (*recovered)->Snapshot();
    const bool is1 = SameSnapshot(*got, *want1);
    const bool is2 = SameSnapshot(*got, *want2);
    ASSERT_TRUE(is1 || is2)
        << "crash at op " << k << " recovered a state that is bitwise "
        << "neither generation 1 nor generation 2";
    served_gen1 += is1 ? 1 : 0;
    served_gen2 += is2 ? 1 : 0;
  }
  EXPECT_EQ(crashes, total_ops);
  // Early crash points must leave gen 1 serving (the manifest commit
  // point is the last write), so the sweep exercises the fallback.
  EXPECT_GT(served_gen1, 0u);
  std::cout << "[torture] checkpoint sweep: " << crashes
            << " crash points (gen1 served " << served_gen1
            << "x, gen2 served " << served_gen2 << "x)\n";
}

/// Builds three committed generations of the deterministic stream.
void WriteThreeGenerations(const std::string& dir,
                           std::shared_ptr<const StoreSnapshot>* want3) {
  SketchStore store(TortureStoreOptions());
  Ingest(&store, 1, 80);
  ASSERT_TRUE(store.Checkpoint(dir).ok());
  Ingest(&store, 81, 160);
  ASSERT_TRUE(store.Checkpoint(dir).ok());
  Ingest(&store, 161, 240);
  ASSERT_TRUE(store.Checkpoint(dir).ok());
  *want3 = store.Snapshot();
}

TEST(CrashTortureTest, EveryGcCrashPointKeepsServingGeneration) {
  // Scenario: three committed generations, RetainLatest(dir, 1) crashes
  // at op K. The newest generation must keep serving -- bitwise -- at
  // every K, and a re-run of the GC after "restart" must complete.
  std::shared_ptr<const StoreSnapshot> want3;

  uint64_t total_ops = 0;
  {
    const std::string dir = FreshDir("torture_gc_count");
    WriteThreeGenerations(dir, &want3);
    FaultInjectingFs fs(&FileSystem::Default(), /*seed=*/21);
    persist::GcOptions gc;
    gc.fs = &fs;
    auto result = persist::RetainLatest(dir, 1, gc);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->removed_seqs.size(), 2u);
    total_ops = fs.ops();
  }
  ASSERT_GT(total_ops, 0u);

  uint64_t crashes = 0;
  for (uint64_t k = 1; k <= total_ops; ++k) {
    const std::string dir = FreshDir("torture_gc");
    std::shared_ptr<const StoreSnapshot> want;
    WriteThreeGenerations(dir, &want);
    FaultInjectingFs fs(&FileSystem::Default(), /*seed=*/100 + k);
    fs.CrashAtOp(k);
    persist::GcOptions gc;
    gc.fs = &fs;
    auto result = persist::RetainLatest(dir, 1, gc);
    ASSERT_FALSE(result.ok()) << "crash at op " << k << " did not surface";
    ++crashes;

    // Mid-GC crash: the newest generation is untouchable by construction
    // (manifests of victims go first), so recovery serves it bitwise.
    auto recovered = SketchStore::Recover(dir);
    ASSERT_TRUE(recovered.ok())
        << "gc crash at op " << k << ": " << recovered.status().ToString();
    ASSERT_TRUE(SameSnapshot(*(*recovered)->Snapshot(), *want))
        << "gc crash at op " << k << " changed the serving generation";

    // Restart: a fresh GC run completes and converges to one generation.
    auto rerun = persist::RetainLatest(dir, 1);
    ASSERT_TRUE(rerun.ok())
        << "gc rerun after crash at op " << k << ": "
        << rerun.status().ToString();
    const std::vector<uint64_t> seqs = persist::ListManifestSeqs(dir);
    ASSERT_EQ(seqs.size(), 1u);
    EXPECT_EQ(seqs.front(), rerun->serving_seq);
    auto after = SketchStore::Recover(dir);
    ASSERT_TRUE(after.ok());
    ASSERT_TRUE(SameSnapshot(*(*after)->Snapshot(), *want));
  }
  EXPECT_EQ(crashes, total_ops);
  std::cout << "[torture] gc sweep: " << crashes << " crash points\n";
}

TEST(CrashTortureTest, PersistentEnospcFailsTypedAndKeepsPriorGeneration) {
  // ENOSPC past the retry budget: the checkpoint fails Unavailable (typed,
  // no abort), and the directory still serves the prior generation.
  const std::string dir = FreshDir("torture_enospc");
  SketchStore store1(TortureStoreOptions());
  Ingest(&store1, 1, 120);
  ASSERT_TRUE(store1.Checkpoint(dir).ok());

  SketchStore store2(TortureStoreOptions());
  Ingest(&store2, 1, 200);
  FaultInjectingFs fs(&FileSystem::Default(), 31);
  fs.FailNextOps(FsOp::kAppend, 1000000,
                 Status::Unavailable("injected ENOSPC"));
  persist::CheckpointOptions options;
  options.fs = &fs;
  options.retry.max_retries = 2;
  options.retry.sleep_ms = [](int) {};
  const Status status =
      persist::WriteCheckpoint(*store2.Snapshot(), dir, options);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);

  auto recovered = SketchStore::Recover(dir);
  ASSERT_TRUE(recovered.ok());
  ASSERT_TRUE(
      SameSnapshot(*(*recovered)->Snapshot(), *store1.Snapshot()));
}

TEST(CrashTortureTest, EioOnFsyncFailsTypedWithoutRetry) {
  // EIO (Internal) is fatal, not transient: exactly one attempt, typed
  // error out, prior generation intact.
  const std::string dir = FreshDir("torture_eio");
  SketchStore store1(TortureStoreOptions());
  Ingest(&store1, 1, 120);
  ASSERT_TRUE(store1.Checkpoint(dir).ok());

  FaultInjectingFs fs(&FileSystem::Default(), 41);
  fs.FailNextOps(FsOp::kSync, 1, Status::Internal("injected EIO"));
  persist::CheckpointOptions options;
  options.fs = &fs;
  options.retry.max_retries = 5;
  options.retry.sleep_ms = [](int) {};
  SketchStore store2(TortureStoreOptions());
  Ingest(&store2, 1, 200);
  const Status status =
      persist::WriteCheckpoint(*store2.Snapshot(), dir, options);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);

  auto recovered = SketchStore::Recover(dir);
  ASSERT_TRUE(recovered.ok());
  ASSERT_TRUE(
      SameSnapshot(*(*recovered)->Snapshot(), *store1.Snapshot()));
}

TEST(CrashTortureTest, GcRefusesWhenNothingVerifies) {
  // Every generation corrupt: GC must delete NOTHING and return DataLoss.
  const std::string dir = FreshDir("torture_gc_refuse");
  std::shared_ptr<const StoreSnapshot> want;
  WriteThreeGenerations(dir, &want);
  // Truncate every shard file of every generation.
  for (const uint64_t seq : persist::ListManifestSeqs(dir)) {
    for (uint32_t s = 0; s < 2; ++s) {
      const std::string path =
          dir + "/" + persist::ShardFileName(seq, s);
      std::filesystem::resize_file(path, 10);
    }
  }
  auto names_before = FileSystem::Default().ListDir(dir);
  ASSERT_TRUE(names_before.ok());
  auto result = persist::RetainLatest(dir, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  auto names_after = FileSystem::Default().ListDir(dir);
  ASSERT_TRUE(names_after.ok());
  EXPECT_EQ(names_before->size(), names_after->size())
      << "gc deleted files from an unrecoverable directory";
}

TEST(CrashTortureTest, GcNeverTouchesInFlightWriterFiles) {
  // A shard file with a seq ABOVE the newest manifest belongs to a
  // checkpoint currently being written; GC must leave it alone.
  const std::string dir = FreshDir("torture_gc_inflight");
  std::shared_ptr<const StoreSnapshot> want;
  WriteThreeGenerations(dir, &want);
  const uint64_t newest = persist::ListManifestSeqs(dir).front();
  const std::string inflight =
      dir + "/" + persist::ShardFileName(newest + 1, 0);
  ASSERT_TRUE(
      WriteFileAtomic(FileSystem::Default(), dir,
                      persist::ShardFileName(newest + 1, 0), "partial")
          .ok());
  auto result = persist::RetainLatest(dir, 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(std::filesystem::exists(inflight))
      << "gc deleted an in-flight writer's shard file";
}

}  // namespace
}  // namespace pie
