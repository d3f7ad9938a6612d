// Unit tests of the pluggable filesystem layer (util/fs.h) and the persist
// retry policy (persist/retry.h): POSIX round-trips, WriteFileAtomic's
// short-write/EINTR loop under injected append limits, FaultInjectingFs
// script semantics (fail-at-Nth, typed faults, crash freezing), retry
// classification and deterministic backoff, and the recovery scan's
// skip-with-metric behavior when files vanish mid-scan.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/checkpoint.h"
#include "persist/retry.h"
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

std::string Payload(size_t n) {
  std::string payload;
  payload.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    payload.push_back(static_cast<char>('a' + (i * 31 % 26)));
  }
  return payload;
}

TEST(FsTest, WriteFileAtomicRoundTrip) {
  const std::string dir = FreshDir("fs_roundtrip");
  FileSystem& fs = FileSystem::Default();
  const std::string payload = Payload(100000);
  ASSERT_TRUE(WriteFileAtomic(fs, dir, "blob.bin", payload).ok());
  auto read = fs.ReadFile(dir + "/blob.bin");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
  // No temp debris after a clean write.
  auto names = fs.ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 1u);
}

TEST(FsTest, ReadMissingFileIsNotFound) {
  const std::string dir = FreshDir("fs_missing");
  auto read = FileSystem::Default().ReadFile(dir + "/nope");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(FsTest, RemoveMissingFileIsNotFound) {
  const std::string dir = FreshDir("fs_rm_missing");
  const Status status = FileSystem::Default().RemoveFile(dir + "/nope");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(FsTest, ListMissingDirIsNotFound) {
  auto names =
      FileSystem::Default().ListDir(testing::TempDir() + "/no_such_dir_xyz");
  ASSERT_FALSE(names.ok());
  EXPECT_EQ(names.status().code(), StatusCode::kNotFound);
}

TEST(FaultFsTest, ShortWritesStillCompleteAtomically) {
  // An append limit of 7 forces WriteFileAtomic's loop through ~hundreds
  // of short writes; the final bytes must still be exact.
  const std::string dir = FreshDir("fs_short_writes");
  FaultInjectingFs fs(&FileSystem::Default(), /*seed=*/1);
  fs.SetAppendLimit(7);
  const std::string payload = Payload(1000);
  ASSERT_TRUE(WriteFileAtomic(fs, dir, "blob.bin", payload).ok());
  auto read = FileSystem::Default().ReadFile(dir + "/blob.bin");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
}

TEST(FaultFsTest, ZeroProgressAppendFailsTyped) {
  // EINTR-forever: appends that never land must surface Unavailable, not
  // hang (the 1000-stall guard).
  const std::string dir = FreshDir("fs_stall");
  FaultInjectingFs fs(&FileSystem::Default(), 1);
  fs.SetAppendLimit(0);
  const Status status = WriteFileAtomic(fs, dir, "blob.bin", Payload(10));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // The failed write's temp file was cleaned up.
  auto names = FileSystem::Default().ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_TRUE(names->empty());
}

TEST(FaultFsTest, FailNthOpIsOneShot) {
  const std::string dir = FreshDir("fs_fail_nth");
  FaultInjectingFs fs(&FileSystem::Default(), 1);
  // Op 1 is the NewWritableFile of the first WriteFileAtomic.
  fs.FailOp(1, Status::Unavailable("injected ENOSPC"));
  const Status first = WriteFileAtomic(fs, dir, "a", "hello");
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  // The script entry is consumed: the retry succeeds.
  EXPECT_TRUE(WriteFileAtomic(fs, dir, "a", "hello").ok());
}

TEST(FaultFsTest, TypedFaultTargetsOpClass) {
  // EIO on the next fsync only; creates/appends/renames untouched.
  const std::string dir = FreshDir("fs_typed");
  FaultInjectingFs fs(&FileSystem::Default(), 1);
  fs.FailNextOps(FsOp::kSync, 1, Status::Internal("injected EIO"));
  const Status status = WriteFileAtomic(fs, dir, "a", "hello");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_TRUE(WriteFileAtomic(fs, dir, "a", "hello").ok());
}

TEST(FaultFsTest, CrashFreezesEveryLaterOp) {
  const std::string dir = FreshDir("fs_crash");
  FaultInjectingFs fs(&FileSystem::Default(), 1);
  ASSERT_TRUE(WriteFileAtomic(fs, dir, "a", "hello").ok());
  const uint64_t clean_ops = fs.ops();
  ASSERT_GT(clean_ops, 0u);
  fs.Reset();
  fs.CrashAtOp(2);
  EXPECT_FALSE(WriteFileAtomic(fs, dir, "b", "world").ok());
  EXPECT_TRUE(fs.crashed());
  // Everything afterwards fails; the directory state is frozen.
  EXPECT_FALSE(fs.ReadFile(dir + "/a").ok());
  EXPECT_FALSE(fs.ListDir(dir).ok());
  EXPECT_FALSE(fs.RemoveFile(dir + "/a").ok());
  // The pre-crash file is untouched underneath.
  auto read = FileSystem::Default().ReadFile(dir + "/a");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "hello");
}

TEST(FaultFsTest, TornWriteIsDeterministicInSeed) {
  // Crash on an append: a seeded strict-prefix lands. Same seed, same
  // script => same bytes on disk, bit for bit.
  const std::string payload = Payload(5000);
  std::string first_bytes;
  for (int round = 0; round < 2; ++round) {
    const std::string dir = FreshDir("fs_torn");
    FaultInjectingFs fs(&FileSystem::Default(), /*seed=*/42);
    fs.CrashAtOp(2);  // op 1 = create, op 2 = first append
    ASSERT_FALSE(WriteFileAtomic(fs, dir, "blob", payload).ok());
    auto read = FileSystem::Default().ReadFile(dir + "/blob.tmp");
    ASSERT_TRUE(read.ok());
    EXPECT_LT(read->size(), payload.size());
    EXPECT_EQ(*read, payload.substr(0, read->size()));
    if (round == 0) {
      first_bytes = *read;
    } else {
      EXPECT_EQ(*read, first_bytes);
    }
  }
}

TEST(FaultFsTest, OpCountingIsStable) {
  // The torture harness learns op counts from a clean pass; the same
  // sequence of calls must count identically every time.
  uint64_t counts[2];
  for (int round = 0; round < 2; ++round) {
    const std::string dir = FreshDir("fs_counting");
    FaultInjectingFs fs(&FileSystem::Default(), 7);
    ASSERT_TRUE(WriteFileAtomic(fs, dir, "a", "payload").ok());
    ASSERT_TRUE(fs.ReadFile(dir + "/a").ok());
    ASSERT_TRUE(fs.ListDir(dir).ok());
    counts[round] = fs.ops();
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_GT(counts[0], 0u);
}

TEST(RetryTest, OnlyUnavailableIsRetryable) {
  EXPECT_TRUE(persist::IsRetryable(Status::Unavailable("x")));
  EXPECT_FALSE(persist::IsRetryable(Status::OK()));
  EXPECT_FALSE(persist::IsRetryable(Status::Internal("x")));
  EXPECT_FALSE(persist::IsRetryable(Status::NotFound("x")));
  EXPECT_FALSE(persist::IsRetryable(Status::DataLoss("x")));
  EXPECT_FALSE(persist::IsRetryable(Status::InvalidArgument("x")));
}

TEST(RetryTest, BackoffIsBoundedAndDeterministic) {
  persist::RetryPolicy policy;
  policy.base_backoff_ms = 8;
  policy.max_backoff_ms = 1000;
  policy.jitter_seed = 99;
  for (int attempt = 1; attempt <= 12; ++attempt) {
    const int backoff = persist::BackoffMs(policy, attempt);
    long ceiling = static_cast<long>(policy.base_backoff_ms)
                   << (attempt - 1 > 20 ? 20 : attempt - 1);
    if (ceiling > policy.max_backoff_ms) ceiling = policy.max_backoff_ms;
    EXPECT_GE(backoff, static_cast<int>(ceiling / 2));
    EXPECT_LE(backoff, static_cast<int>(ceiling));
    // Deterministic: same (policy, attempt) => same value.
    EXPECT_EQ(backoff, persist::BackoffMs(policy, attempt));
  }
}

TEST(RetryTest, RunWithRetryRecoversFromTransientFailures) {
  persist::RetryPolicy policy;
  policy.max_retries = 3;
  policy.base_backoff_ms = 5;
  std::vector<int> sleeps;
  policy.sleep_ms = [&sleeps](int ms) { sleeps.push_back(ms); };
  int calls = 0;
  const Status status =
      persist::RunWithRetry(policy, "test_op", [&calls]() -> Status {
        ++calls;
        if (calls < 3) return Status::Unavailable("transient");
        return Status::OK();
      });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(sleeps.size(), 2u);  // two re-attempts, each after a backoff
  for (const int ms : sleeps) EXPECT_GT(ms, 0);
}

TEST(RetryTest, RunWithRetryStopsOnFatalStatus) {
  persist::RetryPolicy policy;
  policy.max_retries = 5;
  policy.sleep_ms = [](int) {};
  int calls = 0;
  const Status status =
      persist::RunWithRetry(policy, "test_op", [&calls]() -> Status {
        ++calls;
        return Status::DataLoss("fatal");
      });
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(calls, 1);  // fatal errors are never re-attempted
}

TEST(RetryTest, RunWithRetryExhaustsBudget) {
  persist::RetryPolicy policy;
  policy.max_retries = 2;
  policy.sleep_ms = [](int) {};
  int calls = 0;
  const Status status =
      persist::RunWithRetry(policy, "test_op", [&calls]() -> Status {
        ++calls;
        return Status::Unavailable("still down");
      });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 3);  // initial + max_retries
}

TEST(RetryTest, ParseBoundedEnvInt) {
  bool invalid = false;
  EXPECT_EQ(persist::ParseBoundedEnvInt("0", 100, 7, &invalid), 0);
  EXPECT_FALSE(invalid);
  EXPECT_EQ(persist::ParseBoundedEnvInt("100", 100, 7, &invalid), 100);
  EXPECT_FALSE(invalid);
  EXPECT_EQ(persist::ParseBoundedEnvInt("101", 100, 7, &invalid), 7);
  EXPECT_TRUE(invalid);
  EXPECT_EQ(persist::ParseBoundedEnvInt("abc", 100, 7, &invalid), 7);
  EXPECT_TRUE(invalid);
  EXPECT_EQ(persist::ParseBoundedEnvInt("-1", 100, 7, &invalid), 7);
  EXPECT_TRUE(invalid);
  EXPECT_EQ(persist::ParseBoundedEnvInt("", 100, 7, &invalid), 7);
  EXPECT_TRUE(invalid);
  EXPECT_EQ(persist::ParseBoundedEnvInt("9999999999", 100, 7, &invalid), 7);
  EXPECT_TRUE(invalid);
  // nullptr falls back too (the unset case is filtered before parsing).
  EXPECT_EQ(persist::ParseBoundedEnvInt(nullptr, 100, 7, &invalid), 7);
  EXPECT_TRUE(invalid);
}

TEST(RetryTest, CheckpointWriteSurvivesTransientFaults) {
  // End-to-end: a checkpoint whose first two fs ops fail transiently
  // still lands, through the RunWithRetry wrapping in WriteCheckpoint.
  const std::string dir = FreshDir("retry_checkpoint");
  SketchStoreOptions store_options;
  store_options.num_shards = 2;
  store_options.default_tau = 4.0;
  SketchStore store(store_options);
  for (uint64_t k = 1; k <= 200; ++k) store.Update(0, k, 1.0);

  FaultInjectingFs fs(&FileSystem::Default(), 3);
  fs.FailNextOps(FsOp::kCreate, 1, Status::Unavailable("injected ENOSPC"));
  persist::CheckpointOptions options;
  options.fs = &fs;
  options.retry.max_retries = 2;
  options.retry.sleep_ms = [](int) {};
  ASSERT_TRUE(persist::WriteCheckpoint(*store.Snapshot(), dir, options).ok());
  auto recovered = SketchStore::Recover(dir);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->Snapshot()->UpdateCount(0), 200u);
}

TEST(ScanSkipTest, VanishedFilesFallBackToOlderGeneration) {
  // Generation 2's shard file "vanishes" (NotFound on read, as if a
  // concurrent GC unlinked it between the scan and the read): recovery
  // serves generation 1 instead of hard-failing.
  const std::string dir = FreshDir("scan_skip");
  SketchStoreOptions store_options;
  store_options.num_shards = 2;
  store_options.default_tau = 4.0;
  SketchStore store(store_options);
  for (uint64_t k = 1; k <= 100; ++k) store.Update(0, k, 1.0);
  ASSERT_TRUE(store.Checkpoint(dir).ok());  // generation 1
  for (uint64_t k = 101; k <= 200; ++k) store.Update(0, k, 1.0);
  ASSERT_TRUE(store.Checkpoint(dir).ok());  // generation 2

  FaultInjectingFs fs(&FileSystem::Default(), 5);
  // Op 1 is the ListDir of the manifest scan, op 2 reads generation 2's
  // manifest, op 3 its first shard file -- fail that one as NotFound.
  fs.FailOp(3, Status::NotFound("injected: file vanished mid-scan"));
  auto loaded = persist::LoadLatestCheckpoint(fs, dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->manifest.seq, 1u);
}

TEST(ScanSkipTest, ListDirToleratesVanishingEntries) {
  // The POSIX ListDir must not throw or hard-error on a directory whose
  // entries are being unlinked concurrently; simplest observable contract:
  // listing a live directory succeeds and returns exactly its entries.
  const std::string dir = FreshDir("scan_list");
  FileSystem& fs = FileSystem::Default();
  ASSERT_TRUE(WriteFileAtomic(fs, dir, "one", "1").ok());
  ASSERT_TRUE(WriteFileAtomic(fs, dir, "two", "2").ok());
  auto names = fs.ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 2u);
}

}  // namespace
}  // namespace pie
