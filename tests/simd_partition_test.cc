// Pattern-partition units: the stable bucket permutations and the
// gather/scatter helpers under the PIE_SIMD block loops of
// engine/registry.cc. The registry-wide bitwise sweep over those loops
// lives in tests/batch_equivalence_test.cc.

#include <cstdint>

#include "engine/pattern_partition.h"
#include "gtest/gtest.h"

namespace pie {
namespace {

// ---------------------------------------------------------------------------
// Partition units
// ---------------------------------------------------------------------------

TEST(PatternPartitionTest, R2BucketsAreStableAndExhaustive) {
  uint8_t sampled[2 * 8] = {0, 0, 1, 0, 0, 1, 1, 1,
                            1, 0, 1, 1, 0, 0, 0, 1};
  R2Partition part;
  PartitionR2(sampled, 8, &part);
  ASSERT_EQ(part.count[0], 2);
  ASSERT_EQ(part.count[1], 2);
  ASSERT_EQ(part.count[2], 2);
  ASSERT_EQ(part.count[3], 2);
  // Stable: bucket indices ascend in row order.
  EXPECT_EQ(part.idx[0][0], 0);
  EXPECT_EQ(part.idx[0][1], 6);
  EXPECT_EQ(part.idx[1][0], 1);
  EXPECT_EQ(part.idx[1][1], 4);
  EXPECT_EQ(part.idx[2][0], 2);
  EXPECT_EQ(part.idx[2][1], 7);
  EXPECT_EQ(part.idx[3][0], 3);
  EXPECT_EQ(part.idx[3][1], 5);
}

TEST(PatternPartitionTest, AllSampledSplitsOnEveryEntry) {
  uint8_t sampled[3 * 4] = {1, 1, 1, /**/ 1, 0, 1, /**/ 0, 0, 0, /**/ 1, 1,
                            1};
  AllSampledPartition part;
  PartitionAllSampled(sampled, 3, 4, &part);
  ASSERT_EQ(part.count, 2);
  ASSERT_EQ(part.rest_count, 2);
  EXPECT_EQ(part.idx[0], 0);
  EXPECT_EQ(part.idx[1], 3);
  EXPECT_EQ(part.rest[0], 1);
  EXPECT_EQ(part.rest[1], 2);
}

TEST(PatternPartitionTest, GatherScatterRoundTrip) {
  double slab[2 * 4] = {0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5};
  const uint16_t idx[3] = {0, 2, 3};
  double dense[3];
  GatherColumn(slab, 2, 1, idx, 3, dense);
  EXPECT_EQ(dense[0], 1.5);
  EXPECT_EQ(dense[1], 5.5);
  EXPECT_EQ(dense[2], 7.5);
  double out[4] = {0, 0, 0, 0};
  Scatter(dense, idx, 3, out);
  ScatterConstant(-1.0, idx + 1, 1, out);
  EXPECT_EQ(out[0], 1.5);
  EXPECT_EQ(out[1], 0.0);
  EXPECT_EQ(out[2], -1.0);
  EXPECT_EQ(out[3], 7.5);
}

}  // namespace
}  // namespace pie
