// The PIE_FAST_LOG accuracy/versioning contract (core/fast_log.h):
//  * FastLog is within kFastLogMaxUlp ulps of std::log over the regime
//    input ranges (and far beyond them -- the whole positive normal range);
//  * PieLog routes to the tier the build selected, bitwise;
//  * within the tier, the weighted max^(L) scan is bitwise deterministic
//    at any thread count and batch slicing, and -- because the fast-log
//    tier is libm-free (pure IEEE arithmetic, no platform libm) -- its
//    digest matches a committed golden value;
//  * the estimator stays unbiased under the active tier (Monte Carlo).
//
// Runs in every CMake config; the golden-digest comparison and the
// FastLog-specific assertions that depend on tier selection are gated on
// PIE_FAST_LOG, everything else runs in both tiers.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/fast_log.h"
#include "core/max_weighted.h"
#include "engine/engine.h"
#include "engine/parallel_scan.h"
#include "gtest/gtest.h"
#include "sampling/poisson.h"
#include "util/random.h"
#include "util/stats.h"

namespace pie {
namespace {

::testing::AssertionResult BitwiseEqual(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ (bits 0x" << std::hex << ba
         << " vs 0x" << bb << ")";
}

/// ULP distance between two finite doubles of the same sign regime, via
/// the ordered-integer mapping (negative doubles map below positives).
uint64_t UlpDistance(double a, double b) {
  auto ordered = [](double v) {
    int64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits < 0 ? std::numeric_limits<int64_t>::min() - bits : bits;
  };
  const int64_t oa = ordered(a);
  const int64_t ob = ordered(b);
  return oa > ob ? static_cast<uint64_t>(oa - ob)
                 : static_cast<uint64_t>(ob - oa);
}

// ---------------------------------------------------------------------------
// FastLog accuracy vs libm
// ---------------------------------------------------------------------------

TEST(FastLogTest, ExactAtOne) {
  EXPECT_TRUE(BitwiseEqual(FastLog(1.0), 0.0));
}

TEST(FastLogTest, WithinUlpBoundOnRegimeRanges) {
  // The eq (29)/(30) log arguments are products of ratios >= 1, so the
  // regime range is [1, inf); sweep it densely near 1 (where log loses
  // absolute precision), across the moderate values the estimators
  // produce, and across the whole positive normal range for headroom.
  Rng rng(101);
  uint64_t max_ulp = 0;
  double worst = 1.0;
  auto check = [&](double x) {
    const double ref = std::log(x);
    const double fast = FastLog(x);
    const uint64_t ulp = UlpDistance(fast, ref);
    if (ulp > max_ulp) {
      max_ulp = ulp;
      worst = x;
    }
  };
  for (int i = 0; i < 200000; ++i) {
    check(1.0 + rng.UniformDouble(0.0, 1e-6));        // barely above 1
    check(rng.UniformDouble(1.0, 16.0));              // regime bulk
    check(rng.UniformDouble(1.0, 1e9));               // wide regime
    check(std::exp2(rng.UniformDouble(-1000.0, 1000.0)));  // full normals
  }
  // Power-of-two and sqrt(2) reduction boundaries, exact and +-1 ulp.
  for (int e = -64; e <= 64; ++e) {
    const double p = std::ldexp(1.0, e);
    for (double x : {p, std::nextafter(p, 2 * p), std::nextafter(p, 0.0),
                     p * 1.4142135623730951}) {
      if (x > 0) check(x);
    }
  }
  EXPECT_LE(max_ulp, static_cast<uint64_t>(kFastLogMaxUlp))
      << "worst x = " << worst;
}

TEST(FastLogTest, PieLogSelectsBuildTierBitwise) {
  Rng rng(103);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.UniformDouble(1.0, 1e6);
#ifdef PIE_FAST_LOG
    EXPECT_TRUE(BitwiseEqual(PieLog(x), FastLog(x)));
#else
    EXPECT_TRUE(BitwiseEqual(PieLog(x), std::log(x)));
#endif
  }
}

// ---------------------------------------------------------------------------
// Tier determinism: thread count, batch slicing, golden digest
// ---------------------------------------------------------------------------

void Fnv1aAdd(uint64_t* digest, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int byte = 0; byte < 8; ++byte) {
    *digest ^= (bits >> (8 * byte)) & 0xff;
    *digest *= 1099511628211ull;
  }
}

/// Log-heavy weighted max^(L) batch: values inside (0, tau) on both
/// entries so the both-sampled rows land in the eq (29)/(30) regimes;
/// natural PPS sampling keeps every pattern bucket populated. Odd size so
/// the partition-block tail is exercised.
OutcomeBatch MakeWeightedLogBatch(int size) {
  const std::vector<double> tau = {10.0, 8.0};
  Rng rng(107);
  OutcomeBatch batch;
  batch.Reset(Scheme::kPps, 2);
  std::vector<double> values(2);
  for (int i = 0; i < size; ++i) {
    values[0] = rng.UniformDouble(0.5, 9.9);
    values[1] = values[0] * rng.UniformDouble(0.1, 0.8);
    batch.Append(SamplePps(values, tau, rng));
  }
  return batch;
}

KernelHandle WeightedMaxKernel() {
  return EstimationEngine::Global()
      .Kernel({Function::kMax, Scheme::kPps, Regime::kKnownSeeds, Family::kL},
              SamplingParams({10.0, 8.0}))
      .value();
}

TEST(FastLogTierTest, ScanIsBitwiseDeterministicAcrossThreadsAndShapes) {
  const int kRows = 4103;  // crosses block boundaries with a ragged tail
  const OutcomeBatch batch = MakeWeightedLogBatch(kRows);
  const BatchView view = batch.view();
  const KernelHandle kernel = WeightedMaxKernel();

  std::vector<double> est(kRows), fused_est(kRows), fused_var(kRows);
  kernel->EstimateMany(view, est.data());
  kernel->Scan(view, fused_est.data(), fused_var.data());

  // Batch shape must not matter: re-run EstimateMany over ragged slices.
  for (int chunk : {1, 127, 256, 1000}) {
    std::vector<double> sliced(kRows);
    for (int begin = 0; begin < kRows; begin += chunk) {
      const int count = std::min(chunk, kRows - begin);
      kernel->EstimateMany(view.Slice(begin, count), sliced.data() + begin);
    }
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(BitwiseEqual(sliced[static_cast<size_t>(i)],
                               est[static_cast<size_t>(i)]))
          << "chunk " << chunk << " row " << i;
    }
  }

  // Thread count must not matter: the deterministic scan driver owns the
  // combine order.
  ScanOptions options;
  options.num_threads = 1;
  const ScanPartial one = ScanBatch(*kernel, view, options);
  for (int threads : {2, 8}) {
    options.num_threads = threads;
    const ScanPartial many = ScanBatch(*kernel, view, options);
    EXPECT_TRUE(BitwiseEqual(many.sum, one.sum)) << threads << " threads";
    EXPECT_TRUE(BitwiseEqual(many.variance, one.variance))
        << threads << " threads";
  }

  uint64_t digest = 14695981039346656037ull;  // FNV-1a offset basis
  for (int i = 0; i < kRows; ++i) {
    Fnv1aAdd(&digest, est[static_cast<size_t>(i)]);
    Fnv1aAdd(&digest, fused_var[static_cast<size_t>(i)]);
  }
  Fnv1aAdd(&digest, one.sum);
  Fnv1aAdd(&digest, one.variance);
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));

#ifdef PIE_FAST_LOG
  // The fast-log tier is libm-free on this path -- Rng, PPS sampling, the
  // closed forms, and FastLog are pure IEEE add/sub/mul/div and bit ops
  // compiled under -ffp-contract=off -- so the digest is portable across
  // machines and committed as a golden value. A mismatch means the tier's
  // estimator version changed; that requires a deliberate golden update.
  EXPECT_STREQ(hex, "118f4d05fe31dead");
#else
  // The std::log tier's bits depend on the platform libm; just report.
  std::printf("std::log tier digest: %s\n", hex);
#endif
}

// ---------------------------------------------------------------------------
// Unbiasedness under the active tier
// ---------------------------------------------------------------------------

TEST(FastLogTierTest, WeightedMaxStaysUnbiasedUnderActiveTier) {
  // Log-regime-heavy value pairs: the estimate of a both-sampled outcome
  // goes through PieLog, so the tier's log error feeds straight into the
  // Monte Carlo mean if it were biased beyond ulp noise.
  const double tau1 = 10.0, tau2 = 8.0;
  const MaxLWeightedTwo est(tau1, tau2);
  Rng rng(109);
  for (auto v : {std::vector<double>{6.5, 5.2}, {4.0, 2.0}, {9.0, 7.0}}) {
    RunningStat stat;
    for (int t = 0; t < 300000; ++t) {
      stat.Add(est.Estimate(SamplePps(v, {tau1, tau2}, rng)));
    }
    EXPECT_NEAR(stat.mean(), std::max(v[0], v[1]),
                5.0 * stat.standard_error() + 1e-9)
        << "v=(" << v[0] << "," << v[1] << ")";
  }
}

}  // namespace
}  // namespace pie
