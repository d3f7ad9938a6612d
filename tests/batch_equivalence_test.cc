// Registry sweep asserting the batched path is BITWISE-identical to the
// scalar path: for every (function, scheme, regime, family) spec the
// registry can instantiate, EstimatorKernel::Scan over a columnar
// OutcomeBatch must reproduce the per-row scalar reference exactly --
// est[i] == Estimate(row i) both point-only (null var) and with the
// variance, and var[i] == est * est - EstimateSecondMoment(row i). This is
// the invariant that lets every driver (aggregate scans, store queries,
// the accuracy layer) use the columnar API without perturbing results --
// the store's determinism guarantees ride on it.
//
// The sweep covers randomly sampled batches, fixed data vectors, and
// crafted sampling patterns (mixed, all-sampled, none-sampled) crossing
// partition-block boundaries; each batch is scanned in slices of
// {1, 127, 256, 1000} rows spread over {1, 2, 8} threads. It runs in both
// CMake configurations (the scalar-path CI job builds -DPIE_SIMD=OFF), so
// partitioned == scalar row loop == per-row scalar reference.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/parallel_scan.h"
#include "engine/registry.h"
#include "engine/simd_dispatch.h"
#include "engine/worker_pool.h"
#include "gtest/gtest.h"
#include "util/hashing.h"
#include "util/random.h"

namespace pie {
namespace {

// Exact double equality including the bit pattern (EXPECT_EQ would accept
// 0.0 == -0.0; the determinism guarantee is about bytes).
::testing::AssertionResult BitwiseEqual(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ (bits 0x" << std::hex << ba
         << " vs 0x" << bb << ")";
}

struct KernelCase {
  const KernelEntry* entry;
  SamplingParams params;
};

std::vector<KernelCase> AllRegisteredCases() {
  std::vector<KernelCase> cases;
  for (const auto& entry : KernelRegistry::Global().Entries()) {
    for (const auto& params : entry.example_params) {
      cases.push_back({&entry, params});
    }
  }
  return cases;
}

std::string CaseName(const testing::TestParamInfo<KernelCase>& info) {
  std::string name = info.param.entry->spec.ToString() + "_r" +
                     std::to_string(info.param.params.r()) + "_" +
                     std::to_string(info.index);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

double ValueScale(const KernelCase& c) {
  double scale = 10.0;
  if (c.entry->spec.scheme == Scheme::kPps) {
    for (double tau : c.params.per_entry) scale = std::fmax(scale, tau);
  }
  return scale;
}

// Random data vector matching the kernel's domain: binary for OR, scaled
// nonnegative reals otherwise (spanning below- and above-threshold values
// for PPS), with occasional all-zero vectors.
std::vector<double> RandomValues(const KernelCase& c, Rng& rng) {
  const int r = c.params.r();
  std::vector<double> values(static_cast<size_t>(r), 0.0);
  if (rng.UniformDouble() < 0.1) return values;  // all-zero vector
  if (c.entry->spec.function == Function::kOr) {
    bool any = false;
    for (double& v : values) {
      v = rng.UniformDouble() < 0.5 ? 1.0 : 0.0;
      any = any || v == 1.0;
    }
    if (!any) values[0] = 1.0;
    return values;
  }
  const double scale = ValueScale(c);
  for (double& v : values) v = rng.UniformDouble(0.0, 1.5 * scale);
  return values;
}

// Two fixed data vectors per kernel: all-ones / one-hot for OR; a dense
// below-threshold vector and a one-hot vector otherwise.
std::vector<std::vector<double>> FixedVectors(const KernelCase& c) {
  const int r = c.params.r();
  std::vector<double> one_hot(static_cast<size_t>(r), 0.0);
  if (c.entry->spec.function == Function::kOr) {
    one_hot[0] = 1.0;
    return {std::vector<double>(static_cast<size_t>(r), 1.0), one_hot};
  }
  double scale = 1.0;
  if (c.entry->spec.scheme == Scheme::kPps) {
    scale = c.params.per_entry[0];
    for (double tau : c.params.per_entry) scale = std::fmin(scale, tau);
    scale *= 0.7;
  }
  std::vector<double> dense(static_cast<size_t>(r));
  for (int i = 0; i < r; ++i) {
    dense[static_cast<size_t>(i)] =
        scale *
        (0.35 + 0.6 * static_cast<double>(i + 1) / static_cast<double>(r));
  }
  one_hot[0] = 0.8 * scale;
  return {dense, one_hot};
}

enum class Shape { kRandom, kFixed, kMixed, kAllSampled, kNoneSampled };

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kRandom:
      return "random";
    case Shape::kFixed:
      return "fixed-vectors";
    case Shape::kMixed:
      return "mixed";
    case Shape::kAllSampled:
      return "all-sampled";
    case Shape::kNoneSampled:
      return "none-sampled";
  }
  return "?";
}

/// Appends one handcrafted row: bit j of `pattern` gives entry j's sampled
/// flag; values respect each kernel family's domain (exactly 1.0 on sampled
/// OR entries, whose weighted mapping checks set semantics; scaled
/// nonnegative reals otherwise), and PPS seeds are always populated so the
/// identifiability bounds of unsampled entries are exercised.
void AppendPatternRow(const KernelCase& c, unsigned pattern, Rng& rng,
                      OutcomeBatch* batch) {
  const int r = c.params.r();
  const int i = batch->AppendRow();
  uint8_t* sampled = batch->sampled_row(i);
  double* value = batch->value_row(i);
  double* param = batch->param_row(i);
  const double scale = ValueScale(c);
  for (int j = 0; j < r; ++j) {
    param[j] = c.params.per_entry[static_cast<size_t>(j)];
    sampled[j] = (pattern >> j) & 1u;
    if (c.entry->spec.function == Function::kOr) {
      value[j] = sampled[j] != 0 ? 1.0 : 0.0;
    } else {
      value[j] = sampled[j] != 0 ? rng.UniformDouble(0.0, 1.5 * scale) : 0.0;
    }
  }
  if (c.entry->spec.scheme == Scheme::kPps) {
    double* seed = batch->seed_row(i);
    for (int j = 0; j < r; ++j) seed[j] = rng.UniformDouble();
  }
}

void FillBatch(const KernelCase& c, Shape shape, int size, Rng& rng,
               OutcomeBatch* batch) {
  const Scheme scheme = c.entry->spec.scheme;
  batch->Reset(scheme, c.params.r());
  const std::vector<std::vector<double>> fixed = FixedVectors(c);
  const unsigned all = (1u << c.params.r()) - 1u;
  for (int i = 0; i < size; ++i) {
    if (shape == Shape::kRandom || shape == Shape::kFixed) {
      const std::vector<double> values =
          shape == Shape::kRandom ? RandomValues(c, rng)
                                  : fixed[static_cast<size_t>(i) % 2];
      const Outcome o = SampleOutcome(scheme, c.params, values, rng);
      if (scheme == Scheme::kOblivious) {
        batch->Append(o.oblivious);
      } else {
        batch->Append(o.pps);
      }
      continue;
    }
    unsigned pattern = 0;  // kNoneSampled
    if (shape == Shape::kAllSampled) pattern = all;
    // Every pattern appears, in a block-crossing repeating order.
    if (shape == Shape::kMixed) pattern = static_cast<unsigned>(i) % (all + 1u);
    AppendPatternRow(c, pattern, rng, batch);
  }
}

class ScanEquivalenceTest : public testing::TestWithParam<KernelCase> {};

TEST_P(ScanEquivalenceTest, ScanMatchesScalarBitwise) {
  const KernelCase& c = GetParam();
  auto made = c.entry->factory(c.entry->spec, c.params);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const EstimatorKernel& kernel = **made;
  struct BatchCase {
    Shape shape;
    int size;
  };
  const BatchCase batches[] = {
      {Shape::kRandom, 0},        {Shape::kRandom, 1},
      {Shape::kRandom, 2},        {Shape::kRandom, 57},
      {Shape::kRandom, 256},      {Shape::kRandom, 700},
      {Shape::kFixed, 0},         {Shape::kFixed, 1},
      {Shape::kFixed, 63},        {Shape::kFixed, 256},
      {Shape::kMixed, 0},         {Shape::kMixed, 1},
      {Shape::kMixed, 257},       {Shape::kMixed, 700},
      {Shape::kAllSampled, 1},    {Shape::kAllSampled, 300},
      {Shape::kNoneSampled, 1},   {Shape::kNoneSampled, 64},
      {Shape::kNoneSampled, 300},
  };
  Rng rng(HashCombine(HashBytes(c.entry->spec.ToString()),
                      static_cast<uint64_t>(c.params.r())));
  for (const BatchCase& b : batches) {
    OutcomeBatch batch;
    FillBatch(c, b.shape, b.size, rng, &batch);
    ASSERT_EQ(batch.size(), b.size);
    const BatchView view = batch.view();
    const size_t n = static_cast<size_t>(b.size);

    // Per-row scalar reference.
    std::vector<double> ref_est(n), ref_var(n);
    double scalar_sum = 0.0;
    Outcome row;
    for (int i = 0; i < b.size; ++i) {
      ExtractRow(view, i, &row);
      const double e = kernel.Estimate(row);
      ref_est[static_cast<size_t>(i)] = e;
      ref_var[static_cast<size_t>(i)] = e * e - kernel.EstimateSecondMoment(row);
      scalar_sum += e;
    }
    const std::string batch_label = kernel.name() + " " +
                                    ShapeName(b.shape) + " size " +
                                    std::to_string(b.size);

    for (const int slice : {1, 127, 256, 1000}) {
      const int num_slices = (b.size + slice - 1) / slice;
      for (const int threads : {1, 2, 8}) {
        // One spare slot past the end catches writes beyond batch.size.
        std::vector<double> point(n + 1, -1.0), est(n + 1, -1.0);
        std::vector<double> var(n + 1, -1.0);
        WorkerPool::Global().ParallelFor(num_slices, threads, [&](int s) {
          const int begin = s * slice;
          const BatchView part =
              view.Slice(begin, std::min(slice, b.size - begin));
          const size_t off = static_cast<size_t>(begin);
          kernel.Scan(part, point.data() + off, nullptr);
          kernel.Scan(part, est.data() + off, var.data() + off);
        });
        const std::string label = batch_label + " slice " +
                                  std::to_string(slice) + " threads " +
                                  std::to_string(threads);
        for (size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(BitwiseEqual(point[i], ref_est[i]))
              << label << " point-only row " << i;
          ASSERT_TRUE(BitwiseEqual(est[i], ref_est[i]))
              << label << " estimate row " << i;
          ASSERT_TRUE(BitwiseEqual(var[i], ref_var[i]))
              << label << " variance row " << i;
        }
        EXPECT_EQ(point[n], -1.0) << label;
        EXPECT_EQ(est[n], -1.0) << label;
        EXPECT_EQ(var[n], -1.0) << label;
      }
    }

    // The engine's wrappers route through the same Scan.
    std::vector<double> batched;
    EstimateBatch(kernel, batch, &batched);
    ASSERT_EQ(batched.size(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(BitwiseEqual(batched[i], ref_est[i]))
          << batch_label << " EstimateBatch row " << i;
    }
    // Within one chunk, the chunked sum accumulates in the same row order
    // as the scalar loop it replaced.
    if (b.size <= kScanChunkRows) {
      EXPECT_TRUE(BitwiseEqual(EstimateSum(kernel, batch), scalar_sum))
          << batch_label << " sum";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredKernels, ScanEquivalenceTest,
                         testing::ValuesIn(AllRegisteredCases()), CaseName);

TEST(BatchEquivalenceTest, DefaultEstimateManyLoopsScalarEstimate) {
  // A kernel that does not override Scan (max^(L) general-p r = 3
  // resolves to the closed-form MaxLThree adapter) still serves the
  // columnar API through the base-class row loop.
  auto kernel = KernelRegistry::Global().Create(
      {Function::kMax, Scheme::kOblivious, Regime::kKnownSeeds, Family::kL},
      {0.5, 0.3, 0.7});
  ASSERT_TRUE(kernel.ok());
  Rng rng(99);
  OutcomeBatch batch;
  batch.Reset(Scheme::kOblivious, 3);
  std::vector<Outcome> outcomes;
  for (int i = 0; i < 64; ++i) {
    outcomes.push_back(SampleOutcome(
        Scheme::kOblivious, {0.5, 0.3, 0.7},
        {rng.UniformDouble(0, 10), rng.UniformDouble(0, 10),
         rng.UniformDouble(0, 10)},
        rng));
    batch.Append(outcomes.back().oblivious);
  }
  std::vector<double> batched;
  EstimateBatch(**kernel, batch, &batched);
  for (int i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(batched[static_cast<size_t>(i)],
                             (*kernel)->Estimate(outcomes[i])));
  }
}

TEST(BatchEquivalenceTest, ExtractRowRoundTripsAppendedOutcomes) {
  Rng rng(7);
  const SamplingParams params({10.0, 8.0});
  OutcomeBatch batch;
  batch.Reset(Scheme::kPps, 2);
  std::vector<Outcome> outcomes;
  for (int i = 0; i < 8; ++i) {
    outcomes.push_back(SampleOutcome(
        Scheme::kPps, params,
        {rng.UniformDouble(0, 12), rng.UniformDouble(0, 12)}, rng));
    batch.Append(outcomes.back().pps);
  }
  Outcome scratch;
  for (int i = 0; i < batch.size(); ++i) {
    batch.ExtractRowInto(i, &scratch);
    ASSERT_EQ(scratch.scheme, Scheme::kPps);
    EXPECT_EQ(scratch.pps.tau, outcomes[static_cast<size_t>(i)].pps.tau);
    EXPECT_EQ(scratch.pps.seed, outcomes[static_cast<size_t>(i)].pps.seed);
    EXPECT_EQ(scratch.pps.sampled,
              outcomes[static_cast<size_t>(i)].pps.sampled);
    EXPECT_EQ(scratch.pps.value,
              outcomes[static_cast<size_t>(i)].pps.value);
  }
}

TEST(SimdTierTest, ActiveTierIsTheCompiledTier) {
#ifdef PIE_SIMD
  EXPECT_EQ(ActiveSimdTier(), SimdTier::kAvx2);
#else
  EXPECT_EQ(ActiveSimdTier(), SimdTier::kScalar);
#endif
}

}  // namespace
}  // namespace pie
