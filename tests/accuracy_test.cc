// The accuracy layer's test suite:
//  * registry-wide Monte Carlo sweep asserting every kernel's
//    EstimateSecondMoment is unbiased for f(v)^2 and that the derived
//    per-outcome variance estimate matches the exact kernel variance;
//  * bitwise equivalence of the batched second-moment path with the
//    scalar path, and of AccuracyAccumulator's sum with EstimateSum (the
//    "error bars change nothing about point estimates" guarantee);
//  * confidence-interval policy math (normal quantiles, Chebyshev) and
//    empirical CI coverage within +-2% of nominal at 95% on Monte Carlo
//    sum aggregates, for both sampling schemes;
//  * the Figure 2 / Figure 4 variance orderings (the optimal families
//    dominate HT; L is the dense-first and U the sparse-first optimum);
//  * the variance-driven EstimatorSelector, including per-threshold-class
//    selection and inadmissible-family handling;
//  * end-to-end: QueryService aggregates carry deterministic error bars,
//    MaxDominanceAuto serves the selector's choice.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "accuracy/accumulator.h"
#include "accuracy/confidence.h"
#include "accuracy/selector.h"
#include "aggregate/distinct.h"
#include "aggregate/dominance.h"
#include "core/ht.h"
#include "core/max_oblivious.h"
#include "core/max_weighted.h"
#include "core/min_weighted.h"
#include "core/or_oblivious.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "gtest/gtest.h"
#include "store/query_service.h"
#include "store/sketch_store.h"
#include "util/hashing.h"
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

// Deterministic data vectors matching the kernel's domain: a dense vector
// (every entry positive, below the PPS thresholds so sampling stays
// stochastic) and a sparse one-hot vector -- the two regimes where the
// estimator families differ most.
std::vector<std::vector<double>> DataVectors(const KernelEntry& entry,
                                             const SamplingParams& params) {
  const int r = params.r();
  std::vector<std::vector<double>> out;
  if (entry.spec.function == Function::kOr) {
    out.emplace_back(static_cast<size_t>(r), 1.0);
    std::vector<double> one_hot(static_cast<size_t>(r), 0.0);
    one_hot[0] = 1.0;
    out.push_back(std::move(one_hot));
    return out;
  }
  double scale = 1.0;
  if (entry.spec.scheme == Scheme::kPps) {
    scale = params.per_entry[0];
    for (double tau : params.per_entry) scale = std::fmin(scale, tau);
    scale *= 0.7;
  }
  std::vector<double> dense(static_cast<size_t>(r));
  for (int i = 0; i < r; ++i) {
    dense[static_cast<size_t>(i)] =
        scale *
        (0.35 + 0.6 * static_cast<double>(i + 1) / static_cast<double>(r));
  }
  out.push_back(std::move(dense));
  std::vector<double> one_hot(static_cast<size_t>(r), 0.0);
  one_hot[0] = 0.8 * scale;
  out.push_back(std::move(one_hot));
  return out;
}

uint64_t SeedFor(const std::string& name,
                 const std::vector<double>& values) {
  uint64_t h = HashBytes(name);
  for (double v : values) {
    h = HashCombine(h, static_cast<uint64_t>(v * 4096.0));
  }
  return h;
}

// ---------------------------------------------------------------------------
// Second-moment unbiasedness and variance identity, registry-wide
// ---------------------------------------------------------------------------

TEST(SecondMomentTest, UnbiasedForSquaredTargetAcrossRegistry) {
  constexpr int kTrials = 40000;
  for (const auto& entry : KernelRegistry::Global().Entries()) {
    for (const auto& params : entry.example_params) {
      auto kernel = entry.factory(entry.spec, params);
      ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
      for (const auto& values : DataVectors(entry, params)) {
        const double truth = TrueValue(entry.spec, values);
        Rng rng(SeedFor((*kernel)->name(), values));
        MomentAccumulator second, var_hat;
        for (int t = 0; t < kTrials; ++t) {
          const Outcome outcome =
              SampleOutcome(entry.spec.scheme, params, values, rng);
          const double est = (*kernel)->Estimate(outcome);
          const double sm = (*kernel)->EstimateSecondMoment(outcome);
          second.Add(sm);
          var_hat.Add(est * est - sm);
        }
        // E[second moment estimate] = f(v)^2, within 5 MC standard errors.
        EXPECT_NEAR(second.mean(), truth * truth,
                    5.0 * second.standard_error() + 1e-9)
            << (*kernel)->name() << " on "
            << ::testing::PrintToString(values);
        // E[est^2 - second moment] = Var[est]: checked against the exact
        // closed-form/quadrature variance where the kernel provides one.
        const auto exact = (*kernel)->Variance(values);
        if (exact.ok()) {
          EXPECT_NEAR(var_hat.mean(), *exact,
                      5.0 * var_hat.standard_error() + 1e-9)
              << (*kernel)->name() << " on "
              << ::testing::PrintToString(values);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// AccuracyAccumulator: point estimates unchanged, merge determinism
// ---------------------------------------------------------------------------

TEST(AccuracyAccumulatorTest, SumBitwiseMatchesEstimateSumAcrossRegistry) {
  for (const auto& entry : KernelRegistry::Global().Entries()) {
    for (const auto& params : entry.example_params) {
      auto kernel = entry.factory(entry.spec, params);
      ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
      Rng rng(HashCombine(HashBytes(entry.spec.ToString()), 1234));
      OutcomeBatch batch;
      batch.Reset(entry.spec.scheme, params.r());
      const auto vectors = DataVectors(entry, params);
      for (int i = 0; i < 700; ++i) {  // spans multiple 256-row chunks
        const auto& values = vectors[static_cast<size_t>(i) % 2];
        const Outcome o =
            SampleOutcome(entry.spec.scheme, params, values, rng);
        if (entry.spec.scheme == Scheme::kOblivious) {
          batch.Append(o.oblivious);
        } else {
          batch.Append(o.pps);
        }
      }
      AccuracyAccumulator acc;
      acc.AddBatch(**kernel, batch);
      EXPECT_TRUE(BitwiseEqual(acc.sum(), EstimateSum(**kernel, batch)))
          << (*kernel)->name();
      EXPECT_EQ(acc.keys(), batch.size());
    }
  }
}

TEST(AccuracyAccumulatorTest, ShardMergeReproducesSingleScan) {
  auto kernel = KernelRegistry::Global().Create(
      {Function::kMax, Scheme::kOblivious, Regime::kKnownSeeds, Family::kL},
      {0.5, 0.3});
  ASSERT_TRUE(kernel.ok());
  Rng rng(5);
  OutcomeBatch all;
  all.Reset(Scheme::kOblivious, 2);
  std::vector<OutcomeBatch> shards(4);
  for (auto& shard : shards) shard.Reset(Scheme::kOblivious, 2);
  for (int i = 0; i < 999; ++i) {
    const Outcome o = SampleOutcome(
        Scheme::kOblivious, {0.5, 0.3},
        {rng.UniformDouble(0, 1), rng.UniformDouble(0, 1)}, rng);
    all.Append(o.oblivious);
    shards[static_cast<size_t>(i) % 4].Append(o.oblivious);
  }
  AccuracyAccumulator single;
  single.AddBatch(**kernel, all);
  AccuracyAccumulator merged;
  for (const auto& shard : shards) {
    AccuracyAccumulator partial;
    partial.AddBatch(**kernel, shard);
    merged.Merge(partial);
  }
  EXPECT_EQ(merged.keys(), single.keys());
  // Per-shard fills visit rows in a different order than the single scan,
  // so this comparison is tight-tolerance, not bitwise; the store's
  // bitwise guarantee is about a FIXED shard partition reduced in shard
  // order (QueryServiceAccuracyTest below).
  EXPECT_NEAR(merged.sum(), single.sum(), 1e-9 * std::fabs(single.sum()));
  EXPECT_NEAR(merged.variance(), single.variance(),
              1e-9 * std::fabs(single.variance()));
  EXPECT_NEAR(merged.per_key().variance(), single.per_key().variance(),
              1e-9 * single.per_key().variance());
}

TEST(AccuracyAccumulatorTest, EmptyBatchYieldsZeroInterval) {
  auto kernel = KernelRegistry::Global().Create(
      {Function::kMax, Scheme::kOblivious, Regime::kKnownSeeds, Family::kL},
      {0.5, 0.3});
  ASSERT_TRUE(kernel.ok());
  OutcomeBatch batch;
  batch.Reset(Scheme::kOblivious, 2);
  AccuracyAccumulator acc;
  acc.AddBatch(**kernel, batch);
  const IntervalEstimate interval = acc.Interval();
  EXPECT_EQ(acc.keys(), 0);
  EXPECT_EQ(interval.estimate, 0.0);
  EXPECT_EQ(interval.std_err, 0.0);
  EXPECT_EQ(interval.lo, 0.0);
  EXPECT_EQ(interval.hi, 0.0);
}

// ---------------------------------------------------------------------------
// Confidence-interval policies
// ---------------------------------------------------------------------------

TEST(ConfidenceTest, NormalQuantileMatchesKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963985, 1e-7);
  EXPECT_NEAR(NormalQuantile(0.995), 2.575829304, 1e-7);
  EXPECT_NEAR(NormalQuantile(0.95), 1.644853627, 1e-7);
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.001), -NormalQuantile(0.999), 1e-9);
  // Tail branch (p < 0.02425).
  EXPECT_NEAR(NormalQuantile(0.0001), -3.719016485, 1e-6);
}

TEST(ConfidenceTest, CriticalValuesAndIntervalAssembly) {
  EXPECT_NEAR(CriticalValue({CiMethod::kNormal, 0.95}), 1.959963985, 1e-7);
  EXPECT_NEAR(CriticalValue({CiMethod::kChebyshev, 0.95}),
              1.0 / std::sqrt(0.05), 1e-12);
  const IntervalEstimate interval =
      MakeInterval(10.0, 4.0, {CiMethod::kNormal, 0.95});
  EXPECT_EQ(interval.estimate, 10.0);
  EXPECT_EQ(interval.variance, 4.0);
  EXPECT_EQ(interval.std_err, 2.0);
  EXPECT_NEAR(interval.lo, 10.0 - 2.0 * 1.959963985, 1e-6);
  EXPECT_NEAR(interval.hi, 10.0 + 2.0 * 1.959963985, 1e-6);
  // A (rare) negative variance estimate clamps to a point interval rather
  // than producing NaN.
  const IntervalEstimate clamped = MakeInterval(3.0, -0.5);
  EXPECT_EQ(clamped.std_err, 0.0);
  EXPECT_EQ(clamped.lo, 3.0);
  EXPECT_EQ(clamped.hi, 3.0);
  EXPECT_EQ(clamped.variance, -0.5);  // raw value preserved for diagnostics
}

TEST(ConfidenceTest, CriticalValueMemoIsBitwiseTransparent) {
  // The memo caches (method, level) -> value per thread; a hit must return
  // the identical bits the direct computation produces, including on
  // levels that churn past the 8-slot capacity (round-robin eviction) and
  // on the same level under both methods.
  const CiMethod methods[] = {CiMethod::kNormal, CiMethod::kChebyshev};
  const double levels[] = {0.5,   0.8,    0.9,   0.95,  0.975, 0.99,
                           0.995, 0.9999, 0.001, 0.256, 0.642, 0.31};
  for (int pass = 0; pass < 3; ++pass) {  // pass > 0 re-reads warm entries
    for (CiMethod method : methods) {
      for (double level : levels) {
        const CiPolicy policy{method, level};
        EXPECT_TRUE(BitwiseEqual(CriticalValue(policy),
                                 CriticalValueUncached(policy)))
            << "method " << static_cast<int>(method) << " level " << level;
      }
    }
  }
}

// Shared CI coverage harness: a fixed population of keys, repeated
// sampling, fraction of 95% intervals covering the true sum.
template <typename MakeValues>
double CoverageRate(const KernelSpec& spec, const SamplingParams& params,
                    int num_keys, int trials, MakeValues&& make_values,
                    double* chebyshev_rate = nullptr) {
  auto kernel = EstimationEngine::Global().Kernel(spec, params);
  PIE_CHECK_OK(kernel.status());
  std::vector<std::vector<double>> population;
  double truth = 0.0;
  for (int k = 0; k < num_keys; ++k) {
    population.push_back(make_values(k));
    truth += TrueValue(spec, population.back());
  }
  Rng rng(HashBytes(spec.ToString()));
  int covered = 0;
  int chebyshev_covered = 0;
  OutcomeBatch batch;
  for (int t = 0; t < trials; ++t) {
    batch.Reset(spec.scheme, params.r());
    for (const auto& values : population) {
      const Outcome o = SampleOutcome(spec.scheme, params, values, rng);
      if (spec.scheme == Scheme::kOblivious) {
        batch.Append(o.oblivious);
      } else {
        batch.Append(o.pps);
      }
    }
    AccuracyAccumulator acc;
    acc.AddBatch(**kernel, batch);
    const IntervalEstimate normal = acc.Interval({CiMethod::kNormal, 0.95});
    if (normal.lo <= truth && truth <= normal.hi) ++covered;
    const IntervalEstimate chebyshev =
        acc.Interval({CiMethod::kChebyshev, 0.95});
    if (chebyshev.lo <= truth && truth <= chebyshev.hi) ++chebyshev_covered;
  }
  if (chebyshev_rate != nullptr) {
    *chebyshev_rate = static_cast<double>(chebyshev_covered) / trials;
  }
  return static_cast<double>(covered) / trials;
}

TEST(ConfidenceTest, CoverageWithinTwoPercentOfNominalOblivious) {
  double chebyshev = 0.0;
  const double coverage = CoverageRate(
      {Function::kMax, Scheme::kOblivious, Regime::kKnownSeeds, Family::kL},
      {0.5, 0.3}, /*num_keys=*/300, /*trials=*/2500,
      [](int k) -> std::vector<double> {
        const double a = 0.2 + 0.8 * std::fmod(0.618033988749895 * k, 1.0);
        return {a, a * (0.3 + 0.7 * std::fmod(0.414213562373095 * k, 1.0))};
      },
      &chebyshev);
  EXPECT_NEAR(coverage, 0.95, 0.02);
  // Chebyshev is conservative by construction: at least nominal coverage.
  EXPECT_GE(chebyshev, 0.95);
}

TEST(ConfidenceTest, CoverageWithinTwoPercentOfNominalPps) {
  const double coverage = CoverageRate(
      {Function::kMax, Scheme::kPps, Regime::kKnownSeeds, Family::kL},
      {10.0, 8.0}, /*num_keys=*/400, /*trials=*/2000,
      [](int k) -> std::vector<double> {
        const double a = 0.5 + 9.0 * std::fmod(0.618033988749895 * k, 1.0);
        return {a, a * (0.2 + 0.8 * std::fmod(0.732050807568877 * k, 1.0))};
      });
  EXPECT_NEAR(coverage, 0.95, 0.02);
}

// ---------------------------------------------------------------------------
// Figure 2 / Figure 4 variance orderings
// ---------------------------------------------------------------------------

TEST(VarianceOrderingTest, Figure2OrFamilies) {
  // Figure 2 configurations: p1 = p2 = p, data (1,1) and (1,0). The
  // optimal families dominate HT everywhere; L is the dense-first optimum
  // (best on (1,1)), U the sparse-first optimum (best on (1,0)).
  for (double p : {0.02, 0.05, 0.1, 0.2, 0.3, 0.5}) {
    const double ht = OrHtVariance({p, p});
    const OrLTwo l(p, p);
    const OrUTwo u(p, p);
    EXPECT_LE(l.Variance(1, 1), ht) << "p=" << p;
    EXPECT_LE(l.Variance(1, 0), ht) << "p=" << p;
    EXPECT_LE(u.Variance(1, 1), ht) << "p=" << p;
    EXPECT_LE(u.Variance(1, 0), ht) << "p=" << p;
    EXPECT_LE(l.Variance(1, 1), u.Variance(1, 1)) << "p=" << p;
    EXPECT_LE(u.Variance(1, 0), l.Variance(1, 0)) << "p=" << p;
  }
}

TEST(VarianceOrderingTest, Figure4WeightedMaxDominatesHt) {
  // Figure 4 configurations: tau1 = tau2 = 1, rho = max/tau in {0.5, 0.01},
  // min/max swept over [0, 1]: Var[max^(L)] <= Var[max^(HT)] pointwise.
  const MaxHtWeighted ht({1.0, 1.0});
  for (double rho : {0.5, 0.01}) {
    const MaxLWeightedTwo l(1.0, 1.0, 1e-8);
    for (int i = 0; i <= 10; ++i) {
      const double v1 = rho;
      const double v2 = v1 * i / 10.0;
      EXPECT_LE(l.Variance(v1, v2), ht.Variance({v1, v2}) * (1.0 + 1e-9))
          << "rho=" << rho << " frac=" << i / 10.0;
    }
  }
}

// ---------------------------------------------------------------------------
// EstimatorSelector
// ---------------------------------------------------------------------------

TEST(SelectorTest, WeightedMaxPrefersLOverHt) {
  const EstimatorSelector selector;
  auto report =
      selector.Select(Function::kMax, Scheme::kPps, Regime::kKnownSeeds,
                      SamplingParams({10.0, 8.0}, /*tol=*/1e-7));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->chosen.family, Family::kL);
  ASSERT_GE(report->ranking.size(), 2u);
  EXPECT_TRUE(report->ranking[0].admissible);
  EXPECT_TRUE(report->ranking[1].admissible);
  EXPECT_LT(report->ranking[0].variance_score,
            report->ranking[1].variance_score);
  EXPECT_EQ(report->ranking[1].spec.family, Family::kHt);
}

TEST(SelectorTest, ObliviousMaxNeverPicksHt) {
  const EstimatorSelector selector;
  auto report = selector.Select(Function::kMax, Scheme::kOblivious,
                                Regime::kKnownSeeds, {0.5, 0.3});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->chosen.family, Family::kHt);
  // All four registered max families are admissible at r = 2, and the
  // chosen one scores no worse than any other.
  EXPECT_EQ(report->ranking.size(), 4u);
  for (const auto& score : report->ranking) {
    EXPECT_TRUE(score.admissible) << score.kernel_name;
    EXPECT_LE(report->ranking[0].variance_score, score.variance_score);
  }
}

TEST(SelectorTest, InadmissibleFamiliesRankLast) {
  // At r = 4 uniform p, OR^(U) has no closed form (r = 2 only): it must be
  // marked inadmissible and never chosen, while L and HT still compete.
  const EstimatorSelector selector;
  auto report =
      selector.Select(Function::kOr, Scheme::kOblivious, Regime::kKnownSeeds,
                      SamplingParams({0.2, 0.2, 0.2, 0.2}));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->chosen.family, Family::kL);
  bool saw_inadmissible_u = false;
  for (const auto& score : report->ranking) {
    if (score.spec.family == Family::kU) {
      EXPECT_FALSE(score.admissible);
      saw_inadmissible_u = true;
    }
  }
  EXPECT_TRUE(saw_inadmissible_u);
  EXPECT_FALSE(report->ranking.back().admissible);
}

TEST(SelectorTest, KnownSeedsRequestServedByUnknownSeedsMin) {
  // min has only the unknown-seeds HT estimator; a known-seeds request
  // canonicalizes onto it.
  const EstimatorSelector selector;
  auto report =
      selector.Select(Function::kMin, Scheme::kPps, Regime::kKnownSeeds,
                      SamplingParams({10.0, 8.0}));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->chosen.family, Family::kHt);
  EXPECT_EQ(report->chosen.regime, Regime::kUnknownSeeds);
}

TEST(SelectorTest, SelectPerClassIsIndependentPerThresholdClass) {
  const EstimatorSelector selector;
  const std::vector<SamplingParams> classes = {
      SamplingParams({0.5, 0.3}),
      SamplingParams({0.2, 0.2, 0.2, 0.2, 0.2}),
  };
  const auto reports = selector.SelectPerClass(
      Function::kMax, Scheme::kOblivious, Regime::kKnownSeeds, classes);
  ASSERT_EQ(reports.size(), 2u);
  ASSERT_TRUE(reports[0].ok());
  ASSERT_TRUE(reports[1].ok());
  // r = 5 with uniform p admits only the Theorem 4.2 L recursion and HT;
  // L dominates.
  EXPECT_EQ(reports[1]->chosen.family, Family::kL);
}

TEST(SelectorTest, UnregisteredConfigurationIsNotFound) {
  const EstimatorSelector selector;
  auto report =
      selector.Select(Function::kLthLargest, Scheme::kPps,
                      Regime::kKnownSeeds, SamplingParams({10.0, 8.0}));
  EXPECT_FALSE(report.ok());
}

// ---------------------------------------------------------------------------
// End-to-end: QueryService error bars
// ---------------------------------------------------------------------------

std::shared_ptr<SketchStore> MakeWeightedStore() {
  Rng rng(91);
  SketchStoreOptions options;
  options.num_shards = 8;
  options.default_tau = 20.0;
  options.salt = 606;
  auto store = std::make_shared<SketchStore>(options);
  for (int i = 0; i < 900; ++i) {
    const uint64_t key = static_cast<uint64_t>(1 + rng.UniformInt(1200));
    store->Update(0, key, std::ceil(40.0 / (1 + rng.UniformInt(12))));
    if (i % 3 != 0) {
      store->Update(1, key, std::ceil(40.0 / (1 + rng.UniformInt(12))));
    }
  }
  return store;
}

TEST(QueryServiceAccuracyTest, MaxDominanceIntervalsAreDeterministic) {
  const auto snapshot = MakeWeightedStore()->Snapshot();
  const auto a =
      QueryService(snapshot, {/*num_threads=*/1}).MaxDominance(0, 1);
  const auto b =
      QueryService(snapshot, {/*num_threads=*/4}).MaxDominance(0, 1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(BitwiseEqual(a->ht.estimate, b->ht.estimate));
  EXPECT_TRUE(BitwiseEqual(a->l.estimate, b->l.estimate));
  EXPECT_TRUE(BitwiseEqual(a->ht.variance, b->ht.variance));
  EXPECT_TRUE(BitwiseEqual(a->l.variance, b->l.variance));
  // Error bars are well-formed and bracket the estimate.
  EXPECT_LE(a->l.lo, a->l.estimate);
  EXPECT_GE(a->l.hi, a->l.estimate);
  EXPECT_GT(a->l.std_err, 0.0);
}

TEST(QueryServiceAccuracyTest, LDominatesHtInServedErrorBars) {
  // The paper's variance ordering, visible per query: on a store of
  // unit-weight key sets the OR^(L) interval is tighter than OR^(HT)'s.
  Rng rng(17);
  SketchStoreOptions options;
  options.num_shards = 8;
  options.default_tau = 1.0 / 0.2;
  options.salt = 11;
  SketchStore store(options);
  for (uint64_t key = 1; key <= 3000; ++key) {
    store.Update(0, key, 1.0);
    if (rng.Bernoulli(0.5)) store.Update(1, key, 1.0);
    if (rng.Bernoulli(0.15)) store.Update(1, key + 3000, 1.0);
  }
  const auto est = QueryService(store.Snapshot()).DistinctUnion({0, 1});
  ASSERT_TRUE(est.ok());
  EXPECT_LT(est->l.std_err, est->ht.std_err);
  EXPECT_GT(est->l.std_err, 0.0);
}

TEST(QueryServiceAccuracyTest, VarianceOptOutKeepsPointEstimatesBitwise) {
  const auto snapshot = MakeWeightedStore()->Snapshot();
  QueryServiceOptions point_only;
  point_only.num_threads = 1;
  point_only.with_variance = false;
  const auto with = QueryService(snapshot, {/*num_threads=*/1}).MaxDominance(0, 1);
  const auto without = QueryService(snapshot, point_only).MaxDominance(0, 1);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_TRUE(BitwiseEqual(with->ht.estimate, without->ht.estimate));
  EXPECT_TRUE(BitwiseEqual(with->l.estimate, without->l.estimate));
  // The opt-out skips the second-moment pass: zero-width intervals.
  EXPECT_EQ(without->l.variance, 0.0);
  EXPECT_EQ(without->l.std_err, 0.0);
  EXPECT_EQ(without->l.lo, without->l.estimate);
  EXPECT_EQ(without->l.hi, without->l.estimate);
  EXPECT_GT(with->l.std_err, 0.0);
}

TEST(QueryServiceAccuracyTest, MaxDominanceAutoServesSelectorChoice) {
  const auto snapshot = MakeWeightedStore()->Snapshot();
  QueryServiceOptions options;
  options.num_threads = 1;
  options.quad_tol = 1e-7;  // selection probes the quadrature variance
  QueryService service(snapshot, options);
  const auto auto_est = service.MaxDominanceAuto(0, 1);
  ASSERT_TRUE(auto_est.ok()) << auto_est.status().ToString();
  EXPECT_EQ(auto_est->spec.family, Family::kL);
  const auto dual = service.MaxDominance(0, 1);
  ASSERT_TRUE(dual.ok());
  EXPECT_TRUE(BitwiseEqual(auto_est->interval.estimate, dual->l.estimate));
  EXPECT_TRUE(BitwiseEqual(auto_est->interval.variance, dual->l.variance));
}

// ---------------------------------------------------------------------------
// SelectorCache: one exact-variance ranking per threshold class
// ---------------------------------------------------------------------------

TEST(SelectorCacheTest, RepeatChoicesAreServedFromCache) {
  auto& cache = SelectorCache::Global();
  // A quad_tol no other test uses makes this threshold class fresh.
  const SamplingParams params({10.0, 8.0}, /*tol=*/3e-7);
  const auto first = cache.Choose(Function::kMax, Scheme::kPps,
                                  Regime::kKnownSeeds, params);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const auto uncached = EstimatorSelector().Select(
      Function::kMax, Scheme::kPps, Regime::kKnownSeeds, params);
  ASSERT_TRUE(uncached.ok());
  EXPECT_TRUE(*first == uncached->chosen);

  const int size_after_first = cache.size();
  const int64_t hits_before = cache.hits();
  const auto second = cache.Choose(Function::kMax, Scheme::kPps,
                                   Regime::kKnownSeeds, params);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(*second == *first);
  EXPECT_EQ(cache.size(), size_after_first);    // no new class
  EXPECT_EQ(cache.hits(), hits_before + 1);     // served without re-ranking
}

TEST(SelectorCacheTest, FailuresAreCachedToo) {
  auto& cache = SelectorCache::Global();
  // No registered family serves lth-largest over PPS.
  const SamplingParams params({10.0, 8.0, 6.0}, /*tol=*/5e-7);
  const auto first = cache.Choose(Function::kLthLargest, Scheme::kPps,
                                  Regime::kKnownSeeds, params);
  EXPECT_FALSE(first.ok());
  const int64_t hits_before = cache.hits();
  const auto second = cache.Choose(Function::kLthLargest, Scheme::kPps,
                                   Regime::kKnownSeeds, params);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(cache.hits(), hits_before + 1);
}

TEST(SelectorCacheTest, RepeatAutoQueriesDoNotReRank) {
  const auto snapshot = MakeWeightedStore()->Snapshot();
  QueryServiceOptions options;
  options.num_threads = 1;
  options.quad_tol = 1e-7;
  QueryService service(snapshot, options);
  ASSERT_TRUE(service.MaxDominanceAuto(0, 1).ok());  // class now cached
  auto& cache = SelectorCache::Global();
  const int size_before = cache.size();
  const int64_t hits_before = cache.hits();
  ASSERT_TRUE(service.MaxDominanceAuto(0, 1).ok());
  ASSERT_TRUE(service.MaxDominanceAuto(0, 1).ok());
  EXPECT_EQ(cache.size(), size_before);
  EXPECT_EQ(cache.hits(), hits_before + 2);
}

// ---------------------------------------------------------------------------
// Selector-routed offline scans
// ---------------------------------------------------------------------------

TEST(SelectedScanTest, DistinctUnionAutoMatchesChosenFamilyOfDual) {
  Rng rng(23);
  SketchStoreOptions options;
  options.num_shards = 8;
  options.default_tau = 1.0 / 0.2;
  options.salt = 77;
  SketchStore store(options);
  for (uint64_t key = 1; key <= 2500; ++key) {
    store.Update(0, key, 1.0);
    if (rng.Bernoulli(0.6)) store.Update(1, key, 1.0);
    if (rng.Bernoulli(0.1)) store.Update(1, key + 2500, 1.0);
  }
  QueryService service(store.Snapshot(), {/*num_threads=*/1});
  const auto auto_est = service.DistinctUnionAuto({0, 1});
  ASSERT_TRUE(auto_est.ok()) << auto_est.status().ToString();
  // The optimal families dominate HT (Section 4.3); the selector must not
  // pick the baseline.
  EXPECT_NE(auto_est->spec.family, Family::kHt);
  const auto dual = service.DistinctUnion({0, 1});
  ASSERT_TRUE(dual.ok());
  if (auto_est->spec.family == Family::kL) {
    EXPECT_TRUE(BitwiseEqual(auto_est->interval.estimate, dual->l.estimate));
    EXPECT_TRUE(BitwiseEqual(auto_est->interval.variance, dual->l.variance));
  }
  EXPECT_GT(auto_est->interval.std_err, 0.0);
  EXPECT_LE(auto_est->interval.std_err, dual->ht.std_err * (1.0 + 1e-12));
}

TEST(SelectedScanTest, DistinctAutoEstimateBeatsHtVariance) {
  const auto chosen = DistinctAutoEstimate(
      DistinctClassification{/*f11=*/40, /*f10=*/10, /*f01=*/12, /*f1q=*/8,
                             /*fq1=*/6},
      0.3, 0.25);
  ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
  EXPECT_NE(chosen->family, Family::kHt);
  // The chosen family's estimate for the L family must agree with the
  // hard-coded path on the same classification.
  if (chosen->family == Family::kL) {
    EXPECT_TRUE(BitwiseEqual(
        chosen->estimate,
        DistinctLEstimate(
            DistinctClassification{40, 10, 12, 8, 6}, 0.3, 0.25)));
  }
}

TEST(SelectedScanTest, OfflineMaxDominanceAutoMatchesDualL) {
  Rng rng(41);
  std::vector<WeightedItem> items1, items2;
  for (uint64_t key = 1; key <= 1500; ++key) {
    const double w = std::ceil(30.0 / (1 + rng.UniformInt(10)));
    items1.push_back({key, w});
    if (key % 3 != 0) {
      items2.push_back({key, std::ceil(30.0 / (1 + rng.UniformInt(10)))});
    }
  }
  const auto s1 = PpsInstanceSketch::Build(items1, 25.0, 1001);
  const auto s2 = PpsInstanceSketch::Build(items2, 25.0, 2002);
  const auto auto_est = EstimateMaxDominanceAuto(s1, s2);
  ASSERT_TRUE(auto_est.ok()) << auto_est.status().ToString();
  EXPECT_EQ(auto_est->spec.family, Family::kL);  // L dominates HT (Sec 5.2)
  const auto dual = EstimateMaxDominance(s1, s2);
  EXPECT_TRUE(BitwiseEqual(auto_est->estimate, dual.l));
}

// ---------------------------------------------------------------------------
// Covariance-aware L1 error bars
// ---------------------------------------------------------------------------

TEST(JointL1Test, JointIntervalNeverWiderThanConservativeBound) {
  const auto snapshot = MakeWeightedStore()->Snapshot();
  QueryService service(snapshot, {/*num_threads=*/1});
  const auto joint = service.L1Distance(0, 1);
  ASSERT_TRUE(joint.ok());
  const auto max_est = service.MaxDominance(0, 1);
  const auto min_est = service.MinDominanceHt(0, 1);
  ASSERT_TRUE(max_est.ok());
  ASSERT_TRUE(min_est.ok());
  // Same point estimate as the separate scans (tolerance: different
  // accumulation orders), strictly tighter error bars than the
  // conservative sd(X) + sd(Y) width the joint scan replaces.
  const double direct = max_est->l.estimate - min_est->estimate;
  EXPECT_NEAR(joint->estimate, direct, 1e-9 * std::fabs(direct));
  const double conservative = max_est->l.std_err + min_est->std_err;
  EXPECT_LE(joint->std_err, conservative * (1.0 + 1e-12));
  EXPECT_GT(joint->std_err, 0.0);
  // The max/min pair shares the sample, so their covariance is positive
  // on this workload and the joint bars are strictly sharper.
  EXPECT_LT(joint->std_err, conservative * 0.999);
}

TEST(JointL1Test, JointVarianceIsUnbiasedForTheDifferenceVariance) {
  // Monte Carlo at the kernel level: a fixed population, repeated
  // sampling; the joint per-trial variance estimate must average to the
  // empirical variance of the difference estimate, and every trial's
  // joint interval must respect the conservative ceiling.
  const SamplingParams params({10.0, 8.0});
  auto& engine = EstimationEngine::Global();
  auto max_l = engine.Kernel(
      {Function::kMax, Scheme::kPps, Regime::kKnownSeeds, Family::kL},
      params);
  auto min_ht = engine.Kernel(
      {Function::kMin, Scheme::kPps, Regime::kUnknownSeeds, Family::kHt},
      params);
  ASSERT_TRUE(max_l.ok());
  ASSERT_TRUE(min_ht.ok());
  const MinHtWeighted min_core({10.0, 8.0});
  const auto cross = [&min_core](const BatchView& chunk, int i, double x,
                                 double y) {
    return x * y - min_core.MaxMinProductRow(chunk.sampled_row(i),
                                             chunk.value_row(i));
  };

  std::vector<std::vector<double>> population;
  double truth = 0.0;
  for (int k = 0; k < 250; ++k) {
    const double a = 0.5 + 8.0 * std::fmod(0.618033988749895 * k, 1.0);
    const double b = a * (0.2 + 0.8 * std::fmod(0.732050807568877 * k, 1.0));
    population.push_back({a, b});
    truth += std::fabs(a - b);
  }
  Rng rng(2024);
  MomentAccumulator estimates, joint_vars;
  OutcomeBatch batch;
  for (int t = 0; t < 3000; ++t) {
    batch.Reset(Scheme::kPps, 2);
    for (const auto& values : population) {
      batch.Append(SamplePps(values, params.per_entry, rng));
    }
    DifferenceAccumulator acc;
    acc.AddBatch(**max_l, **min_ht, batch, cross);
    estimates.Add(acc.estimate());
    joint_vars.Add(acc.joint_variance());
    // The reported interval is never wider than the conservative bound.
    const IntervalEstimate interval = acc.Interval();
    EXPECT_LE(interval.variance,
              acc.conservative_variance() * (1.0 + 1e-12));
  }
  // Unbiasedness of the difference and of its joint variance estimate.
  EXPECT_NEAR(estimates.mean(), truth, 5.0 * estimates.standard_error());
  EXPECT_NEAR(joint_vars.mean(), estimates.sample_variance(),
              0.05 * estimates.sample_variance());
}

}  // namespace
}  // namespace pie
