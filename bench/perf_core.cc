// Engineering microbenchmarks (google-benchmark) for the core estimator
// library: per-estimate cost of the closed-form estimators and the
// coefficient recursion. These are not paper figures; they document that
// the optimal estimators are cheap enough to apply per sampled key at
// sketch-scan speed.

#include <benchmark/benchmark.h>

#include "core/max_oblivious.h"
#include "core/max_weighted.h"
#include "core/or_oblivious.h"
#include "deriver/algorithm1.h"
#include "deriver/model.h"
#include "deriver/properties.h"
#include "engine/engine.h"
#include "sampling/poisson.h"
#include "util/random.h"

namespace pie {
namespace {

void BM_MaxLTwoEstimate(benchmark::State& state) {
  const MaxLTwo est(0.3, 0.6);
  Rng rng(1);
  std::vector<ObliviousOutcome> outcomes;
  for (int i = 0; i < 1024; ++i) {
    outcomes.push_back(
        SampleOblivious({rng.UniformDouble(0, 10), rng.UniformDouble(0, 10)},
                        {0.3, 0.6}, rng));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.Estimate(outcomes[i++ & 1023]));
  }
}
BENCHMARK(BM_MaxLTwoEstimate);

void BM_MaxLUniformEstimate(benchmark::State& state) {
  const int r = static_cast<int>(state.range(0));
  const MaxLUniform est(r, 0.2);
  Rng rng(2);
  std::vector<double> values(r), probs(r, 0.2);
  for (double& v : values) v = rng.UniformDouble(0, 10);
  std::vector<ObliviousOutcome> outcomes;
  for (int i = 0; i < 256; ++i) {
    outcomes.push_back(SampleOblivious(values, probs, rng));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.Estimate(outcomes[i++ & 255]));
  }
}
BENCHMARK(BM_MaxLUniformEstimate)->Arg(2)->Arg(8)->Arg(32);

void BM_MaxLUniformCoefficients(benchmark::State& state) {
  const int r = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MaxLUniform est(r, 0.1);
    benchmark::DoNotOptimize(est.alpha().data());
  }
}
BENCHMARK(BM_MaxLUniformCoefficients)->Arg(4)->Arg(16)->Arg(64);

void BM_OrLUniformEstimateFromCounts(benchmark::State& state) {
  const OrLUniform est(16, 0.1);
  int ones = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.EstimateFromCounts(ones, 3));
    ones = ones % 13 + 1;
  }
}
BENCHMARK(BM_OrLUniformEstimateFromCounts);

void BM_MaxLWeightedEstimate(benchmark::State& state) {
  const MaxLWeightedTwo est(10.0, 8.0);
  Rng rng(3);
  std::vector<PpsOutcome> outcomes;
  for (int i = 0; i < 1024; ++i) {
    outcomes.push_back(
        SamplePps({rng.UniformDouble(0, 12), rng.UniformDouble(0, 12)},
                  {10.0, 8.0}, rng));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.Estimate(outcomes[i++ & 1023]));
  }
}
BENCHMARK(BM_MaxLWeightedEstimate);

void BM_MaxLWeightedVarianceQuadrature(benchmark::State& state) {
  const MaxLWeightedTwo est(10.0, 8.0, 1e-7);
  double v = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.Variance(v, 0.3 * v));
    v = v < 9 ? v + 0.1 : 0.5;
  }
}
BENCHMARK(BM_MaxLWeightedVarianceQuadrature);

// ---------------------------------------------------------------------------
// Batched engine vs per-call dispatch. Same estimator (uniform max^(L),
// r = 32, O(r^2) coefficient table), same outcomes; what varies is where
// the setup cost lands:
//  * PerKeyConstruct rebuilds the estimator for every key -- the pattern
//    the free-function aggregate code used (e.g. bottom-k dominance);
//  * EnginePerCall pays one memoized engine lookup (mutex + map) plus a
//    virtual Estimate per key;
//  * EngineBatch resolves the kernel once per batch and drives one
//    point-only Scan pass over the columnar slabs.
// The acceptance bar: the batch path is at least as fast per estimate as
// either per-call loop.
// ---------------------------------------------------------------------------

constexpr int kEngineBatchR = 32;
constexpr int kEngineBatchSize = 1024;

KernelSpec EngineMaxSpec() {
  KernelSpec spec;
  spec.function = Function::kMax;
  spec.scheme = Scheme::kOblivious;
  spec.family = Family::kL;
  return spec;
}

std::vector<Outcome> MakeEngineOutcomes(const SamplingParams& params) {
  Rng rng(11);
  std::vector<double> values(kEngineBatchR);
  for (double& v : values) v = rng.UniformDouble(0, 10);
  std::vector<Outcome> outcomes;
  outcomes.reserve(kEngineBatchSize);
  for (int i = 0; i < kEngineBatchSize; ++i) {
    outcomes.push_back(Outcome::FromOblivious(
        SampleOblivious(values, params.per_entry, rng)));
  }
  return outcomes;
}

OutcomeBatch MakeEngineBatch(const std::vector<Outcome>& outcomes, int r) {
  OutcomeBatch batch;
  batch.Reset(Scheme::kOblivious, r);
  for (const Outcome& outcome : outcomes) batch.Append(outcome.oblivious);
  return batch;
}

void BM_MaxLUniformPerKeyConstruct(benchmark::State& state) {
  const SamplingParams params(std::vector<double>(kEngineBatchR, 0.2));
  const std::vector<Outcome> outcomes = MakeEngineOutcomes(params);
  for (auto _ : state) {
    double sum = 0.0;
    for (const Outcome& outcome : outcomes) {
      const MaxLUniform est(kEngineBatchR, 0.2);  // O(r^2) setup per key
      sum += est.Estimate(outcome.oblivious);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kEngineBatchSize);
}
BENCHMARK(BM_MaxLUniformPerKeyConstruct);

void BM_MaxLUniformEnginePerCall(benchmark::State& state) {
  const SamplingParams params(std::vector<double>(kEngineBatchR, 0.2));
  const std::vector<Outcome> outcomes = MakeEngineOutcomes(params);
  auto& engine = EstimationEngine::Global();
  const KernelSpec spec = EngineMaxSpec();
  for (auto _ : state) {
    double sum = 0.0;
    for (const Outcome& outcome : outcomes) {
      sum += (*engine.Kernel(spec, params))->Estimate(outcome);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kEngineBatchSize);
}
BENCHMARK(BM_MaxLUniformEnginePerCall);

void BM_MaxLUniformEngineBatch(benchmark::State& state) {
  const SamplingParams params(std::vector<double>(kEngineBatchR, 0.2));
  const OutcomeBatch batch =
      MakeEngineBatch(MakeEngineOutcomes(params), kEngineBatchR);
  auto& engine = EstimationEngine::Global();
  const KernelSpec spec = EngineMaxSpec();
  std::vector<double> estimates;  // reused across iterations
  for (auto _ : state) {
    const KernelHandle kernel = engine.Kernel(spec, params).value();
    EstimateBatch(*kernel, batch, &estimates);
    benchmark::DoNotOptimize(estimates.data());
  }
  state.SetItemsProcessed(state.iterations() * kEngineBatchSize);
}
BENCHMARK(BM_MaxLUniformEngineBatch);

// ---------------------------------------------------------------------------
// Scalar vs batched r = 2 oblivious max/OR sum scan -- the columnar
// refactor's acceptance comparison. Same memoized kernels (max^(L) and
// OR^(L), r = 2), same outcomes; Scalar drives one virtual Estimate per
// key over scalar Outcome structs (the pre-columnar hot path), Batched
// drives one point-only Scan per kernel over the columnar slabs. CI's
// bench-smoke job extracts both keys/s rates and their ratio into
// BENCH_core.json (scalar_keys_per_s / batched_keys_per_s / speedup).
// ---------------------------------------------------------------------------

constexpr int kScanSize = 8192;

struct ScanFixture {
  KernelHandle max_l;
  KernelHandle or_l;
  std::vector<Outcome> max_outcomes;
  std::vector<Outcome> or_outcomes;
  OutcomeBatch max_batch;
  OutcomeBatch or_batch;
};

const ScanFixture& GetScanFixture() {
  static const ScanFixture* fixture = [] {
    auto* f = new ScanFixture();
    auto& engine = EstimationEngine::Global();
    const SamplingParams params({0.5, 0.3});
    f->max_l = engine
                   .Kernel({Function::kMax, Scheme::kOblivious,
                            Regime::kKnownSeeds, Family::kL},
                           params)
                   .value();
    f->or_l = engine
                  .Kernel({Function::kOr, Scheme::kOblivious,
                           Regime::kKnownSeeds, Family::kL},
                          params)
                  .value();
    Rng rng(17);
    f->max_batch.Reset(Scheme::kOblivious, 2);
    f->or_batch.Reset(Scheme::kOblivious, 2);
    for (int i = 0; i < kScanSize; ++i) {
      f->max_outcomes.push_back(Outcome::FromOblivious(SampleOblivious(
          {rng.UniformDouble(0, 10), rng.UniformDouble(0, 10)},
          params.per_entry, rng)));
      f->max_batch.Append(f->max_outcomes.back().oblivious);
      f->or_outcomes.push_back(Outcome::FromOblivious(SampleOblivious(
          {rng.UniformDouble() < 0.5 ? 1.0 : 0.0,
           rng.UniformDouble() < 0.5 ? 1.0 : 0.0},
          params.per_entry, rng)));
      f->or_batch.Append(f->or_outcomes.back().oblivious);
    }
    return f;
  }();
  return *fixture;
}

void BM_CoreScanR2Scalar(benchmark::State& state) {
  const ScanFixture& f = GetScanFixture();
  for (auto _ : state) {
    double sum = 0.0;
    for (const Outcome& outcome : f.max_outcomes) {
      sum += f.max_l->Estimate(outcome);
    }
    for (const Outcome& outcome : f.or_outcomes) {
      sum += f.or_l->Estimate(outcome);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 2 * kScanSize);
}
BENCHMARK(BM_CoreScanR2Scalar);

void BM_CoreScanR2Batched(benchmark::State& state) {
  const ScanFixture& f = GetScanFixture();
  for (auto _ : state) {
    const double sum = EstimateSum(*f.max_l, f.max_batch) +
                       EstimateSum(*f.or_l, f.or_batch);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 2 * kScanSize);
}
BENCHMARK(BM_CoreScanR2Batched);

// ---------------------------------------------------------------------------
// Pattern-partitioned SIMD slab scan: one point-only Scan pass over the
// weighted r = 2 max^(L) kernel -- the serving path's hot kernel, whose
// batched override partitions each 256-row block by sampling pattern and
// evaluates each bucket branch-free (auto-vectorized under PIE_SIMD; the
// same call runs the portable scalar fallback when PIE_SIMD is OFF, so
// the benchmark name reports whichever path the build selected). CI's
// bench-smoke job extracts simd_keys_per_s and simd_speedup (vs
// BM_CoreScanR2Scalar) into BENCH_core.json, and fails if this direct
// slab rate ever drops below the fused with-variance rate from
// perf_accuracy -- the estimate-only pass must stay strictly cheaper.
// ---------------------------------------------------------------------------

struct SimdScanFixture {
  KernelHandle kernel;
  std::vector<Outcome> outcomes;
  OutcomeBatch batch;
};

const SimdScanFixture& GetSimdScanFixture() {
  static const SimdScanFixture* fixture = [] {
    auto* f = new SimdScanFixture();
    const SamplingParams params({10.0, 8.0});
    f->kernel = EstimationEngine::Global()
                    .Kernel({Function::kMax, Scheme::kPps,
                             Regime::kKnownSeeds, Family::kL},
                            params)
                    .value();
    Rng rng(19);
    f->batch.Reset(Scheme::kPps, 2);
    std::vector<double> values(2);
    for (int i = 0; i < kScanSize; ++i) {
      values[0] = rng.UniformDouble(0, 12);
      values[1] = values[0] * rng.UniformDouble(0.2, 1.0);
      f->outcomes.push_back(
          Outcome::FromPps(SamplePps(values, params.per_entry, rng)));
      f->batch.Append(f->outcomes.back().pps);
    }
    return f;
  }();
  return *fixture;
}

/// Per-call baseline over the same outcomes: one virtual Estimate per key
/// (the scalar row form). simd_speedup in BENCH_core.json is
/// BM_CoreScanR2Simd / this rate -- same kernel, same data, so the ratio
/// isolates the partitioned slab path.
void BM_CoreScanR2PerKey(benchmark::State& state) {
  const SimdScanFixture& f = GetSimdScanFixture();
  for (auto _ : state) {
    double sum = 0.0;
    for (const Outcome& outcome : f.outcomes) {
      sum += f.kernel->Estimate(outcome);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kScanSize);
}
BENCHMARK(BM_CoreScanR2PerKey);

void BM_CoreScanR2Simd(benchmark::State& state) {
  const SimdScanFixture& f = GetSimdScanFixture();
  benchmark::DoNotOptimize(EstimateSum(*f.kernel, f.batch));  // warmup
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateSum(*f.kernel, f.batch));
  }
  state.SetItemsProcessed(state.iterations() * kScanSize);
}
BENCHMARK(BM_CoreScanR2Simd);

// ---------------------------------------------------------------------------
// Log-heavy weighted max^(L) slab scan: every row is constructed to land in
// the eq. 29/30 log regimes of MaxLWeightedTwo (values strictly inside
// (0, tau) on both entries, both sampled), so the scan rate is dominated by
// the per-lane logarithm -- std::log in the default tree, FastLog under
// -DPIE_FAST_LOG=ON. CI's bench-smoke job runs this benchmark in both trees
// and extracts fastlog_keys_per_s and fastlog_speedup (fast-log rate over
// the default tree's rate) into BENCH_core.json, gating the tier at >= 1.2x.
// ---------------------------------------------------------------------------

const SimdScanFixture& GetLogHeavyScanFixture() {
  static const SimdScanFixture* fixture = [] {
    auto* f = new SimdScanFixture();
    const SamplingParams params({10.0, 8.0});
    f->kernel = EstimationEngine::Global()
                    .Kernel({Function::kMax, Scheme::kPps,
                             Regime::kKnownSeeds, Family::kL},
                            params)
                    .value();
    Rng rng(23);
    f->batch.Reset(Scheme::kPps, 2);
    std::vector<double> values(2);
    for (int i = 0; i < kScanSize; ++i) {
      // hi = v0 < 9.9 < tau_hi and lo = v1 < 0.8 * v0 < 7.92 < tau_lo, so
      // every both-sampled outcome sits strictly inside the log regimes
      // (~80% eq. 29, ~20% eq. 30). Rejection-sample until both entries
      // are in the sample; unsampled patterns would short-circuit the log.
      PpsOutcome outcome;
      do {
        values[0] = rng.UniformDouble(0.5, 9.9);
        values[1] = values[0] * rng.UniformDouble(0.1, 0.8);
        outcome = SamplePps(values, params.per_entry, rng);
      } while (outcome.sampled[0] == 0 || outcome.sampled[1] == 0);
      f->outcomes.push_back(Outcome::FromPps(std::move(outcome)));
      f->batch.Append(f->outcomes.back().pps);
    }
    return f;
  }();
  return *fixture;
}

void BM_CoreScanMaxLWeightedLogHeavy(benchmark::State& state) {
  const SimdScanFixture& f = GetLogHeavyScanFixture();
  benchmark::DoNotOptimize(EstimateSum(*f.kernel, f.batch));  // warmup
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateSum(*f.kernel, f.batch));
  }
  state.SetItemsProcessed(state.iterations() * kScanSize);
}
BENCHMARK(BM_CoreScanMaxLWeightedLogHeavy);

void BM_DeriverCompileBinaryR3(benchmark::State& state) {
  for (auto _ : state) {
    auto compiled = CompileModel(MakeObliviousModel<double>(
        {{0, 1}, {0, 1}, {0, 1}}, {0.5, 0.25, 0.75}, true, OrS<double>));
    benchmark::DoNotOptimize(compiled.num_outcomes);
  }
}
BENCHMARK(BM_DeriverCompileBinaryR3);

void BM_DeriverOrderBasedBinaryR3(benchmark::State& state) {
  auto compiled = CompileModel(MakeObliviousModel<double>(
      {{0, 1}, {0, 1}, {0, 1}}, {0.5, 0.25, 0.75}, true, OrS<double>));
  auto order = OrderByKey(compiled, [](const std::vector<int>& v) {
    int zeros = 0;
    for (int x : v) zeros += x == 0 ? 1 : 0;
    return zeros == static_cast<int>(v.size()) ? -1 : zeros;
  });
  for (auto _ : state) {
    auto table = DeriveOrderBased(compiled, order);
    benchmark::DoNotOptimize(table.ok());
  }
}
BENCHMARK(BM_DeriverOrderBasedBinaryR3);

void BM_DeriverExistenceLp(benchmark::State& state) {
  auto compiled = CompileModel(MakeWeightedBinaryModel<double>(
      {0.25, 0.25, 0.5}, false, OrS<double>));
  for (auto _ : state) {
    auto witness = ExistsUnbiasedNonnegative(compiled);
    benchmark::DoNotOptimize(witness.ok());
  }
}
BENCHMARK(BM_DeriverExistenceLp);

}  // namespace
}  // namespace pie

BENCHMARK_MAIN();
