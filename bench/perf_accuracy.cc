// Accuracy-layer microbenchmarks (google-benchmark): what do error bars
// cost, and how does the scan scale?
//
//  * BM_AccuracyScanPlain      -- point-only serving scan (EstimateSum over
//    the hot weighted max^(L) r=2 kernel);
//  * BM_AccuracyScanFused      -- the served with-variance scan: one
//    with-variance Scan pass per chunk (AccuracyAccumulator);
//  * BM_AccuracyParallelScan/N -- the deterministic multi-threaded driver
//    over a multi-megabyte batch at N worker threads (bitwise-identical
//    results across N; see engine/parallel_scan.h);
//  * BM_AccuracySelect[Cached] -- one full variance-driven family
//    selection vs the SelectorCache hit serving paths actually pay.
//
// Every timing loop is preceded by an explicit warmup pass (kernel memo,
// page-in, branch predictors), and benchmarks run kRepetitions times with
// CI extracting the best repetition -- BENCH_accuracy.json trajectories
// compare best-of-N, not first-run noise.

#include <benchmark/benchmark.h>

#include "accuracy/accumulator.h"
#include "accuracy/selector.h"
#include "engine/engine.h"
#include "engine/parallel_scan.h"
#include "store/query_service.h"
#include "util/random.h"
#include "workload/zipf.h"

namespace pie {
namespace {

constexpr int kKeys = 1 << 16;
constexpr int kParallelKeys = 1 << 20;  // large enough to feed 4+ workers
constexpr int kRepetitions = 3;         // CI reports best-of-N

/// A shard-sized PPS batch of the serving path's shape: r = 2, thresholds
/// (10, 8), skewed values, seeds drawn once.
OutcomeBatch MakeServingBatch(int keys) {
  const SamplingParams params({10.0, 8.0});
  Rng rng(2011);
  OutcomeBatch batch;
  batch.Reset(Scheme::kPps, 2);
  std::vector<double> values(2);
  for (int i = 0; i < keys; ++i) {
    values[0] = rng.UniformDouble(0, 12);
    values[1] = values[0] * rng.UniformDouble(0.2, 1.0);
    batch.Append(SamplePps(values, params.per_entry, rng));
  }
  return batch;
}

KernelHandle ServingKernel() {
  return EstimationEngine::Global()
      .Kernel({Function::kMax, Scheme::kPps, Regime::kKnownSeeds, Family::kL},
              SamplingParams({10.0, 8.0}))
      .value();
}

void BM_AccuracyScanPlain(benchmark::State& state) {
  const OutcomeBatch batch = MakeServingBatch(kKeys);
  const KernelHandle kernel = ServingKernel();
  benchmark::DoNotOptimize(EstimateSum(*kernel, batch));  // warmup
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateSum(*kernel, batch));
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_AccuracyScanPlain)->Repetitions(kRepetitions);

void BM_AccuracyScanFused(benchmark::State& state) {
  const OutcomeBatch batch = MakeServingBatch(kKeys);
  const KernelHandle kernel = ServingKernel();
  {
    AccuracyAccumulator warmup;
    warmup.AddBatch(*kernel, batch);
    benchmark::DoNotOptimize(warmup.sum());
  }
  for (auto _ : state) {
    AccuracyAccumulator acc;
    acc.AddBatch(*kernel, batch);
    benchmark::DoNotOptimize(acc.variance());
    benchmark::DoNotOptimize(acc.sum());
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_AccuracyScanFused)->Repetitions(kRepetitions);

/// The deterministic parallel driver over a large aggregate-scan batch;
/// the argument is the worker-thread count. Results are bitwise identical
/// across thread counts, so the speedup is free of determinism caveats.
void BM_AccuracyParallelScan(benchmark::State& state) {
  static const OutcomeBatch* batch =
      new OutcomeBatch(MakeServingBatch(kParallelKeys));
  const KernelHandle kernel = ServingKernel();
  ScanOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  benchmark::DoNotOptimize(
      ScanBatch(*kernel, batch->view(), options).sum);  // warmup
  for (auto _ : state) {
    const ScanPartial partial = ScanBatch(*kernel, batch->view(), options);
    benchmark::DoNotOptimize(partial.sum);
    benchmark::DoNotOptimize(partial.variance);
  }
  state.SetItemsProcessed(state.iterations() * kParallelKeys);
}
BENCHMARK(BM_AccuracyParallelScan)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Repetitions(kRepetitions)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Zipf-skewed sharded store: the shape that used to serialize a query on
// one worker. Keys are rejection-sampled so ~70% land in shard 0 and
// weights follow Zipf(1.1), correlated across the two instances; the
// QueryService scan keeps N workers busy anyway because the persistent
// WorkerPool splits the hot shard into 256-row chunk tasks instead of
// handing whole shards to threads. Results are bitwise identical across
// thread counts, so the speedup carries no determinism caveat.
// ---------------------------------------------------------------------------

constexpr int kShardedKeys = 1 << 15;

const std::shared_ptr<const StoreSnapshot>& SkewedSnapshot() {
  static const auto* snapshot = [] {
    SketchStoreOptions options;
    options.num_shards = 8;
    options.default_tau = 25.0;
    options.salt = 2011;
    SketchStore store(options);
    const ZipfGenerator zipf(1 << 14, 1.1);
    Rng rng(4242);
    int added = 0;
    while (added < kShardedKeys) {
      const uint64_t key = 1 + rng.UniformInt(1u << 22);
      if (store.ShardOf(key) != 0 && added % 10 < 7) continue;
      const double w = zipf.ValueOfRank(zipf.SampleRank(rng), 100.0);
      store.Update(0, key, w);
      store.Update(1, key, w * rng.UniformDouble(0.2, 1.0));
      ++added;
    }
    return new std::shared_ptr<const StoreSnapshot>(store.Snapshot());
  }();
  return *snapshot;
}

void BM_AccuracyShardedScan(benchmark::State& state) {
  const auto& snapshot = SkewedSnapshot();
  QueryServiceOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  const QueryService service(snapshot, options);
  benchmark::DoNotOptimize(service.MaxDominance(0, 1).ok());  // warmup
  for (auto _ : state) {
    const auto result = service.MaxDominance(0, 1);
    benchmark::DoNotOptimize(result->l.estimate);
    benchmark::DoNotOptimize(result->l.variance);
  }
  // Nominal rate: ingested keys per scan (the sampled union is a data-
  // dependent subset); constant across thread counts, so ratios between
  // the /N variants are true speedups.
  state.SetItemsProcessed(state.iterations() * kShardedKeys);
}
BENCHMARK(BM_AccuracyShardedScan)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Repetitions(kRepetitions)
    ->UseRealTime();

// Selection cost: one full variance-driven family selection for the
// serving threshold class (exact variances on the built-in profiles,
// including the max^(L) quadrature)...
void BM_AccuracySelect(benchmark::State& state) {
  const EstimatorSelector selector;
  const SamplingParams params({10.0, 8.0}, /*tol=*/1e-7);
  for (auto _ : state) {
    auto report = selector.Select(Function::kMax, Scheme::kPps,
                                  Regime::kKnownSeeds, params);
    benchmark::DoNotOptimize(report.ok());
  }
}
BENCHMARK(BM_AccuracySelect);

// ...vs the SelectorCache hit every repeat query actually pays.
void BM_AccuracySelectCached(benchmark::State& state) {
  const SamplingParams params({10.0, 8.0}, /*tol=*/1e-7);
  benchmark::DoNotOptimize(SelectorCache::Global()
                               .Choose(Function::kMax, Scheme::kPps,
                                       Regime::kKnownSeeds, params)
                               .ok());  // warmup: populate the class
  for (auto _ : state) {
    auto chosen = SelectorCache::Global().Choose(
        Function::kMax, Scheme::kPps, Regime::kKnownSeeds, params);
    benchmark::DoNotOptimize(chosen.ok());
  }
}
BENCHMARK(BM_AccuracySelectCached);

}  // namespace
}  // namespace pie

BENCHMARK_MAIN();
