#include "store/query_service.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "core/min_weighted.h"
#include "engine/worker_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace pie {
namespace {

KernelSpec MaxPpsSpec(Family family) {
  return {Function::kMax, Scheme::kPps, Regime::kKnownSeeds, family};
}

KernelSpec OrPpsSpec(Family family) {
  return {Function::kOr, Scheme::kPps, Regime::kKnownSeeds, family};
}

/// One pie_query_seconds{query=...} series per public aggregate. Callers
/// hold the reference in a function-local static so repeat queries never
/// touch the registry.
obs::Histogram& QueryHistogram(const char* query) {
  return obs::MetricsRegistry::Global().GetHistogram(
      "pie_query_seconds", "Wall time per aggregate query, by query type",
      obs::LatencyBuckets(), {{"query", query}});
}

/// Records the relative width (hi - lo) / |estimate| of every served
/// interval; zero estimates are skipped (the ratio is undefined there).
void ObserveCiWidth(const IntervalEstimate& interval) {
  static obs::Histogram& widths = obs::MetricsRegistry::Global().GetHistogram(
      "pie_ci_relative_width",
      "Relative width (hi - lo) / |estimate| of served confidence intervals",
      obs::RelativeWidthBuckets());
  if (interval.estimate != 0.0) {
    widths.Observe((interval.hi - interval.lo) /
                   std::abs(interval.estimate));
  }
}

/// The aggregates' kernels assume independent seeds across instances. On
/// a coordinated store (one shared salt, Section 7.2) they are biased --
/// max^(HT) and min^(HT) roughly double, and the L1 difference can go
/// negative -- so those stores get an error instead of an answer.
Status RequireIndependentSeeds(const StoreSnapshot& snapshot) {
  if (!snapshot.options().coordinated) return Status::OK();
  return Status::FailedPrecondition(
      "multi-instance aggregates need independent per-instance seeds; this "
      "store is coordinated (shared seed salt)");
}

/// Instrumentation of the degraded path (registry lookups are fine here:
/// answering from a partial store is the rare case, not the hot path).
void NoteDegradedQuery(const char* query, double coverage) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("pie_degraded_queries_total",
                 "Aggregate queries answered from a degraded (partial-"
                 "coverage) snapshot, by query type",
                 {{"query", query}})
      .Increment();
  reg.GetGauge("pie_degraded_coverage",
               "Shard coverage fraction of the last degraded answer")
      .Set(coverage);
}

}  // namespace

QueryService::QueryService(std::shared_ptr<const StoreSnapshot> snapshot,
                           QueryServiceOptions options)
    : snapshot_(std::move(snapshot)), options_(options) {
  PIE_CHECK(snapshot_ != nullptr);
  PIE_CHECK(options_.num_threads >= 0);
}

QueryService QueryService::Borrowed(const StoreSnapshot& snapshot,
                                    QueryServiceOptions options) {
  return QueryService(
      std::shared_ptr<const StoreSnapshot>(&snapshot,
                                           [](const StoreSnapshot*) {}),
      options);
}

int QueryService::ScanThreads() const {
  return ResolveParallelism(options_.num_threads);
}

void QueryService::ForEachShard(const std::function<void(int)>& fn) const {
  // The shard fan-out and the within-shard chunk splits share the one
  // persistent pool, so a skewed store cannot oversubscribe: workers that
  // finish small shards early pick up chunk indices of the hot shard's
  // nested scan instead of idling.
  WorkerPool::Global().ParallelFor(snapshot_->num_shards(), ScanThreads(),
                                   fn);
}

IntervalEstimate QueryService::DegradeInterval(
    const std::vector<double>& est, const std::vector<double>& var) const {
  const int num_shards = snapshot_->num_shards();
  int m = 0;
  double est_sum = 0.0;
  double var_sum = 0.0;
  for (int s = 0; s < num_shards; ++s) {
    if (snapshot_->ShardAbsent(s)) continue;
    ++m;
    est_sum += est[static_cast<size_t>(s)];
    var_sum += var[static_cast<size_t>(s)];
  }
  // m >= 1 always: degraded recovery refuses a generation without at
  // least one verified shard (persist/checkpoint.cc).
  const double c = static_cast<double>(m) / static_cast<double>(num_shards);
  double variance = 0.0;
  if (options_.with_variance) {
    variance = var_sum / (c * c);
    if (m > 1 && m < num_shards) {
      const double mean = est_sum / static_cast<double>(m);
      double ss = 0.0;
      for (int s = 0; s < num_shards; ++s) {
        if (snapshot_->ShardAbsent(s)) continue;
        const double d = est[static_cast<size_t>(s)] - mean;
        ss += d * d;
      }
      variance += static_cast<double>(num_shards) *
                  static_cast<double>(num_shards - m) *
                  (ss / static_cast<double>(m - 1)) / static_cast<double>(m);
    }
  }
  IntervalEstimate out = MakeInterval(est_sum / c, variance, options_.ci);
  out.coverage = c;
  return out;
}

IntervalEstimate QueryService::DegradeFromPartials(
    const std::vector<std::vector<AccuracyAccumulator>>& partials,
    size_t k) const {
  std::vector<double> est;
  std::vector<double> var;
  est.reserve(partials.size());
  var.reserve(partials.size());
  for (const auto& shard : partials) {
    est.push_back(shard[k].sum());
    var.push_back(shard[k].variance());
  }
  return DegradeInterval(est, var);
}

namespace {

/// The fill target of every per-shard scan on this thread, reused so a
/// steady query stream allocates no slabs. Safe because a thread never
/// starts a second fill while its first batch is live: the fill and its
/// kernel scans run inside one WorkerPool index, and WorkerPool::Run
/// drains only its own job -- a nested ParallelFor never runs another
/// shard's fill on the waiting thread, and pool workers only pick up new
/// jobs from their idle loop. Helpers of the nested chunk scan read this
/// thread's batch; they never write it.
OutcomeBatch& ScratchBatch() {
  thread_local OutcomeBatch batch;
  return batch;
}

/// Fills one shard's r=2 PPS union batch: one row per key sampled in
/// either instance, s1's keys in arrival order, then s2's keys not in s1,
/// in arrival order. Shared by the max-pair and joint L1 scans so both
/// see identical rows. Each row probes only the index whose answer it
/// does not already know: an s1 row reads its own weight and probes s2,
/// an s2 row probes s1 once (a hit means the row was already written).
void FillPairBatch(const StreamingPpsSketch* s1, const StreamingPpsSketch* s2,
                   double tau1, double tau2, const SeedFunction& seed1,
                   const SeedFunction& seed2, OutcomeBatch* batch) {
  batch->Reset(Scheme::kPps, 2);
  auto add_row = [&](uint64_t key, bool in1, double v1, bool in2,
                     double v2) {
    const int i = batch->AppendRow();
    double* tau = batch->param_row(i);
    tau[0] = tau1;
    tau[1] = tau2;
    double* seed = batch->seed_row(i);
    seed[0] = seed1(key);
    seed[1] = seed2(key);
    uint8_t* sampled = batch->sampled_row(i);
    sampled[0] = in1 ? 1 : 0;
    sampled[1] = in2 ? 1 : 0;
    double* value = batch->value_row(i);
    value[0] = v1;
    value[1] = v2;
  };
  if (s1 != nullptr) {
    for (const auto& e : s1->entries()) {
      double v2 = 0.0;
      const bool in2 = s2 != nullptr && s2->Lookup(e.key, &v2);
      add_row(e.key, true, e.weight, in2, v2);
    }
  }
  if (s2 != nullptr) {
    for (const auto& e : s2->entries()) {
      if (s1 != nullptr && s1->Lookup(e.key, nullptr)) continue;
      add_row(e.key, false, 0.0, true, e.weight);
    }
  }
}

}  // namespace

void QueryService::ScanMaxPair(
    int i1, int i2, const std::vector<const EstimatorKernel*>& kernels,
    std::vector<AccuracyAccumulator>* totals,
    std::vector<std::vector<AccuracyAccumulator>>* shard_partials) const {
  obs::ScopedSpan span("scan/max_pair");
  const double tau1 = snapshot_->TauFor(i1);
  const double tau2 = snapshot_->TauFor(i2);
  const SeedFunction seed1(snapshot_->InstanceSalt(i1));
  const SeedFunction seed2(snapshot_->InstanceSalt(i2));
  const int num_shards = snapshot_->num_shards();
  const size_t num_kernels = kernels.size();
  std::vector<std::vector<AccuracyAccumulator>> partial(
      static_cast<size_t>(num_shards),
      std::vector<AccuracyAccumulator>(num_kernels));
  // Idle pool workers split each shard's chunked scan (a hot shard of a
  // skewed store no longer serializes the query); results are unchanged
  // for any value (the chunked driver is thread-count invariant).
  const int scan_threads = ScanThreads();
  ForEachShard([&](int s) {
    const ShardSnapshot& shard = snapshot_->Shard(s);
    OutcomeBatch& batch = ScratchBatch();
    FillPairBatch(shard.Instance(i1), shard.Instance(i2), tau1, tau2, seed1,
                  seed2, &batch);
    for (size_t k = 0; k < num_kernels; ++k) {
      AccuracyAccumulator& acc = partial[static_cast<size_t>(s)][k];
      if (options_.with_variance) {
        acc.AddBatch(*kernels[k], batch, scan_threads);
      } else {
        acc.AddBatchEstimateOnly(*kernels[k], batch, scan_threads);
      }
    }
  });
  totals->assign(num_kernels, AccuracyAccumulator());
  for (int s = 0; s < num_shards; ++s) {
    for (size_t k = 0; k < num_kernels; ++k) {
      (*totals)[k].Merge(partial[static_cast<size_t>(s)][k]);
    }
  }
  if (shard_partials != nullptr) *shard_partials = std::move(partial);
}

Result<DualInterval> QueryService::MaxDominance(int i1, int i2) const {
  PIE_RETURN_IF_ERROR(RequireIndependentSeeds(*snapshot_));
  static obs::Histogram& latency = QueryHistogram("max_dominance");
  obs::ScopedTimer timer(latency);
  obs::ScopedSpan span("query/max_dominance");
  const SamplingParams params({snapshot_->TauFor(i1), snapshot_->TauFor(i2)},
                              options_.quad_tol);
  auto& engine = EstimationEngine::Global();
  auto ht = engine.Kernel(MaxPpsSpec(Family::kHt), params);
  auto l = engine.Kernel(MaxPpsSpec(Family::kL), params);
  PIE_RETURN_IF_ERROR(ht.status());
  PIE_RETURN_IF_ERROR(l.status());

  const bool degraded = snapshot_->absent_shards() > 0;
  std::vector<AccuracyAccumulator> totals;
  std::vector<std::vector<AccuracyAccumulator>> partials;
  ScanMaxPair(i1, i2, {ht->get(), l->get()}, &totals,
              degraded ? &partials : nullptr);
  DualInterval out;
  if (degraded) {
    out.ht = DegradeFromPartials(partials, 0);
    out.l = DegradeFromPartials(partials, 1);
    NoteDegradedQuery("max_dominance", out.ht.coverage);
  } else {
    out.ht = totals[0].Interval(options_.ci);
    out.l = totals[1].Interval(options_.ci);
  }
  ObserveCiWidth(out.ht);
  ObserveCiWidth(out.l);
  return out;
}

Result<SelectedEstimate> QueryService::MaxDominanceAuto(int i1, int i2) const {
  PIE_RETURN_IF_ERROR(RequireIndependentSeeds(*snapshot_));
  static obs::Histogram& latency = QueryHistogram("max_dominance_auto");
  obs::ScopedTimer timer(latency);
  obs::ScopedSpan span("query/max_dominance_auto");
  const SamplingParams params({snapshot_->TauFor(i1), snapshot_->TauFor(i2)},
                              options_.quad_tol);
  // One exact-variance ranking per threshold class, ever: repeat queries
  // against the same (tau1, tau2, quad_tol) class serve the cached spec.
  auto chosen = SelectorCache::Global().Choose(
      Function::kMax, Scheme::kPps, Regime::kKnownSeeds, params);
  PIE_RETURN_IF_ERROR(chosen.status());
  auto kernel = EstimationEngine::Global().Kernel(*chosen, params);
  PIE_RETURN_IF_ERROR(kernel.status());

  const bool degraded = snapshot_->absent_shards() > 0;
  std::vector<AccuracyAccumulator> totals;
  std::vector<std::vector<AccuracyAccumulator>> partials;
  ScanMaxPair(i1, i2, {kernel->get()}, &totals,
              degraded ? &partials : nullptr);
  SelectedEstimate out;
  out.spec = *chosen;
  if (degraded) {
    out.interval = DegradeFromPartials(partials, 0);
    NoteDegradedQuery("max_dominance_auto", out.interval.coverage);
  } else {
    out.interval = totals[0].Interval(options_.ci);
  }
  ObserveCiWidth(out.interval);
  return out;
}

Result<IntervalEstimate> QueryService::MinDominanceHt(int i1, int i2) const {
  PIE_RETURN_IF_ERROR(RequireIndependentSeeds(*snapshot_));
  static obs::Histogram& latency = QueryHistogram("min_dominance_ht");
  obs::ScopedTimer timer(latency);
  obs::ScopedSpan span("query/min_dominance_ht");
  const double tau1 = snapshot_->TauFor(i1);
  const double tau2 = snapshot_->TauFor(i2);
  auto min_ht = EstimationEngine::Global().Kernel(
      {Function::kMin, Scheme::kPps, Regime::kUnknownSeeds, Family::kHt},
      SamplingParams({tau1, tau2}, options_.quad_tol));
  PIE_RETURN_IF_ERROR(min_ht.status());

  obs::ScopedSpan scan_span("scan/min_ht");
  const int num_shards = snapshot_->num_shards();
  std::vector<AccuracyAccumulator> partial(static_cast<size_t>(num_shards));
  const int scan_threads = ScanThreads();
  ForEachShard([&](int s) {
    const ShardSnapshot& shard = snapshot_->Shard(s);
    const StreamingPpsSketch* s1 = shard.Instance(i1);
    const StreamingPpsSketch* s2 = shard.Instance(i2);
    if (s1 == nullptr || s2 == nullptr) return;
    // min^(HT) needs both entries; the unknown-seeds kernel never reads
    // the seed slab, which stays zeroed for interface parity.
    OutcomeBatch& batch = ScratchBatch();
    batch.Reset(Scheme::kPps, 2);
    for (const auto& e : s1->entries()) {
      double v2 = 0.0;
      if (!s2->Lookup(e.key, &v2)) continue;
      const int i = batch.AppendRow();
      double* tau = batch.param_row(i);
      tau[0] = tau1;
      tau[1] = tau2;
      double* seed = batch.seed_row(i);
      seed[0] = seed[1] = 0.0;
      uint8_t* sampled = batch.sampled_row(i);
      sampled[0] = sampled[1] = 1;
      double* value = batch.value_row(i);
      value[0] = e.weight;
      value[1] = v2;
    }
    AccuracyAccumulator& acc = partial[static_cast<size_t>(s)];
    if (options_.with_variance) {
      acc.AddBatch(**min_ht, batch, scan_threads);
    } else {
      acc.AddBatchEstimateOnly(**min_ht, batch, scan_threads);
    }
  });

  IntervalEstimate interval;
  if (snapshot_->absent_shards() > 0) {
    std::vector<double> est;
    std::vector<double> var;
    est.reserve(partial.size());
    var.reserve(partial.size());
    for (const auto& p : partial) {
      est.push_back(p.sum());
      var.push_back(p.variance());
    }
    interval = DegradeInterval(est, var);
    NoteDegradedQuery("min_dominance_ht", interval.coverage);
  } else {
    AccuracyAccumulator total;
    for (const auto& p : partial) total.Merge(p);
    interval = total.Interval(options_.ci);
  }
  ObserveCiWidth(interval);
  return interval;
}

Result<IntervalEstimate> QueryService::L1Distance(int i1, int i2) const {
  PIE_RETURN_IF_ERROR(RequireIndependentSeeds(*snapshot_));
  static obs::Histogram& latency = QueryHistogram("l1_distance");
  obs::ScopedTimer timer(latency);
  obs::ScopedSpan span("query/l1_distance");
  const double tau1 = snapshot_->TauFor(i1);
  const double tau2 = snapshot_->TauFor(i2);
  const SamplingParams params({tau1, tau2}, options_.quad_tol);
  auto& engine = EstimationEngine::Global();
  auto max_l = engine.Kernel(MaxPpsSpec(Family::kL), params);
  PIE_RETURN_IF_ERROR(max_l.status());
  auto min_ht = engine.Kernel(
      {Function::kMin, Scheme::kPps, Regime::kUnknownSeeds, Family::kHt},
      params);
  PIE_RETURN_IF_ERROR(min_ht.status());

  // Joint scan: both estimators read each key's ONE shared outcome from
  // the same union batch, so the per-key covariance is estimable exactly:
  //   Cov-hat = X(o) Y(o) - max*min/p_all on the all-sampled event
  // (MaxMinProductRow; X Y is unbiased for E[XY] trivially, the product
  // term for max(v) min(v)). Keys missing an entry contribute Y = 0 and
  // product-hat = 0, so the cross term costs nothing on sparse rows.
  const MinHtWeighted min_core({tau1, tau2});
  const auto cross = [&min_core](const BatchView& chunk, int i, double x,
                                 double y) {
    return x * y -
           min_core.MaxMinProductRow(chunk.sampled_row(i),
                                     chunk.value_row(i));
  };
  const SeedFunction seed1(snapshot_->InstanceSalt(i1));
  const SeedFunction seed2(snapshot_->InstanceSalt(i2));
  obs::ScopedSpan scan_span("scan/l1_joint");
  const int num_shards = snapshot_->num_shards();
  std::vector<DifferenceAccumulator> partial(
      static_cast<size_t>(num_shards));
  ForEachShard([&](int s) {
    const ShardSnapshot& shard = snapshot_->Shard(s);
    OutcomeBatch& batch = ScratchBatch();
    FillPairBatch(shard.Instance(i1), shard.Instance(i2), tau1, tau2, seed1,
                  seed2, &batch);
    partial[static_cast<size_t>(s)].AddBatch(**max_l, **min_ht, batch, cross,
                                             options_.with_variance);
  });
  IntervalEstimate interval;
  if (snapshot_->absent_shards() > 0) {
    // Per-shard variance uses the same joint-clamped-to-conservative rule
    // as DifferenceAccumulator::Interval, applied shard-wise.
    std::vector<double> est;
    std::vector<double> var;
    est.reserve(partial.size());
    var.reserve(partial.size());
    for (const auto& p : partial) {
      est.push_back(p.estimate());
      const double joint = p.joint_variance();
      const double ceiling = p.conservative_variance();
      var.push_back(std::max(0.0, std::min(joint, ceiling)));
    }
    interval = DegradeInterval(est, var);
    NoteDegradedQuery("l1_distance", interval.coverage);
  } else {
    DifferenceAccumulator total;
    for (const auto& p : partial) total.Merge(p);
    interval = total.Interval(options_.ci);
  }
  ObserveCiWidth(interval);
  return interval;
}

Status QueryService::ScanOrUnion(
    const std::vector<int>& instances,
    const std::vector<const EstimatorKernel*>& kernels,
    std::vector<AccuracyAccumulator>* totals,
    std::vector<std::vector<AccuracyAccumulator>>* shard_partials) const {
  obs::ScopedSpan span("scan/or_union");
  const int r = static_cast<int>(instances.size());
  std::vector<double> taus;
  taus.reserve(instances.size());
  for (int instance : instances) taus.push_back(snapshot_->TauFor(instance));

  std::vector<SeedFunction> seeds;
  seeds.reserve(instances.size());
  for (int instance : instances) {
    seeds.emplace_back(snapshot_->InstanceSalt(instance));
  }
  const int num_shards = snapshot_->num_shards();
  const size_t num_kernels = kernels.size();
  std::vector<std::vector<AccuracyAccumulator>> partial(
      static_cast<size_t>(num_shards),
      std::vector<AccuracyAccumulator>(num_kernels));
  std::atomic<bool> non_unit_weight{false};
  const int scan_threads = ScanThreads();
  ForEachShard([&](int s) {
    const ShardSnapshot& shard = snapshot_->Shard(s);
    std::vector<const StreamingPpsSketch*> sketches(static_cast<size_t>(r));
    for (int j = 0; j < r; ++j) {
      sketches[static_cast<size_t>(j)] = shard.Instance(instances[j]);
    }
    OutcomeBatch& batch = ScratchBatch();
    batch.Reset(Scheme::kPps, r);
    // Instance j contributes the keys no earlier instance covers, in its
    // arrival order, so the union is scanned exactly once per key. A row
    // of instance j probes only instances > j: the probes of instances
    // < j just came back absent, and j itself holds the key.
    for (int j = 0; j < r; ++j) {
      const StreamingPpsSketch* sj = sketches[static_cast<size_t>(j)];
      if (sj == nullptr) continue;
      for (const auto& e : sj->entries()) {
        if (e.weight != 1.0) {
          non_unit_weight.store(true, std::memory_order_relaxed);
          return;
        }
        bool covered = false;
        for (int j2 = 0; j2 < j && !covered; ++j2) {
          const StreamingPpsSketch* prev = sketches[static_cast<size_t>(j2)];
          covered = prev != nullptr && prev->Lookup(e.key, nullptr);
        }
        if (covered) continue;
        const int i = batch.AppendRow();
        double* tau = batch.param_row(i);
        double* seed = batch.seed_row(i);
        uint8_t* sampled = batch.sampled_row(i);
        double* value = batch.value_row(i);
        for (int j2 = 0; j2 < r; ++j2) {
          tau[j2] = taus[static_cast<size_t>(j2)];
          seed[j2] = seeds[static_cast<size_t>(j2)](e.key);
          const StreamingPpsSketch* other = sketches[static_cast<size_t>(j2)];
          const bool in = j2 == j || (j2 > j && other != nullptr &&
                                      other->Lookup(e.key, nullptr));
          sampled[j2] = in ? 1 : 0;
          value[j2] = in ? 1.0 : 0.0;
        }
      }
    }
    for (size_t k = 0; k < num_kernels; ++k) {
      AccuracyAccumulator& acc = partial[static_cast<size_t>(s)][k];
      if (options_.with_variance) {
        acc.AddBatch(*kernels[k], batch, scan_threads);
      } else {
        acc.AddBatchEstimateOnly(*kernels[k], batch, scan_threads);
      }
    }
  });
  if (non_unit_weight.load()) {
    return Status::InvalidArgument(
        "distinct union requires unit-weight ingestion (set semantics)");
  }

  totals->assign(num_kernels, AccuracyAccumulator());
  for (int s = 0; s < num_shards; ++s) {
    for (size_t k = 0; k < num_kernels; ++k) {
      (*totals)[k].Merge(partial[static_cast<size_t>(s)][k]);
    }
  }
  if (shard_partials != nullptr) *shard_partials = std::move(partial);
  return Status::OK();
}

Result<DualInterval> QueryService::DistinctUnion(
    const std::vector<int>& instances) const {
  PIE_RETURN_IF_ERROR(RequireIndependentSeeds(*snapshot_));
  if (instances.size() < 2) {
    return Status::InvalidArgument("distinct union needs >= 2 instances");
  }
  static obs::Histogram& latency = QueryHistogram("distinct_union");
  obs::ScopedTimer timer(latency);
  obs::ScopedSpan span("query/distinct_union");
  std::vector<double> taus;
  taus.reserve(instances.size());
  for (int instance : instances) taus.push_back(snapshot_->TauFor(instance));
  const SamplingParams params(taus, options_.quad_tol);
  auto& engine = EstimationEngine::Global();
  auto ht = engine.Kernel(OrPpsSpec(Family::kHt), params);
  auto l = engine.Kernel(OrPpsSpec(Family::kL), params);
  PIE_RETURN_IF_ERROR(ht.status());
  PIE_RETURN_IF_ERROR(l.status());

  const bool degraded = snapshot_->absent_shards() > 0;
  std::vector<AccuracyAccumulator> totals;
  std::vector<std::vector<AccuracyAccumulator>> partials;
  PIE_RETURN_IF_ERROR(ScanOrUnion(instances, {ht->get(), l->get()}, &totals,
                                  degraded ? &partials : nullptr));
  DualInterval out;
  if (degraded) {
    out.ht = DegradeFromPartials(partials, 0);
    out.l = DegradeFromPartials(partials, 1);
    NoteDegradedQuery("distinct_union", out.ht.coverage);
  } else {
    out.ht = totals[0].Interval(options_.ci);
    out.l = totals[1].Interval(options_.ci);
  }
  ObserveCiWidth(out.ht);
  ObserveCiWidth(out.l);
  return out;
}

Result<SelectedEstimate> QueryService::DistinctUnionAuto(
    const std::vector<int>& instances) const {
  PIE_RETURN_IF_ERROR(RequireIndependentSeeds(*snapshot_));
  if (instances.size() < 2) {
    return Status::InvalidArgument("distinct union needs >= 2 instances");
  }
  static obs::Histogram& latency = QueryHistogram("distinct_union_auto");
  obs::ScopedTimer timer(latency);
  obs::ScopedSpan span("query/distinct_union_auto");
  std::vector<double> taus;
  taus.reserve(instances.size());
  for (int instance : instances) taus.push_back(snapshot_->TauFor(instance));
  const SamplingParams params(taus, options_.quad_tol);
  // The cached selector naturally restricts to admissible families: e.g.
  // OR^(U) competes at r = 2 but is excluded for wider unions where only
  // HT and the Theorem 4.2 L recursion have constructions.
  auto chosen = SelectorCache::Global().Choose(
      Function::kOr, Scheme::kPps, Regime::kKnownSeeds, params);
  PIE_RETURN_IF_ERROR(chosen.status());
  auto kernel = EstimationEngine::Global().Kernel(*chosen, params);
  PIE_RETURN_IF_ERROR(kernel.status());

  const bool degraded = snapshot_->absent_shards() > 0;
  std::vector<AccuracyAccumulator> totals;
  std::vector<std::vector<AccuracyAccumulator>> partials;
  PIE_RETURN_IF_ERROR(ScanOrUnion(instances, {kernel->get()}, &totals,
                                  degraded ? &partials : nullptr));
  SelectedEstimate out;
  out.spec = *chosen;
  if (degraded) {
    out.interval = DegradeFromPartials(partials, 0);
    NoteDegradedQuery("distinct_union_auto", out.interval.coverage);
  } else {
    out.interval = totals[0].Interval(options_.ci);
  }
  ObserveCiWidth(out.interval);
  return out;
}

}  // namespace pie
