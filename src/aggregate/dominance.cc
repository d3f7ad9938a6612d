#include "aggregate/dominance.h"

#include <cmath>
#include <map>

#include "store/query_service.h"
#include "util/check.h"

namespace pie {

using aggregate_internal::AcceptAllKeys;

MaxDominanceEstimates EstimateMaxDominance(const PpsInstanceSketch& s1,
                                           const PpsInstanceSketch& s2) {
  return EstimateMaxDominance(s1, s2, AcceptAllKeys{});
}

MaxDominanceEstimates EstimateMaxDominance(
    const PpsInstanceSketch& s1, const PpsInstanceSketch& s2,
    const std::function<bool(uint64_t)>& pred) {
  if (!pred) return EstimateMaxDominance(s1, s2, AcceptAllKeys{});
  return EstimateMaxDominance(
      s1, s2, [&pred](uint64_t key) { return pred(key); });
}

double EstimateMinDominanceHt(const PpsInstanceSketch& s1,
                              const PpsInstanceSketch& s2) {
  return EstimateMinDominanceHt(s1, s2, AcceptAllKeys{});
}

double EstimateMinDominanceHt(const PpsInstanceSketch& s1,
                              const PpsInstanceSketch& s2,
                              const std::function<bool(uint64_t)>& pred) {
  if (!pred) return EstimateMinDominanceHt(s1, s2, AcceptAllKeys{});
  return EstimateMinDominanceHt(
      s1, s2, [&pred](uint64_t key) { return pred(key); });
}

double EstimateL1Distance(const PpsInstanceSketch& s1,
                          const PpsInstanceSketch& s2) {
  const MaxDominanceEstimates max_est = EstimateMaxDominance(s1, s2);
  return max_est.l - EstimateMinDominanceHt(s1, s2);
}

Result<SelectedMaxDominance> EstimateMaxDominanceAuto(
    const PpsInstanceSketch& s1, const PpsInstanceSketch& s2) {
  const SamplingParams params({s1.tau(), s2.tau()});
  auto chosen = SelectorCache::Global().Choose(
      Function::kMax, Scheme::kPps, Regime::kKnownSeeds, params);
  PIE_RETURN_IF_ERROR(chosen.status());
  auto kernel = EstimationEngine::Global().Kernel(*chosen, params);
  PIE_RETURN_IF_ERROR(kernel.status());

  OutcomeBatch batch;
  batch.Reset(Scheme::kPps, 2);
  aggregate_internal::ForEachSampledKey(
      s1, s2, aggregate_internal::AcceptAllKeys{},
      [&](uint64_t key) { AppendPairOutcome(s1, s2, key, &batch); });
  SelectedMaxDominance out;
  out.spec = *chosen;
  out.estimate = EstimateSum(**kernel, batch);
  return out;
}

namespace {

// Point-only bridge options: the borrowed synchronous scan additionally
// skips the second-moment pass (these wrappers discard the error bars).
QueryServiceOptions PointOnlyOptions() {
  QueryServiceOptions options;
  options.with_variance = false;
  return options;
}

}  // namespace

MaxDominanceEstimates EstimateMaxDominance(const StoreSnapshot& snapshot,
                                           int i1, int i2) {
  const auto est =
      QueryService::Borrowed(snapshot, PointOnlyOptions()).MaxDominance(i1, i2);
  PIE_CHECK_OK(est.status());
  return {est->ht.estimate, est->l.estimate};
}

double EstimateL1Distance(const StoreSnapshot& snapshot, int i1, int i2) {
  const auto est =
      QueryService::Borrowed(snapshot, PointOnlyOptions()).L1Distance(i1, i2);
  PIE_CHECK_OK(est.status());
  return est->estimate;
}

MaxDominanceVariance AnalyticMaxDominanceVariance(
    const MultiInstanceData& data, double tau1, double tau2,
    double quad_tol) {
  PIE_CHECK(data.num_instances() == 2);
  auto& engine = EstimationEngine::Global();
  const SamplingParams params({tau1, tau2}, quad_tol);
  const KernelSpec ht_spec{Function::kMax, Scheme::kPps,
                           Regime::kKnownSeeds, Family::kHt};
  const KernelSpec l_spec{Function::kMax, Scheme::kPps, Regime::kKnownSeeds,
                          Family::kL};
  auto ht = engine.Kernel(ht_spec, params);
  auto l = engine.Kernel(l_spec, params);
  PIE_CHECK_OK(ht.status());
  PIE_CHECK_OK(l.status());
  // Integer-valued workloads (flow counts) repeat value pairs heavily, and
  // the per-key L variance requires quadrature: memoize per distinct pair.
  std::map<std::pair<double, double>, double> l_cache;
  MaxDominanceVariance out;
  for (uint64_t key : data.Keys()) {
    const std::vector<double> v = data.Values(key);
    out.sum_max += std::fmax(v[0], v[1]);
    out.ht += (*ht)->Variance(v).value();
    const auto cache_key = std::make_pair(v[0], v[1]);
    auto it = l_cache.find(cache_key);
    if (it == l_cache.end()) {
      it = l_cache.emplace(cache_key, (*l)->Variance(v).value()).first;
    }
    out.l += it->second;
  }
  return out;
}

}  // namespace pie
