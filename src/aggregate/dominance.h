// Dominance norms and L1 distance over two independently sampled weighted
// instances with known seeds (Section 8.2): sum aggregates of per-key max /
// min across two PPS sketches.
//
// The scans are templated on the key predicate (matching the sketch.h
// SubsetSumEstimate idiom) so hot callers passing lambdas pay no
// std::function indirection per key; thin std::function overloads are kept
// for convenience and null-predicate ("all keys") call sites. Each scan
// assembles the union of sampled keys into one columnar OutcomeBatch and
// drives every kernel's Scan once over the slabs.

#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <unordered_set>
#include <utility>

#include "accuracy/confidence.h"
#include "accuracy/selector.h"
#include "aggregate/dataset.h"
#include "aggregate/sketch.h"
#include "engine/engine.h"
#include "util/check.h"

namespace pie {

class StoreSnapshot;

/// Estimates of the max-dominance norm sum_h max(v1(h), v2(h)).
struct MaxDominanceEstimates {
  double ht = 0.0;
  double l = 0.0;
};

/// A selector-chosen offline aggregate: the family that answered and its
/// point estimate.
struct SelectedMaxDominance {
  KernelSpec spec;
  double estimate = 0.0;
};

namespace aggregate_internal {

/// Predicate for the "all keys" overloads (statically true, so the
/// per-key test compiles away).
struct AcceptAllKeys {
  bool operator()(uint64_t) const { return true; }
};

/// Guards the predicate templates: every std::function call shape (const
/// or not, lvalue or rvalue) and nullptr must resolve to the wrapper
/// overloads, which treat a null predicate as "all keys" -- without the
/// exclusion a non-const or rvalue std::function would pick the template
/// and call through a possibly-empty target.
template <typename Pred>
using EnableIfKeyPredicate = std::enable_if_t<
    std::is_invocable_r_v<bool, Pred&, uint64_t> &&
    !std::is_same_v<std::decay_t<Pred>, std::function<bool(uint64_t)>>>;

// Iterates over the union of sampled keys, calling fn once per key.
template <typename Pred, typename Fn>
void ForEachSampledKey(const PpsInstanceSketch& s1,
                       const PpsInstanceSketch& s2, Pred&& pred, Fn&& fn) {
  std::unordered_set<uint64_t> seen;
  for (const auto& e : s1.entries()) {
    if (!pred(e.key)) continue;
    seen.insert(e.key);
    fn(e.key);
  }
  for (const auto& e : s2.entries()) {
    if (!pred(e.key)) continue;
    if (!seen.count(e.key)) fn(e.key);
  }
}

}  // namespace aggregate_internal

/// Applies the per-key weighted max estimators (max^(HT) and max^(L),
/// Section 5.2) to every key sampled in either sketch (selected by `pred`)
/// and sums.
template <typename Pred,
          typename = aggregate_internal::EnableIfKeyPredicate<Pred>>
MaxDominanceEstimates EstimateMaxDominance(const PpsInstanceSketch& s1,
                                           const PpsInstanceSketch& s2,
                                           Pred&& pred) {
  auto& engine = EstimationEngine::Global();
  const SamplingParams params({s1.tau(), s2.tau()});
  auto ht = engine.Kernel(
      {Function::kMax, Scheme::kPps, Regime::kKnownSeeds, Family::kHt},
      params);
  auto l = engine.Kernel(
      {Function::kMax, Scheme::kPps, Regime::kKnownSeeds, Family::kL},
      params);
  PIE_CHECK_OK(ht.status());
  PIE_CHECK_OK(l.status());

  // Assemble the union of sampled keys once into columnar slabs, then run
  // each memoized kernel's Scan over them -- no per-key estimator
  // setup, dispatch, or allocation.
  OutcomeBatch batch;
  batch.Reset(Scheme::kPps, 2);
  aggregate_internal::ForEachSampledKey(
      s1, s2, pred, [&](uint64_t key) { AppendPairOutcome(s1, s2, key, &batch); });
  MaxDominanceEstimates out;
  out.ht = EstimateSum(**ht, batch);
  out.l = EstimateSum(**l, batch);
  return out;
}

/// All-keys and std::function conveniences (thin wrappers over the
/// template; a null std::function selects all keys).
MaxDominanceEstimates EstimateMaxDominance(const PpsInstanceSketch& s1,
                                           const PpsInstanceSketch& s2);
MaxDominanceEstimates EstimateMaxDominance(
    const PpsInstanceSketch& s1, const PpsInstanceSketch& s2,
    const std::function<bool(uint64_t)>& pred);

/// Max dominance through the variance-driven selector instead of the
/// hard-coded HT+L dual readout: the minimum-variance admissible weighted
/// max family for this (tau1, tau2) threshold class answers, with the
/// ranking memoized in SelectorCache so repeat scans over the same class
/// never re-rank. The scan itself is the same columnar union scan as
/// EstimateMaxDominance, restricted to the chosen kernel.
Result<SelectedMaxDominance> EstimateMaxDominanceAuto(
    const PpsInstanceSketch& s1, const PpsInstanceSketch& s2);

/// HT estimate of the min-dominance norm sum_h min(v1(h), v2(h)): a key
/// contributes min(v1,v2) / (rho1 rho2) when sampled in both sketches
/// (the inverse-probability estimator, Pareto optimal for min).
template <typename Pred,
          typename = aggregate_internal::EnableIfKeyPredicate<Pred>>
double EstimateMinDominanceHt(const PpsInstanceSketch& s1,
                              const PpsInstanceSketch& s2, Pred&& pred) {
  auto min_ht = EstimationEngine::Global().Kernel(
      {Function::kMin, Scheme::kPps, Regime::kUnknownSeeds, Family::kHt},
      SamplingParams({s1.tau(), s2.tau()}));
  PIE_CHECK_OK(min_ht.status());

  // min^(HT) needs only the sampled values; rows are filled straight from
  // the scan (no seed hashing -- the unknown-seeds kernel never reads
  // seeds, but the layout still carries a seed slab for interface parity).
  OutcomeBatch batch;
  batch.Reset(Scheme::kPps, 2);
  for (const auto& e : s1.entries()) {
    if (!pred(e.key)) continue;
    double v2 = 0.0;
    if (!s2.Lookup(e.key, &v2)) continue;  // min needs both entries
    const int i = batch.AppendRow();
    double* tau = batch.param_row(i);
    tau[0] = s1.tau();
    tau[1] = s2.tau();
    double* seed = batch.seed_row(i);
    seed[0] = seed[1] = 0.0;
    uint8_t* sampled = batch.sampled_row(i);
    sampled[0] = sampled[1] = 1;
    double* value = batch.value_row(i);
    value[0] = e.weight;
    value[1] = v2;
  }
  return EstimateSum(**min_ht, batch);
}

double EstimateMinDominanceHt(const PpsInstanceSketch& s1,
                              const PpsInstanceSketch& s2);
double EstimateMinDominanceHt(const PpsInstanceSketch& s1,
                              const PpsInstanceSketch& s2,
                              const std::function<bool(uint64_t)>& pred);

/// Unbiased L1 distance estimate sum_h |v1(h) - v2(h)| as the difference of
/// the max-dominance (L) and min-dominance (HT) estimates. Unbiased but not
/// per-key nonnegative (Section 2.3 shows no nonnegative per-key RG
/// estimator recovers exact values under weighted sampling).
double EstimateL1Distance(const PpsInstanceSketch& s1,
                          const PpsInstanceSketch& s2);

/// Store-ingested variants: the same aggregates over two instances of a
/// SketchStore snapshot, answered by the store's QueryService (per-shard
/// parallel OutcomeBatches through the engine, deterministic reduction).
MaxDominanceEstimates EstimateMaxDominance(const StoreSnapshot& snapshot,
                                           int i1, int i2);
double EstimateL1Distance(const StoreSnapshot& snapshot, int i1, int i2);

/// Exact (analytic) variances of the max-dominance estimators on a two-
/// instance data set: per-key variance formulas summed over keys
/// (independent seeds make per-key estimates independent). Used by the
/// Figure 7 reproduction.
struct MaxDominanceVariance {
  double ht = 0.0;
  double l = 0.0;
  double sum_max = 0.0;  ///< true max-dominance norm
};

MaxDominanceVariance AnalyticMaxDominanceVariance(const MultiInstanceData& data,
                                                  double tau1, double tau2,
                                                  double quad_tol = 1e-10);

}  // namespace pie
