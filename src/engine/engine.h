// Batched estimation engine (the entry point the aggregate and store
// layers drive).
//
// Three costs dominated the old per-key call sites:
//  * per-key estimator construction -- e.g. the Theorem 4.2 coefficient
//    recursion is O(r^2) and the bottom-k dominance path rebuilt its
//    estimators for every key;
//  * per-key allocation of outcome vectors;
//  * per-key virtual dispatch and pointer chasing -- one virtual
//    Estimate(const Outcome&) call per key over array-of-structs slots.
// The engine removes all three: Kernel() memoizes constructed kernels by
// (spec, params) so coefficient/quadrature tables are computed once;
// OutcomeBatch stores outcomes columnar (one value/threshold/seed/
// sampled-mask slab each, reused across Clear() calls) so a steady-state
// scan allocates nothing; and EstimateBatch/EstimateSum drive the kernel's
// Scan -- one virtual call per batch, with the hot kernels looping
// branch-light over the slabs (see kernel.h).
//
// Typical use:
//   auto& engine = EstimationEngine::Global();
//   KernelHandle ht = engine.Kernel(ht_spec, params).value();
//   KernelHandle l = engine.Kernel(l_spec, params).value();
//   batch.Reset(Scheme::kPps, /*r=*/2);           // fix the row layout
//   for (key : keys) AppendPairOutcome(s1, s2, key, &batch);
//   double ht_sum = EstimateSum(*ht, batch);  // one point-only Scan per
//   double l_sum = EstimateSum(*l, batch);    // kernel, slabs assembled once

#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/kernel.h"
#include "engine/registry.h"
#include "util/status.h"

namespace pie {

/// Columnar (struct-of-arrays) storage for a batch of same-shaped
/// outcomes. Reset(scheme, r) fixes the row layout; every appended row is
/// one key's width-r outcome, stored across four flat slabs (see BatchView
/// in kernel.h) at a stable per-key index. Clear() resets the logical size
/// but keeps the slabs' capacity, so refilling the batch for the next scan
/// reuses the same memory -- a steady-state scan allocates nothing.
class OutcomeBatch {
 public:
  OutcomeBatch() = default;

  /// Fixes the row layout: scheme (which slabs exist -- oblivious rows
  /// have no seed slab) and width r. Drops all rows; slab capacity is
  /// kept.
  void Reset(Scheme scheme, int r);

  /// Drops all rows, keeping layout and slab capacity.
  void Clear() { size_ = 0; }

  Scheme scheme() const { return scheme_; }
  int r() const { return r_; }
  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Appends a row and returns its stable index. The row's slab content is
  /// unspecified (stale data from a previous use of the storage); the
  /// caller must write every field through the row accessors below.
  int AppendRow();

  /// Appends a row copied from a scalar outcome (the bridge from the
  /// sampling API into the columnar layout; the outcome must match the
  /// batch's scheme and width). Returns the row index.
  int Append(const ObliviousOutcome& outcome);
  int Append(const PpsOutcome& outcome);

  // Row accessors: r-element row i of each slab, debug bounds-checked.
  // param is p_i for oblivious layouts and tau_i for PPS layouts;
  // seed_row is only valid for PPS layouts.
  double* param_row(int i) { return row(param_, i); }
  double* seed_row(int i) {
    PIE_DCHECK(scheme_ == Scheme::kPps);
    return row(seed_, i);
  }
  uint8_t* sampled_row(int i) { return row(sampled_, i); }
  double* value_row(int i) { return row(value_, i); }
  const double* param_row(int i) const { return row(param_, i); }
  const double* seed_row(int i) const {
    PIE_DCHECK(scheme_ == Scheme::kPps);
    return row(seed_, i);
  }
  const uint8_t* sampled_row(int i) const { return row(sampled_, i); }
  const double* value_row(int i) const { return row(value_, i); }

  /// Borrowed view of one row (debug bounds-checked): pointers into the
  /// slabs plus the layout, the per-key unit of the columnar API.
  struct ConstRow {
    Scheme scheme;
    int r;
    const double* param;
    const double* seed;  ///< nullptr for oblivious layouts
    const uint8_t* sampled;
    const double* value;
  };
  ConstRow operator[](int i) const {
    PIE_DCHECK(i >= 0 && i < size_);
    return {scheme_,        r_,           param_row(i),
            scheme_ == Scheme::kPps ? seed_row(i) : nullptr,
            sampled_row(i), value_row(i)};
  }

  /// Borrowed columnar view of the whole batch, the input to
  /// EstimatorKernel::Scan. Invalidated by any append or Reset.
  BatchView view() const;

  /// Materializes row i as a scalar Outcome, reusing out's inner vectors'
  /// capacity (the bridge back to the scalar Estimate API).
  void ExtractRowInto(int i, Outcome* out) const;

 private:
  template <typename T>
  T* row(std::vector<T>& slab, int i) {
    PIE_DCHECK(i >= 0 && i < size_);
    return slab.data() + static_cast<size_t>(i) * static_cast<size_t>(r_);
  }
  template <typename T>
  const T* row(const std::vector<T>& slab, int i) const {
    PIE_DCHECK(i >= 0 && i < size_);
    return slab.data() + static_cast<size_t>(i) * static_cast<size_t>(r_);
  }

  Scheme scheme_ = Scheme::kOblivious;
  int r_ = 0;
  int size_ = 0;
  std::vector<double> param_;
  std::vector<double> seed_;
  std::vector<double> value_;
  std::vector<uint8_t> sampled_;
};

/// Applies the kernel to every row via one point-only Scan call, replacing
/// `out`'s contents (capacity is reused across calls).
void EstimateBatch(const EstimatorKernel& kernel, const OutcomeBatch& batch,
                   std::vector<double>* out);

/// Sum of per-row estimates: the per-key contributions of a sum aggregate
/// (Section 7's sum-of-f(v) queries). Routed through the deterministic
/// scan driver (engine/parallel_scan.h): fixed-size chunks accumulated in
/// row order, combined by a fixed-shape pairwise tree -- so the sum's bits
/// never depend on num_threads, and multi-threaded callers scale the scan
/// across cores without perturbing results. Batches of at most one chunk
/// (256 rows) reduce to the plain row-order sum.
double EstimateSum(const EstimatorKernel& kernel, const OutcomeBatch& batch,
                   int num_threads = 1);

/// A shared, immutable kernel handle. Callers hold it for as long as they
/// estimate with the kernel; the engine's cache holds another reference, so
/// cache eviction never invalidates a handle in use.
using KernelHandle = std::shared_ptr<const EstimatorKernel>;

/// Creates kernels through the registry and memoizes them by
/// (spec, params), so the per-(function, scheme, regime, family, config)
/// setup work -- coefficient recursions, prefix-sum tables -- happens once
/// per engine rather than once per call or per key. Thread-safe. Cache
/// lookups are allocation-free on hits. The cache is bounded: workloads
/// that sweep unboundedly many distinct params (e.g. data-dependent
/// thresholds in a long-running service) cannot grow it past
/// kMaxCachedKernels -- it is reset wholesale and refilled, while
/// outstanding KernelHandles keep their kernels alive.
class EstimationEngine {
 public:
  /// Cache capacity; crossing it clears and refills the cache (simple and
  /// O(1) amortized; an LRU would be overkill for kernel-sized objects).
  static constexpr int kMaxCachedKernels = 1024;

  EstimationEngine() = default;
  EstimationEngine(const EstimationEngine&) = delete;
  EstimationEngine& operator=(const EstimationEngine&) = delete;

  /// A process-wide engine for library-internal call sites (the aggregate
  /// layer). Sweeps over many distinct params (e.g. parameter searches)
  /// should prefer a local engine or KernelRegistry::Create to avoid
  /// churning the shared cache.
  static EstimationEngine& Global();

  /// The memoized kernel for (spec, params); created on first use.
  Result<KernelHandle> Kernel(const KernelSpec& spec,
                              const SamplingParams& params);

  /// Convenience: estimate a whole batch with the memoized kernel.
  Result<double> EstimateSum(const KernelSpec& spec,
                             const SamplingParams& params,
                             const OutcomeBatch& batch);
  Status EstimateBatch(const KernelSpec& spec, const SamplingParams& params,
                       const OutcomeBatch& batch, std::vector<double>* out);

  /// Number of distinct kernels currently cached (telemetry/tests).
  int cache_size() const;

 private:
  struct CacheKey {
    int function;
    int scheme;
    int regime;
    int family;
    int l;
    std::vector<double> per_entry;
    double quad_tol;
  };
  /// Borrowed view of a lookup key; avoids copying per_entry on hits.
  struct CacheQuery {
    const KernelSpec* spec;
    const SamplingParams* params;
  };
  struct CacheKeyLess {
    using is_transparent = void;
    bool operator()(const CacheKey& a, const CacheKey& b) const;
    bool operator()(const CacheKey& a, const CacheQuery& b) const;
    bool operator()(const CacheQuery& a, const CacheKey& b) const;
  };

  mutable std::mutex mu_;
  std::map<CacheKey, KernelHandle, CacheKeyLess> cache_;
};

/// The estimator-versioning tier this binary evaluates with: 0 is the
/// default scalar-libm log tier, 1 is the PIE_FAST_LOG vectorizable
/// polynomial tier (bitwise-deterministic but intentionally NOT
/// bit-identical to tier 0 on the eq 29/30 log-regime lanes; see
/// core/fast_log.h). Persisted checkpoints record this tag in their
/// headers so a recovered sketch's provenance states which estimator bits
/// produced -- and will reproduce -- its query answers.
uint32_t EstimatorTierTag();

}  // namespace pie
