// Mergeable accumulation of a sum aggregate together with its unbiased
// variance estimate, in one columnar scan.
//
// For independent per-key outcomes (independent seeds, the store's model),
// the variance of a sum aggregate is the sum of per-key estimator
// variances, and each key's variance has the unbiased estimate
//   Var-hat(key) = Estimate(o)^2 - EstimateSecondMoment(o)
// (E[est^2] - f^2 = Var[est]; see kernel.h). An AccuracyAccumulator drives
// the kernel's with-variance Scan through the
// deterministic scan driver (engine/parallel_scan.h): the batch is split
// into fixed-size chunks -- each scanned once, paying for the row data a
// single time instead of the two slab passes of the pre-fusion layout --
// and the per-chunk partials (sum, variance, per-key moments) combine by a
// fixed-shape pairwise tree, so the result bits are identical for any
// thread count and bitwise equal to EstimateSum on the same batch.
// Per-shard accumulators Merge() in shard order, so the store's
// deterministic-reduction guarantee extends to the error bars.

#pragma once

#include <cstdint>

#include "accuracy/confidence.h"
#include "engine/engine.h"
#include "engine/parallel_scan.h"
#include "util/stats.h"

namespace pie {

class AccuracyAccumulator {
 public:
  /// Accumulates one key's (estimate, second-moment estimate) pair.
  void Add(double estimate, double second_moment) {
    sum_ += estimate;
    variance_ += estimate * estimate - second_moment;
    per_key_.Add(estimate);
  }

  /// Scans a whole batch with the kernel's fused estimate+variance pass
  /// via the deterministic driver. The resulting sum() is bitwise
  /// identical to EstimateSum(kernel, batch) (same chunking, same tree
  /// reduction), which tests/accuracy_test.cc enforces registry-wide, and
  /// independent of num_threads (tests/parallel_scan_test.cc).
  void AddBatch(const EstimatorKernel& kernel, const OutcomeBatch& batch,
                int num_threads = 1) {
    AddBatchImpl(kernel, batch, /*with_variance=*/true, num_threads);
  }

  /// Estimate-only scan: the same chunked sum (still bitwise identical to
  /// EstimateSum) and per-key moments, skipping the variance pass
  /// entirely -- variance() stays 0, so Interval() degenerates to a
  /// zero-width interval. For point-only callers that must not pay for
  /// error bars (QueryServiceOptions::with_variance = false).
  void AddBatchEstimateOnly(const EstimatorKernel& kernel,
                            const OutcomeBatch& batch,
                            int num_threads = 1) {
    AddBatchImpl(kernel, batch, /*with_variance=*/false, num_threads);
  }

  /// Exact merge: component-wise for sum/variance, Chan et al. for the
  /// per-key moments. Merging per-shard partials in shard order reproduces
  /// the single-scan accumulator's sum bitwise.
  void Merge(const AccuracyAccumulator& o) {
    sum_ += o.sum_;
    variance_ += o.variance_;
    per_key_.Merge(o.per_key_);
  }

  int64_t keys() const { return per_key_.count(); }
  double sum() const { return sum_; }
  /// Unbiased estimate of Var[sum()]; may be slightly negative on unlucky
  /// samples (difference of unbiased terms), clamped by Interval().
  double variance() const { return variance_; }
  /// Per-key estimate moments (spread diagnostics), mergeable.
  const MomentAccumulator& per_key() const { return per_key_; }

  /// The sum with its error bars under `policy`.
  IntervalEstimate Interval(const CiPolicy& policy = {}) const {
    return MakeInterval(sum_, variance_, policy);
  }

 private:
  void AddBatchImpl(const EstimatorKernel& kernel, const OutcomeBatch& batch,
                    bool with_variance, int num_threads);

  double sum_ = 0.0;
  double variance_ = 0.0;
  MomentAccumulator per_key_;
};

/// One-shot convenience: scan the batch and return the interval.
IntervalEstimate EstimateSumWithCi(const EstimatorKernel& kernel,
                                   const OutcomeBatch& batch,
                                   const CiPolicy& policy = {});

/// Accumulates a difference aggregate X - Y whose two estimators scan the
/// SAME batch (one shared sample per key), including the exact covariance
/// cross term the conservative sd(X) + sd(Y) width throws away:
///   Var[X - Y] = Var[X] + Var[Y] - 2 Cov[X, Y],
/// with per-key unbiased estimates of all three terms accumulated in one
/// fused chunked scan. The caller supplies the per-row covariance estimate
/// (kernel-pair-specific; e.g. X(o) Y(o) minus an unbiased estimate of
/// f_X(v) f_Y(v) -- see MinHtWeighted::MaxMinProductRow) through
/// `cross_fn(chunk, i, x, y)`.
///
/// Interval() uses the joint variance, falling back to the conservative
/// (sd(X) + sd(Y))^2 bound whenever the joint estimate exceeds it (the
/// cross term, a difference of unbiased estimates, can overshoot on
/// unlucky samples) -- so the reported interval is NEVER wider than the
/// pre-covariance bound, which tests/accuracy_test.cc asserts.
class DifferenceAccumulator {
 public:
  /// Chunked fused scan of both kernels over the same batch; rows
  /// accumulated in order, chunks in order (the per-shard unit of the
  /// store's deterministic reduction -- shard partials Merge() in shard
  /// order).
  template <typename CrossFn>
  void AddBatch(const EstimatorKernel& kx, const EstimatorKernel& ky,
                const OutcomeBatch& batch, const CrossFn& cross_fn,
                bool with_variance = true) {
    double ex[kScanChunkRows], vx[kScanChunkRows];
    double ey[kScanChunkRows], vy[kScanChunkRows];
    const BatchView view = batch.view();
    for (int start = 0; start < view.size; start += kScanChunkRows) {
      const BatchView chunk = view.Slice(
          start, view.size - start < kScanChunkRows ? view.size - start
                                                    : kScanChunkRows);
      kx.Scan(chunk, ex, with_variance ? vx : nullptr);
      ky.Scan(chunk, ey, with_variance ? vy : nullptr);
      if (with_variance) {
        for (int i = 0; i < chunk.size; ++i) {
          sum_x_ += ex[i];
          sum_y_ += ey[i];
          var_x_ += vx[i];
          var_y_ += vy[i];
          cross_ += cross_fn(chunk, i, ex[i], ey[i]);
        }
      } else {
        for (int i = 0; i < chunk.size; ++i) {
          sum_x_ += ex[i];
          sum_y_ += ey[i];
        }
      }
      keys_ += chunk.size;
    }
  }

  /// Exact component-wise merge (shard partials, in shard order).
  void Merge(const DifferenceAccumulator& o) {
    sum_x_ += o.sum_x_;
    sum_y_ += o.sum_y_;
    var_x_ += o.var_x_;
    var_y_ += o.var_y_;
    cross_ += o.cross_;
    keys_ += o.keys_;
  }

  int64_t keys() const { return keys_; }
  double sum_x() const { return sum_x_; }
  double sum_y() const { return sum_y_; }
  double estimate() const { return sum_x_ - sum_y_; }
  /// Unbiased variance estimates of the two term sums and their summed
  /// covariance estimate (each may go slightly negative on unlucky
  /// samples; Interval() clamps).
  double variance_x() const { return var_x_; }
  double variance_y() const { return var_y_; }
  double covariance() const { return cross_; }
  /// Joint unbiased estimate of Var[X - Y] (may be negative; see above).
  double joint_variance() const { return var_x_ + var_y_ - 2.0 * cross_; }
  /// The pre-covariance upper bound (sd(X) + sd(Y))^2 on Var[X - Y].
  double conservative_variance() const;

  /// The difference with covariance-aware error bars: joint variance,
  /// clamped into [0, conservative_variance()].
  IntervalEstimate Interval(const CiPolicy& policy = {}) const;

 private:
  double sum_x_ = 0.0;
  double sum_y_ = 0.0;
  double var_x_ = 0.0;
  double var_y_ = 0.0;
  double cross_ = 0.0;
  int64_t keys_ = 0;
};

}  // namespace pie
