// Distinct-element count over two independently sampled instances with
// known seeds (Section 8.1): the sum aggregate of per-key Boolean OR.
//
// Each instance is a key set N_i summarized by Poisson sampling with
// probability p_i using hash seeds u_i(h). At estimation time sampled keys
// are classified by what the seeds reveal about their membership in the
// *other* instance:
//   F11: sampled in both                      -> both entries known 1
//   F10: in S1, u2(h) < p2                    -> seed certifies h not in N2
//   F01: in S2, u1(h) < p1                    -> seed certifies h not in N1
//   F1?: in S1, u2(h) >= p2                   -> other membership unknown
//   F?1: in S2, u1(h) >= p1                   -> other membership unknown
// The HT estimator counts only F11/F10/F01 keys at weight 1/(p1 p2); the L
// estimator additionally extracts partial information from F1?/F?1 keys and
// dominates it.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "accuracy/confidence.h"
#include "engine/kernel.h"
#include "util/hashing.h"
#include "util/status.h"

namespace pie {

class StoreSnapshot;

/// Poisson sample of a key set with hash seeds: h is kept iff u(h) < p.
struct BinaryInstanceSketch {
  double p = 0.0;
  uint64_t salt = 0;
  std::vector<uint64_t> keys;  ///< sampled keys

  SeedFunction seed_fn() const { return SeedFunction(salt); }
};

/// Samples the key set `keys` with probability `p` and salt `salt`.
BinaryInstanceSketch SampleBinaryInstance(const std::vector<uint64_t>& keys,
                                          double p, uint64_t salt);

/// The binary membership sketch of one store instance, for feeding store-
/// ingested key sets (unit-weight records, tau = 1/p) into the Section 8.1
/// classification path: keys are the instance's sampled keys (canonical
/// order), p = min(1, 1/tau), salt the instance's seed salt.
BinaryInstanceSketch BinaryInstanceFromStore(const StoreSnapshot& snapshot,
                                             int instance);

/// Bottom-k sample of a key set (Section 8.1's fixed-size alternative): the
/// k keys of smallest seed, with the (k+1)-st smallest seed playing the
/// role of p (rank conditioning). When the set has at most k keys the
/// sketch is exact (p = 1). The returned sketch plugs into ClassifyDistinct
/// and the HT/L estimators unchanged.
BinaryInstanceSketch SampleBinaryBottomK(const std::vector<uint64_t>& keys,
                                         int k, uint64_t salt);

/// Per-category key counts after seed classification (restricted to keys
/// passing `pred`; nullptr selects all).
struct DistinctClassification {
  int64_t f11 = 0;
  int64_t f10 = 0;
  int64_t f01 = 0;
  int64_t f1q = 0;  ///< F1?
  int64_t fq1 = 0;  ///< F?1
};

DistinctClassification ClassifyDistinct(
    const BinaryInstanceSketch& s1, const BinaryInstanceSketch& s2,
    const std::function<bool(uint64_t)>& pred = nullptr);

/// HT estimate of |(N1 u N2) ^ A| (Section 8.1).
double DistinctHtEstimate(const DistinctClassification& c, double p1,
                          double p2);

/// L estimate of |(N1 u N2) ^ A| (Section 8.1).
double DistinctLEstimate(const DistinctClassification& c, double p1,
                         double p2);

/// The family the variance-driven selector picks for this (p1, p2) class,
/// and its estimate.
struct DistinctSelectedEstimate {
  Family family = Family::kL;
  double estimate = 0.0;
};

/// Distinct estimate through the cached variance-driven selector instead
/// of a hard-coded family: ranks the registered oblivious OR families
/// (HT / L / U) by exact variance on the binary reference profiles, once
/// per (p1, p2) class (SelectorCache), and evaluates the winner's category
/// weights. With the built-in families this selects L or U (both dominate
/// HT, Section 4.3); the hard-coded DistinctHtEstimate/DistinctLEstimate
/// pair remains for the paper's dual readout.
Result<DistinctSelectedEstimate> DistinctAutoEstimate(
    const DistinctClassification& c, double p1, double p2);

/// Analytic variances for a union of size `distinct` with Jaccard
/// coefficient `jaccard` (Section 8.1).
double DistinctHtVariance(double distinct, double p1, double p2);
double DistinctLVariance(double distinct, double jaccard, double p1,
                         double p2);

/// Unbiased estimate of the intersection size |N1 ^ N2 ^ A|: AND(v1,v2) is
/// revealed exactly when the key is sampled in both instances (F11), with
/// probability p1*p2.
double DistinctIntersectionEstimate(const DistinctClassification& c,
                                    double p1, double p2);

/// L estimate with a plug-in normal confidence interval: the union and
/// Jaccard coefficient are estimated from the sample and fed into the
/// Section 8.1 variance formula. The interval is asymptotically calibrated
/// (coverage tested empirically in aggregate_test).
struct DistinctEstimateWithCi {
  double estimate = 0.0;  ///< D̂^(L)
  double jaccard = 0.0;   ///< ratio estimate Î/D̂ (clamped to [0,1])
  double stddev = 0.0;    ///< plug-in standard deviation of D̂^(L)
  double lo = 0.0;        ///< estimate - z*stddev (clamped at 0)
  double hi = 0.0;        ///< estimate + z*stddev
};

DistinctEstimateWithCi DistinctLEstimateWithCi(const DistinctClassification& c,
                                               double p1, double p2,
                                               double z = 1.96);

}  // namespace pie
