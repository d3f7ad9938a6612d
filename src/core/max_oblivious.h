// Pareto-optimal estimators for max(v) under weight-oblivious Poisson
// sampling (Section 4 of the paper).
//
// Two incomparable Pareto-optimal estimators are derived in the paper:
//
//  * max^(L) (Section 4.1) prioritizes *dense* data vectors -- the order ≺
//    ranks vectors by the number of entries strictly below the maximum.
//    It has lowest variance when the values of a key are similar across
//    instances ("no change" workloads).
//  * max^(U) (Section 4.2) prioritizes *sparse* vectors -- the ordered
//    partition ranks vectors by the number of positive entries. It has
//    lowest variance when only one instance has a positive value.
//
// Both dominate the Horvitz-Thompson estimator max^(HT). For r = 2 the
// paper gives closed forms for arbitrary (p_1, p_2) (MaxLTwo, MaxUTwo, and
// the asymmetric Pareto-optimal variant MaxUAsymTwo); for general r with
// uniform p, Theorem 4.2 / Algorithm 3 give an O(r^2) coefficient recursion
// (MaxLUniform).

#pragma once

#include <algorithm>
#include <vector>

#include "sampling/poisson.h"
#include "util/status.h"

namespace pie {

/// max^(L) for two instances, arbitrary inclusion probabilities
/// (Section 4.1, "Maximum over two instances"; equation (12)).
class MaxLTwo {
 public:
  MaxLTwo(double p1, double p2);

  /// Estimate from a two-entry weight-oblivious outcome.
  double Estimate(const ObliviousOutcome& outcome) const;

  /// Estimate from one columnar row (length-2 sampled/value arrays). The
  /// scalar Estimate and the engine's batched Scan both route
  /// through this, so the two paths are bitwise-identical by construction.
  double EstimateRow(const uint8_t* sampled, const double* value) const {
    const bool s1 = sampled[0] != 0;
    const bool s2 = sampled[1] != 0;
    if (!s1 && !s2) return 0.0;
    if (s1 && !s2) return value[0] / q_;
    if (!s1 && s2) return value[1] / q_;
    const double v1 = value[0];
    const double v2 = value[1];
    return std::max(v1, v2) / (p1_ * p2_) -
           ((1.0 / p2_ - 1.0) * v1 + (1.0 / p1_ - 1.0) * v2) / q_;
  }

  /// Exact variance on data (v1, v2), by outcome enumeration.
  double Variance(double v1, double v2) const;

  /// The same variance in closed form: summing the four-outcome table
  /// directly, Var = p1(1-p2)(v1/q)^2 + p2(1-p1)(v2/q)^2 + p1 p2 e12^2
  /// - max^2 with e12 the both-sampled estimate. Cross-checked against
  /// Variance() in tests.
  double VarianceClosedForm(double v1, double v2) const;

  double p1() const { return p1_; }
  double p2() const { return p2_; }
  double q() const { return q_; }

 private:
  double p1_, p2_;
  double q_;  // p1 + p2 - p1*p2 = P[at least one entry sampled]
};

/// max^(L) for r >= 1 instances with uniform inclusion probability p
/// (Theorem 4.2 and Algorithm 3). The estimate is a fixed linear
/// combination sum_i alpha_i u_i of the sorted determining vector u
/// (unsampled entries replaced by the largest sampled value).
class MaxLUniform {
 public:
  /// Precomputes the coefficients alpha_1..alpha_r in O(r^2).
  MaxLUniform(int r, double p);

  /// Estimate from an r-entry outcome.
  double Estimate(const ObliviousOutcome& outcome) const;

  /// Row variant sharing arithmetic with Estimate; `scratch` holds the
  /// sorted sampled values (batched loops keep one buffer across keys, so
  /// the scan allocates nothing in steady state).
  double EstimateRow(const uint8_t* sampled, const double* value,
                     std::vector<double>* scratch) const;

  /// Estimate given the determining vector sorted in nonincreasing order.
  double EstimateFromSortedDeterminingVector(
      const std::vector<double>& u) const;

  /// Exact variance on a data vector (enumeration; r <= 25).
  double Variance(const std::vector<double>& values) const;

  /// Coefficients alpha_1..alpha_r (alpha_i multiplies the i-th largest
  /// determining-vector entry). Lemma 4.2: alpha_1 > 0, alpha_i < 0 for
  /// i > 1, and alpha_1 <= p^-r establish monotonicity/nonnegativity/
  /// dominance.
  const std::vector<double>& alpha() const { return alpha_; }

  /// Prefix sums A_h = sum_{i<=h} alpha_i (equation (14)); the OR^(L)
  /// estimate on an outcome with at least one sampled 1 and z sampled 0s is
  /// exactly A_{r-z}.
  const std::vector<double>& prefix_sums() const { return prefix_; }

  int r() const { return r_; }
  double p() const { return p_; }

 private:
  int r_;
  double p_;
  std::vector<double> prefix_;  // prefix_[h-1] = A_h
  std::vector<double> alpha_;   // alpha_[i-1] = alpha_i
};

/// Symmetric max^(U) for two instances (Section 4.2).
class MaxUTwo {
 public:
  MaxUTwo(double p1, double p2);

  double Estimate(const ObliviousOutcome& outcome) const;

  /// Row variant; shared by the scalar and batched paths (see MaxLTwo).
  double EstimateRow(const uint8_t* sampled, const double* value) const {
    const bool s1 = sampled[0] != 0;
    const bool s2 = sampled[1] != 0;
    if (!s1 && !s2) return 0.0;
    if (s1 && !s2) return value[0] / (p1_ * c_);
    if (!s1 && s2) return value[1] / (p2_ * c_);
    const double v1 = value[0];
    const double v2 = value[1];
    return (std::max(v1, v2) -
            (v1 * (1.0 - p2_) + v2 * (1.0 - p1_)) / c_) /
           (p1_ * p2_);
  }

  /// Exact variance on data (v1, v2).
  double Variance(double v1, double v2) const;

  double p1() const { return p1_; }
  double p2() const { return p2_; }
  double c() const { return c_; }

 private:
  double p1_, p2_;
  double c_;  // 1 + max(0, 1 - p1 - p2)
};

/// The asymmetric Pareto-optimal variant max^(Uas) (Section 4.2) obtained by
/// processing vectors (v,0) before (0,v); it has strictly lower variance
/// than MaxUTwo on (v, 0) at the cost of (0, v).
class MaxUAsymTwo {
 public:
  MaxUAsymTwo(double p1, double p2);

  double Estimate(const ObliviousOutcome& outcome) const;

  /// Row variant; shared by the scalar and batched paths (see MaxLTwo).
  double EstimateRow(const uint8_t* sampled, const double* value) const {
    const bool s1 = sampled[0] != 0;
    const bool s2 = sampled[1] != 0;
    if (!s1 && !s2) return 0.0;
    if (s1 && !s2) return value[0] / p1_;
    if (!s1 && s2) return value[1] / m_;
    const double v1 = value[0];
    const double v2 = value[1];
    return (std::max(v1, v2) - p2_ * (1.0 - p1_) / m_ * v2 -
            (1.0 - p2_) * v1) /
           (p1_ * p2_);
  }

  /// Exact variance on data (v1, v2).
  double Variance(double v1, double v2) const;

  double p1() const { return p1_; }
  double p2() const { return p2_; }
  double m() const { return m_; }

 private:
  double p1_, p2_;
  double m_;  // max(1 - p1, p2)
};

/// Validates an inclusion probability in (0, 1].
Status ValidateProbability(double p);

}  // namespace pie
