// The estimation engine's kernel abstraction.
//
// The paper derives a *family* of per-key optimal unbiased estimators, one
// per combination of target function (max, OR, min, l-th largest), sampling
// scheme (weight-oblivious Poisson vs weighted PPS), and information regime
// (seeds known vs unknown). src/core/ implements each as its own class with
// its own constructor and Estimate signature; the engine wraps them behind
// one interface so the aggregate layer, benchmarks, and applications can
// drive any of them generically and in batches.
//
// An EstimatorKernel estimates one key's contribution f(v) from an Outcome
// (the sampled values plus the inclusion probabilities / thresholds and
// seeds the regime allows the estimator to read). Kernels are immutable
// after construction: all coefficient tables (e.g. the Theorem 4.2 alpha
// recursion) are computed once, so sharing one kernel across millions of
// keys amortizes the setup the free-function API redid per call site.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sampling/poisson.h"
#include "util/check.h"
#include "util/random.h"
#include "util/status.h"

namespace pie {

namespace obs {
class Counter;  // obs/metrics.h
}

/// Target function f(v_1, ..., v_r) estimated by a kernel.
enum class Function {
  kMax,
  kOr,          ///< Boolean OR over a binary domain
  kMin,
  kLthLargest,  ///< l-th largest entry (l = 1 is max, l = r is min)
};

/// How each instance's entry was sampled.
enum class Scheme {
  kOblivious,  ///< fixed inclusion probability p_i, independent of v_i
  kPps,        ///< weighted PPS: sampled iff v_i >= u_i * tau*_i
};

/// What the estimator may read besides the sampled values. For the
/// oblivious scheme the sampled set is full information, so the regime is
/// immaterial and normalized to kKnownSeeds on lookup.
enum class Regime {
  kKnownSeeds,    ///< seed vector visible (missing entries bound the value)
  kUnknownSeeds,  ///< only the sampled set and values are visible
};

/// Which estimator of the family to use; the paper's L and U variants are
/// Pareto-optimal and incomparable, HT is the classical baseline.
enum class Family {
  kHt,     ///< Horvitz-Thompson (all-or-nothing information)
  kL,      ///< dense-first order-optimal estimator (max^(L), OR^(L), ...)
  kU,      ///< sparse-first partition-optimal estimator (max^(U), OR^(U))
  kUAsym,  ///< asymmetric Pareto-optimal variant (max^(Uas), r = 2)
};

const char* FunctionToString(Function f);
const char* SchemeToString(Scheme s);
const char* RegimeToString(Regime r);
const char* FamilyToString(Family f);

/// Registry / engine key: which estimator to instantiate.
struct KernelSpec {
  Function function = Function::kMax;
  Scheme scheme = Scheme::kOblivious;
  Regime regime = Regime::kKnownSeeds;
  Family family = Family::kL;
  int l = 1;  ///< order statistic, used only by kLthLargest

  /// "max/pps/known-seeds/L"-style description.
  std::string ToString() const;

  friend bool operator==(const KernelSpec& a, const KernelSpec& b) {
    return a.function == b.function && a.scheme == b.scheme &&
           a.regime == b.regime && a.family == b.family && a.l == b.l;
  }
};

/// Per-instance sampler configuration a kernel is instantiated for:
/// inclusion probabilities p_i (oblivious) or PPS thresholds tau*_i (pps).
/// quad_tol is the adaptive-quadrature tolerance used by kernels whose
/// closed-form variance requires seed integrals (known-seeds weighted max).
struct SamplingParams {
  std::vector<double> per_entry;
  double quad_tol = 1e-10;

  SamplingParams() = default;
  SamplingParams(std::initializer_list<double> entries)
      : per_entry(entries) {}
  explicit SamplingParams(std::vector<double> entries, double tol = 1e-10)
      : per_entry(std::move(entries)), quad_tol(tol) {}

  int r() const { return static_cast<int>(per_entry.size()); }
  /// True when every entry equals the first (uniform p or uniform tau).
  bool IsUniform() const;
};

/// One key's sampling outcome, tagged by scheme. Exactly one of the two
/// payloads is meaningful; both are kept as members (not a variant) so
/// batch slots can be overwritten in place without reallocating the inner
/// vectors.
struct Outcome {
  Scheme scheme = Scheme::kOblivious;
  ObliviousOutcome oblivious;
  PpsOutcome pps;

  static Outcome FromOblivious(ObliviousOutcome o) {
    Outcome out;
    out.scheme = Scheme::kOblivious;
    out.oblivious = std::move(o);
    return out;
  }
  static Outcome FromPps(PpsOutcome o) {
    Outcome out;
    out.scheme = Scheme::kPps;
    out.pps = std::move(o);
    return out;
  }
};

/// Borrowed columnar (struct-of-arrays) view of a batch of same-shaped
/// outcomes: `size` keys, each a width-`r` outcome of one scheme. The four
/// slabs are row-major [size][r] -- row i holds key i's per-entry data at a
/// stable index, so kernel-level batch loops stream contiguous memory
/// instead of chasing per-key vectors:
///   param   : inclusion probabilities p_i (oblivious) or thresholds tau_i
///   seed    : seeds u_i (PPS layouts only; nullptr for oblivious)
///   sampled : 1 iff entry is in the sample
///   value   : v_i, meaningful only where sampled
/// Produced by OutcomeBatch::view() (engine.h); consumed by Scan.
struct BatchView {
  Scheme scheme = Scheme::kOblivious;
  int r = 0;
  int size = 0;
  const double* param = nullptr;
  const double* seed = nullptr;
  const uint8_t* sampled = nullptr;
  const double* value = nullptr;

  const double* param_row(int i) const {
    PIE_DCHECK(i >= 0 && i < size);
    return param + static_cast<size_t>(i) * static_cast<size_t>(r);
  }
  const double* seed_row(int i) const {
    PIE_DCHECK(i >= 0 && i < size);
    PIE_DCHECK(seed != nullptr);
    return seed + static_cast<size_t>(i) * static_cast<size_t>(r);
  }
  const uint8_t* sampled_row(int i) const {
    PIE_DCHECK(i >= 0 && i < size);
    return sampled + static_cast<size_t>(i) * static_cast<size_t>(r);
  }
  const double* value_row(int i) const {
    PIE_DCHECK(i >= 0 && i < size);
    return value + static_cast<size_t>(i) * static_cast<size_t>(r);
  }

  /// Sub-range view of rows [begin, begin + count): same slabs, offset
  /// pointers. Lets drivers chunk one batch (e.g. fixed-size accumulation
  /// buffers) without copying.
  BatchView Slice(int begin, int count) const {
    PIE_DCHECK(begin >= 0 && count >= 0 && begin + count <= size);
    BatchView out = *this;
    const size_t offset =
        static_cast<size_t>(begin) * static_cast<size_t>(r);
    out.size = count;
    out.param += offset;
    if (out.seed != nullptr) out.seed += offset;
    out.sampled += offset;
    out.value += offset;
    return out;
  }
};

/// Materializes row i of a view as a scalar Outcome (reusing out's inner
/// vectors' capacity) -- the bridge from columnar rows back to the scalar
/// Estimate API, used by the default Scan loop.
void ExtractRow(const BatchView& batch, int i, Outcome* out);

/// Aborts unless the view's layout matches what a kernel was constructed
/// for; kernel Scan overrides call this once per batch in place of the
/// per-outcome scheme/width checks of the scalar path.
void CheckBatchLayout(const BatchView& batch, Scheme scheme, int r);

/// Estimates one key's f(v) contribution from an outcome. Thread-safe after
/// construction (estimation is const and touches no shared mutable state).
class EstimatorKernel {
 public:
  virtual ~EstimatorKernel() = default;

  /// Unbiased estimate of f(v) from one outcome. The outcome's scheme must
  /// match the kernel's spec.
  virtual double Estimate(const Outcome& outcome) const = 0;

  /// Unbiased estimate of f(v)^2 from one outcome: E over outcomes of the
  /// returned value equals f(v)^2 for every data vector. Together with the
  /// point estimate this yields the unbiased per-key variance estimate
  ///   Var-hat = Estimate(o)^2 - EstimateSecondMoment(o),
  /// since E[Estimate^2] - f^2 = Var[Estimate] -- the accuracy layer sums
  /// Var-hat over keys to attach honest error bars to sum aggregates
  /// (src/accuracy/).
  ///
  /// The base implementation covers every weight-oblivious kernel exactly:
  /// the sampled set is value-independent, and all primitive targets
  /// commute with squaring on nonnegative data (max(v.^2) = max(v)^2,
  /// likewise min / l-th largest / binary OR), so estimating the squared
  /// data vector through the same outcome is unbiased for f(v)^2. PPS
  /// kernels (sampling depends on the values, so squaring breaks the
  /// outcome correspondence) MUST override; the built-ins use
  /// identifiable-event inverse-probability forms (core/ht.h,
  /// core/min_weighted.h) and the OR binary identity f^2 = f.
  virtual double EstimateSecondMoment(const Outcome& outcome) const;

  /// The one batched call: est[i] receives row i's point estimate and,
  /// when `var` is not null, var[i] its unbiased per-key variance estimate
  ///   var[i] = est[i]^2 - EstimateSecondMoment(row i)
  /// for every row of the columnar batch. A null `var` asks for point
  /// estimates only, and overrides skip the second-moment work entirely.
  ///
  /// The base implementation materializes each row and calls the scalar
  /// Estimate / EstimateSecondMoment. Hot kernels override it with tight
  /// loops over the slabs that share the inline EstimateRow cores; every
  /// override MUST be bitwise identical to that scalar reference, in both
  /// modes, so batched drivers inherit the determinism guarantees of the
  /// per-key API (the registry sweep in tests/scan_equivalence_test.cc
  /// enforces it). Override when per-key estimation is cheap enough that
  /// virtual dispatch, per-outcome layout checks, and per-key vector
  /// indirection dominate (closed-form r = 2 estimators, HT, the Theorem
  /// 4.2 recursion); kernels whose per-key cost is inherently large
  /// (quadrature, enumeration) gain nothing from an override.
  virtual void Scan(BatchView batch, double* est, double* var) const;

  /// Point estimates of every row into out[0..batch.size): Scan without
  /// the variance.
  void EstimateMany(BatchView batch, double* out) const {
    Scan(batch, out, nullptr);
  }

  /// Exact variance on a data vector, where core provides a closed form /
  /// enumeration; Unimplemented otherwise.
  virtual Result<double> Variance(
      const std::vector<double>& /*values*/) const {
    return Status::Unimplemented("no exact variance for kernel " + name());
  }

  /// Human-readable kernel name ("max^(L) oblivious r=2", ...).
  virtual std::string name() const = 0;

  /// Per-spec scan counters (pie_kernel_scans_total / pie_kernel_rows_total
  /// labeled by the canonical function/scheme/regime/family), attached by
  /// KernelRegistry::Create after construction; nullptr on directly
  /// constructed kernels. Scan drivers bump them once per batch pass --
  /// never per key -- and estimator math never reads them, so the counters
  /// cannot change any output bit.
  obs::Counter* obs_scans = nullptr;
  obs::Counter* obs_rows = nullptr;
};

/// Ground truth f(v) for a kernel spec (dispatches to core/functions).
double TrueValue(const KernelSpec& spec, const std::vector<double>& values);

/// Draws one outcome of `values` under the spec'd scheme: SampleOblivious
/// for kOblivious (params = inclusion probabilities), SamplePps for kPps
/// (params = thresholds). Shared by the Monte Carlo test fixture and the
/// benchmarks.
Outcome SampleOutcome(Scheme scheme, const SamplingParams& params,
                      const std::vector<double>& values, Rng& rng);

}  // namespace pie
