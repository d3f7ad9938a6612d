#include "engine/kernel.h"

#include <cmath>

#include "core/functions.h"
#include "util/check.h"

namespace pie {

const char* FunctionToString(Function f) {
  switch (f) {
    case Function::kMax:
      return "max";
    case Function::kOr:
      return "or";
    case Function::kMin:
      return "min";
    case Function::kLthLargest:
      return "lth-largest";
  }
  return "?";
}

const char* SchemeToString(Scheme s) {
  switch (s) {
    case Scheme::kOblivious:
      return "oblivious";
    case Scheme::kPps:
      return "pps";
  }
  return "?";
}

const char* RegimeToString(Regime r) {
  switch (r) {
    case Regime::kKnownSeeds:
      return "known-seeds";
    case Regime::kUnknownSeeds:
      return "unknown-seeds";
  }
  return "?";
}

const char* FamilyToString(Family f) {
  switch (f) {
    case Family::kHt:
      return "HT";
    case Family::kL:
      return "L";
    case Family::kU:
      return "U";
    case Family::kUAsym:
      return "Uasym";
  }
  return "?";
}

std::string KernelSpec::ToString() const {
  std::string out = FunctionToString(function);
  if (function == Function::kLthLargest) {
    out += "(l=" + std::to_string(l) + ")";
  }
  out += std::string("/") + SchemeToString(scheme) + "/" +
         RegimeToString(regime) + "/" + FamilyToString(family);
  return out;
}

void ExtractRow(const BatchView& batch, int i, Outcome* out) {
  PIE_CHECK(out != nullptr);
  PIE_DCHECK(i >= 0 && i < batch.size);
  out->scheme = batch.scheme;
  const double* param = batch.param_row(i);
  const uint8_t* sampled = batch.sampled_row(i);
  const double* value = batch.value_row(i);
  const size_t r = static_cast<size_t>(batch.r);
  if (batch.scheme == Scheme::kOblivious) {
    ObliviousOutcome& o = out->oblivious;
    o.p.assign(param, param + r);
    o.sampled.assign(sampled, sampled + r);
    o.value.assign(value, value + r);
    return;
  }
  const double* seed = batch.seed_row(i);
  PpsOutcome& o = out->pps;
  o.tau.assign(param, param + r);
  o.seed.assign(seed, seed + r);
  o.sampled.assign(sampled, sampled + r);
  o.value.assign(value, value + r);
}

void CheckBatchLayout(const BatchView& batch, Scheme scheme, int r) {
  PIE_CHECK(batch.scheme == scheme);
  PIE_CHECK(batch.r == r);
}

double EstimatorKernel::EstimateSecondMoment(const Outcome& outcome) const {
  // Weight-oblivious sampling is value-independent, so the outcome of the
  // squared data vector is this outcome with sampled values squared; the
  // kernel's unbiasedness on arbitrary nonnegative data then gives an
  // unbiased estimate of f(v.^2) = f(v)^2 (all primitive targets commute
  // with squaring on nonnegative entries).
  PIE_CHECK(outcome.scheme == Scheme::kOblivious &&
            "PPS kernels must override EstimateSecondMoment (squaring "
            "sampled values breaks the weighted outcome correspondence)");
  Outcome squared = outcome;
  for (size_t i = 0; i < squared.oblivious.value.size(); ++i) {
    if (squared.oblivious.sampled[i]) {
      squared.oblivious.value[i] *= squared.oblivious.value[i];
    }
  }
  return Estimate(squared);
}

void EstimatorKernel::Scan(BatchView batch, double* est, double* var) const {
  // The scalar reference every override must reproduce bit for bit:
  // est from Estimate, var = est * est - second moment, in that order.
  Outcome scratch;
  for (int i = 0; i < batch.size; ++i) {
    ExtractRow(batch, i, &scratch);
    est[i] = Estimate(scratch);
    if (var != nullptr) {
      var[i] = est[i] * est[i] - EstimateSecondMoment(scratch);
    }
  }
}

bool SamplingParams::IsUniform() const {
  for (double x : per_entry) {
    if (x != per_entry[0]) return false;
  }
  return true;
}

double TrueValue(const KernelSpec& spec, const std::vector<double>& values) {
  switch (spec.function) {
    case Function::kMax:
      return MaxOf(values);
    case Function::kOr:
      return OrOf(values);
    case Function::kMin:
      return MinOf(values);
    case Function::kLthLargest:
      return LthOf(values, spec.l);
  }
  PIE_CHECK(false && "unreachable");
  return 0.0;
}

Outcome SampleOutcome(Scheme scheme, const SamplingParams& params,
                      const std::vector<double>& values, Rng& rng) {
  PIE_CHECK(params.r() == static_cast<int>(values.size()));
  switch (scheme) {
    case Scheme::kOblivious:
      return Outcome::FromOblivious(
          SampleOblivious(values, params.per_entry, rng));
    case Scheme::kPps:
      return Outcome::FromPps(SamplePps(values, params.per_entry, rng));
  }
  PIE_CHECK(false && "unreachable");
  return Outcome();
}

}  // namespace pie
