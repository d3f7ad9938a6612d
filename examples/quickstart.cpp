// Quickstart: estimating max across two sampled snapshots of a value,
// driven through the estimation engine.
//
// Scenario: a sensor reports a reading in two time periods; to save power,
// each period's reading is transmitted only with probability 1/2
// (weight-oblivious Poisson sampling, independent across periods). We want
// an unbiased estimate of the PEAK reading max(v1, v2).
//
// The classic Horvitz-Thompson estimator is positive only when BOTH
// readings arrive. The paper's max^(L) estimator additionally extracts
// information from outcomes where only one reading arrives (a lower bound
// on the peak) and provably dominates HT.
//
// Estimators are addressed by (function, sampling scheme, information
// regime, family): the engine instantiates the right closed form from the
// registry, memoizes it, and estimates whole batches of outcomes.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <utility>

#include "accuracy/accumulator.h"
#include "accuracy/confidence.h"
#include "engine/engine.h"
#include "obs/report.h"
#include "util/random.h"
#include "util/stats.h"

int main() {
  const double p = 0.5;                          // transmission probability
  const std::vector<double> truth = {8.0, 6.0};  // the two real readings
  const pie::SamplingParams params = {p, p};

  // Look the two estimators up in the engine: same function (max), same
  // sampling scheme, different family.
  pie::KernelSpec spec;
  spec.function = pie::Function::kMax;
  spec.scheme = pie::Scheme::kOblivious;
  auto& engine = pie::EstimationEngine::Global();
  spec.family = pie::Family::kHt;
  const pie::KernelHandle ht = engine.Kernel(spec, params).value();
  spec.family = pie::Family::kL;
  const pie::KernelHandle max_l = engine.Kernel(spec, params).value();
  std::printf("kernels: \"%s\" vs \"%s\"\n\n", ht->name().c_str(),
              max_l->name().c_str());

  // One concrete sample.
  pie::Rng rng(2011);
  const pie::Outcome outcome =
      pie::SampleOutcome(pie::Scheme::kOblivious, params, truth, rng);
  std::printf("one outcome: reading 1 %s, reading 2 %s\n",
              outcome.oblivious.sampled[0] ? "arrived" : "missing",
              outcome.oblivious.sampled[1] ? "arrived" : "missing");
  // Each kernel also estimates f(v)^2 unbiasedly from the same outcome
  // (EstimateSecondMoment), so est^2 - second moment is an unbiased
  // per-outcome variance estimate -- the accuracy layer turns the pair
  // into a 95% confidence interval.
  for (const auto& [label, kernel] :
       {std::pair<const char*, const pie::KernelHandle&>{"HT", ht},
        {"L ", max_l}}) {
    const double est = kernel->Estimate(outcome);
    const double second = kernel->EstimateSecondMoment(outcome);
    const pie::IntervalEstimate interval =
        pie::MakeInterval(est, est * est - second);
    std::printf("  %s estimate of the peak: %.3f +- %.3f (95%% CI [%.3f, %.3f])\n",
                label, interval.estimate, interval.hi - interval.estimate,
                interval.lo, interval.hi);
  }

  // Repeat many times, estimating the whole batch with each kernel: both
  // are unbiased, L has much lower variance. The batch stores outcomes
  // columnar, so each kernel's Scan streams flat slabs in one virtual call.
  pie::OutcomeBatch batch;
  batch.Reset(pie::Scheme::kOblivious, /*r=*/2);
  for (int trial = 0; trial < 200000; ++trial) {
    batch.Append(
        pie::SampleOutcome(pie::Scheme::kOblivious, params, truth, rng)
            .oblivious);
  }
  // AccuracyAccumulator scans estimates and second moments in one pass;
  // its interval divided by the trial count is a 95% CI on the mean, which
  // should cover the true peak ~95% of the time.
  pie::AccuracyAccumulator ht_acc, l_acc;
  ht_acc.AddBatch(*ht, batch);
  l_acc.AddBatch(*max_l, batch);
  const auto n = static_cast<double>(ht_acc.keys());
  std::printf("\nover %lld trials (true peak = %.1f):\n",
              static_cast<long long>(ht_acc.keys()),
              pie::TrueValue(spec, truth));
  for (const auto& [label, acc] :
       {std::pair<const char*, const pie::AccuracyAccumulator&>{"HT", ht_acc},
        {"L ", l_acc}}) {
    const pie::IntervalEstimate sum = acc.Interval();
    std::printf(
        "  %s: mean %.4f +- %.4f (95%% CI [%.4f, %.4f])  variance %8.4f\n",
        label, sum.estimate / n, (sum.hi - sum.estimate) / n, sum.lo / n,
        sum.hi / n, acc.per_key().sample_variance());
  }
  std::printf("  empirical variance ratio: %.2fx lower for L\n",
              ht_acc.per_key().sample_variance() /
                  l_acc.per_key().sample_variance());

  // The exact variances, no simulation needed.
  std::printf("\nanalytic: HT %.4f, L %.4f\n",
              ht->Variance(truth).value(), max_l->Variance(truth).value());

  pie::obs::MaybeDumpMetricsReport();
  return 0;
}
