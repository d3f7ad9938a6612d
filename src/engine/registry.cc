#include "engine/registry.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/fast_log.h"
#include "core/functions.h"
#include "core/ht.h"
#include "core/max_l_three.h"
#include "core/max_oblivious.h"
#include "core/max_weighted.h"
#include "core/min_weighted.h"
#include "core/or_oblivious.h"
#include "core/or_weighted.h"
#include "engine/pattern_partition.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace pie {
namespace {

// ---------------------------------------------------------------------------
// Adapter kernels around the core estimator classes. Each adapter fixes the
// sampler configuration at construction so per-key estimation reuses the
// precomputed coefficient tables.
// ---------------------------------------------------------------------------

// Matches an entry on everything but l: LthLargest registrations carry a
// representative l, and the requested l is passed to the factory.
bool SpecMatches(const KernelSpec& entry, const KernelSpec& lookup) {
  return entry.function == lookup.function &&
         entry.scheme == lookup.scheme && entry.regime == lookup.regime &&
         entry.family == lookup.family;
}

Status RequireR(int got, int r) {
  if (got != r) {
    return Status::InvalidArgument("kernel requires r = " + std::to_string(r) +
                                   " instances, got " + std::to_string(got));
  }
  return Status::OK();
}

Status RequireBinary(const std::vector<double>& values) {
  for (double v : values) {
    if (v != 0.0 && v != 1.0) {
      return Status::InvalidArgument("OR variance requires binary values");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The two batch paths behind every kernel's Scan.
//
// The scalar path is ONE row loop (ScanRows) over the kernel's row core,
// the inline EstimateRow / SecondMomentRow helpers its scalar Estimate /
// EstimateSecondMoment also call. PIE_SIMD=OFF builds scan through it.
//
// PIE_SIMD builds scan the hot kernels through pattern-partitioned block
// loops instead: each block of kPartitionBlockRows rows is split into
// stable buckets by sampling pattern (engine/pattern_partition.h), and
// every bucket is gathered into dense columns and evaluated by ONE
// branch-free closed form the compiler auto-vectorizes (see the PIE_SIMD
// block in CMakeLists.txt), then scattered back. Each form hoists only
// row-invariant coefficients and otherwise replicates the scalar
// expression tree operation for operation.
//
// Both paths are instantiated per mode through DispatchMode, so a
// point-only scan carries no second-moment work; with the variance they
// combine var = e*e - second in that operation order. The bitwise contract
// is enforced registry-wide by tests/batch_equivalence_test.cc.
// ---------------------------------------------------------------------------

/// Whether kernels with a partitioned block form scan through it.
#ifdef PIE_SIMD
inline constexpr bool kPartitionedScan = true;
#else
inline constexpr bool kPartitionedScan = false;
#endif

/// Calls scan(std::true_type()) when the caller asked for variances (var
/// is not null), scan(std::false_type()) otherwise; the scan bodies read
/// the mode as a constant (decltype(mode)::value).
template <typename ScanFn>
void DispatchMode(const double* var, const ScanFn& scan) {
  if (var != nullptr) {
    scan(std::true_type());
  } else {
    scan(std::false_type());
  }
}

/// The scalar batch path. `row(i, second)` returns row i's estimate and,
/// when `second` is not null, stores the row's second moment there.
template <typename Row>
void ScanRows(const BatchView& batch, double* est, double* var,
              const Row& row) {
  DispatchMode(var, [&](auto mode) {
    constexpr bool kWithVar = decltype(mode)::value;
    for (int i = 0; i < batch.size; ++i) {
      double second = 0.0;
      est[i] = row(i, kWithVar ? &second : nullptr);
      if constexpr (kWithVar) var[i] = est[i] * est[i] - second;
    }
  });
}

/// Squares the sampled entries of a length-r row into `out` (unsampled
/// slots are copied through untouched; the estimators never read them, but
/// copying keeps the row well-formed). The slab-loop twin of the base
/// EstimateSecondMoment's squared-outcome bridge: x * x on the same lanes,
/// so the batched and scalar second-moment paths stay bitwise identical.
inline void SquareSampledRow(const uint8_t* sampled, const double* value,
                             int r, double* out) {
  for (int i = 0; i < r; ++i) {
    out[i] = sampled[i] ? value[i] * value[i] : value[i];
  }
}

/// Vectorizable std::fmin(1.0, x). GCC will not auto-vectorize fmin on
/// x86 (no vector optab for IEEE min), but with the first operand fixed at
/// 1.0 the blend below returns bit-identical values for EVERY input: for
/// non-NaN x it is the ordinary minimum, and for NaN the comparison is
/// false so both forms yield 1.0.
inline double Min1(double x) { return x < 1.0 ? x : 1.0; }

/// Software-prefetches the slab rows a block loop will gather
/// kPrefetchRows rows ahead of `base`. Scans past ~4 threads are
/// memory-bound -- every key touches up to 4 slabs -- and the partition
/// indirection defeats some hardware prefetch, so the block loops hint the
/// next block's value/sampled (and for PPS kernels seed/param) lines ahead
/// of use. Pure hints: no effect on results.
inline void PrefetchSlabsAhead(const BatchView& batch, int base, bool seeds,
                               bool params) {
  const int ahead = base + kPrefetchRows;
  if (ahead >= batch.size) return;
  const int n = std::min(kPartitionBlockRows, batch.size - ahead);
  const size_t lanes =
      static_cast<size_t>(n) * static_cast<size_t>(batch.r);
  PrefetchBytes(batch.value_row(ahead), lanes * sizeof(double));
  PrefetchBytes(batch.sampled_row(ahead), lanes);
  if (seeds) PrefetchBytes(batch.seed_row(ahead), lanes * sizeof(double));
  if (params) PrefetchBytes(batch.param_row(ahead), lanes * sizeof(double));
}

/// Hoisted per-pattern forms of MaxLTwo::EstimateRow (equation (12)).
struct MaxLTwoForms {
  double q, p12, a1, a2;
  explicit MaxLTwoForms(const MaxLTwo& est)
      : q(est.q()),
        p12(est.p1() * est.p2()),
        a1(1.0 / est.p2() - 1.0),
        a2(1.0 / est.p1() - 1.0) {}
  double Only0(double v) const { return v / q; }
  double Only1(double v) const { return v / q; }
  double Both(double v0, double v1) const {
    return std::max(v0, v1) / p12 - (a1 * v0 + a2 * v1) / q;
  }
};

/// Hoisted per-pattern forms of MaxUTwo::EstimateRow (Section 4.2).
struct MaxUTwoForms {
  double pc1, pc2, b1, b2, c, p12;
  explicit MaxUTwoForms(const MaxUTwo& est)
      : pc1(est.p1() * est.c()),
        pc2(est.p2() * est.c()),
        b1(1.0 - est.p2()),
        b2(1.0 - est.p1()),
        c(est.c()),
        p12(est.p1() * est.p2()) {}
  double Only0(double v) const { return v / pc1; }
  double Only1(double v) const { return v / pc2; }
  double Both(double v0, double v1) const {
    return (std::max(v0, v1) - (v0 * b1 + v1 * b2) / c) / p12;
  }
};

/// Hoisted per-pattern forms of MaxUAsymTwo::EstimateRow (Section 4.2).
struct MaxUAsymTwoForms {
  double p1, m, k2, k1, p12;
  explicit MaxUAsymTwoForms(const MaxUAsymTwo& est)
      : p1(est.p1()),
        m(est.m()),
        k2(est.p2() * (1.0 - est.p1()) / est.m()),
        k1(1.0 - est.p2()),
        p12(est.p1() * est.p2()) {}
  double Only0(double v) const { return v / p1; }
  double Only1(double v) const { return v / m; }
  double Both(double v0, double v1) const {
    return (std::max(v0, v1) - k2 * v1 - k1 * v0) / p12;
  }
};

/// Hoisted per-pattern forms of OrLTwo::EstimateRow (Section 4.3).
struct OrLTwoForms {
  double q, p12, a1, a2;
  explicit OrLTwoForms(const OrLTwo& est)
      : q(est.q()),
        p12(est.p1() * est.p2()),
        a1(1.0 / est.p2() - 1.0),
        a2(1.0 / est.p1() - 1.0) {}
  double Only0(double v) const { return v / q; }
  double Only1(double v) const { return v / q; }
  double Both(double v0, double v1) const {
    const double or_v = (v0 != 0.0 || v1 != 0.0) ? 1.0 : 0.0;
    return or_v / p12 - (a1 * v0 + a2 * v1) / q;
  }
};

/// OrUTwo is max^(U) on {0,1}: its forms are max^(U)'s.
struct OrUTwoForms : MaxUTwoForms {
  explicit OrUTwoForms(const OrUTwo& est) : MaxUTwoForms(est.max_u()) {}
};

/// One r=2 bucket's lanes: e = form(v0, v1) and, with the variance, the
/// same form on squared lanes (the bucket twin of SquareSampledRow +
/// EstimateRow) combined as w = e*e - second.
template <bool kWithVar, typename Form>
inline void R2Lanes(const Form& form, const double* v0, const double* v1,
                    int n, double* e, double* w) {
  for (int k = 0; k < n; ++k) {
    e[k] = form(v0[k], v1[k]);
    if constexpr (kWithVar) {
      w[k] = e[k] * e[k] - form(v0[k] * v0[k], v1[k] * v1[k]);
    }
  }
}

/// Applies an r=2 form set bucket by bucket over one partitioned block
/// (`est`/`var` point at the block's first row): rows with neither entry
/// sampled estimate 0 with variance 0.
template <bool kWithVar, typename Forms>
void ApplyR2Forms(const double* value, const R2Partition& part,
                  const Forms& f, double* est, double* var) {
  double v0[kPartitionBlockRows];
  double v1[kPartitionBlockRows];
  double e[kPartitionBlockRows];
  double w[kPartitionBlockRows];
  const auto emit = [&](int bucket) {
    Scatter(e, part.idx[bucket], part.count[bucket], est);
    if constexpr (kWithVar) {
      Scatter(w, part.idx[bucket], part.count[bucket], var);
    }
  };
  ScatterConstant(0.0, part.idx[0], part.count[0], est);
  if constexpr (kWithVar) {
    ScatterConstant(0.0, part.idx[0], part.count[0], var);
  }
  GatherColumn(value, 2, 0, part.idx[1], part.count[1], v0);
  R2Lanes<kWithVar>([&](double a, double) { return f.Only0(a); }, v0, v0,
                    part.count[1], e, w);
  emit(1);
  GatherColumn(value, 2, 1, part.idx[2], part.count[2], v1);
  R2Lanes<kWithVar>([&](double, double b) { return f.Only1(b); }, v1, v1,
                    part.count[2], e, w);
  emit(2);
  GatherColumn(value, 2, 0, part.idx[3], part.count[3], v0);
  GatherColumn(value, 2, 1, part.idx[3], part.count[3], v1);
  R2Lanes<kWithVar>([&](double a, double b) { return f.Both(a, b); }, v0, v1,
                    part.count[3], e, w);
  emit(3);
}

/// Partitioned scan of an r=2 oblivious kernel.
template <typename Forms>
void R2Blocks(BatchView batch, const Forms& f, double* est, double* var) {
  DispatchMode(var, [&](auto mode) {
    constexpr bool kWithVar = decltype(mode)::value;
    for (int base = 0; base < batch.size; base += kPartitionBlockRows) {
      PrefetchSlabsAhead(batch, base, /*seeds=*/false, /*params=*/false);
      const int n = std::min(kPartitionBlockRows, batch.size - base);
      R2Partition part;
      PartitionR2(batch.sampled_row(base), n, &part);
      ApplyR2Forms<kWithVar>(batch.value_row(base), part, f, est + base,
                             kWithVar ? var + base : nullptr);
    }
  });
}

/// Scan for kernels whose surviving rows stay scalar. PIE_SIMD builds
/// partition each block: rows routed to `rest` estimate exactly 0 with
/// variance 0 (they skip the row core and its call machinery), the rest
/// run `row` as in ScanRows. Other builds run ScanRows.
template <typename PartitionFn, typename Row>
void ScanSurvivors(BatchView batch, const PartitionFn& partition,
                   bool prefetch_params, double* est, double* var,
                   const Row& row) {
  if (!kPartitionedScan) {
    ScanRows(batch, est, var, row);
    return;
  }
  DispatchMode(var, [&](auto mode) {
    constexpr bool kWithVar = decltype(mode)::value;
    AllSampledPartition part;
    for (int base = 0; base < batch.size; base += kPartitionBlockRows) {
      PrefetchSlabsAhead(batch, base, /*seeds=*/false, prefetch_params);
      const int n = std::min(kPartitionBlockRows, batch.size - base);
      partition(batch.sampled_row(base), batch.r, n, &part);
      ScatterConstant(0.0, part.rest, part.rest_count, est + base);
      if constexpr (kWithVar) {
        ScatterConstant(0.0, part.rest, part.rest_count, var + base);
      }
      for (int k = 0; k < part.count; ++k) {
        const int i = base + part.idx[k];
        double second = 0.0;
        est[i] = row(i, kWithVar ? &second : nullptr);
        if constexpr (kWithVar) var[i] = est[i] * est[i] - second;
      }
    }
  });
}

/// Aborts unless every sampled value of the r=2 batch is 0 or 1.
void CheckR2BinarySampled(BatchView batch) {
  for (int i = 0; i < batch.size; ++i) {
    const uint8_t* sampled = batch.sampled_row(i);
    const double* value = batch.value_row(i);
    for (int j = 0; j < 2; ++j) {
      if (sampled[j]) {
        PIE_CHECK(value[j] == 0.0 || value[j] == 1.0);
      }
    }
  }
}

/// Branch-free MaxLWeightedTwo::EvalSorted over dense determining-vector
/// lanes. Pass 1 orders each pair by blends and resolves the log-free
/// regimes (hi <= 0; equation (26); the constant regime hi >= tau_hi); the
/// two log regimes (equations (29)/(30)) evaluate in a second pass so the
/// log -- scalar libm in the default tier for bitwise stability, the
/// vectorizable FastLog lanes under PIE_FAST_LOG (core/fast_log.h) -- runs
/// only on lanes that need it. Regime tests replicate EvalSorted's check
/// order exactly.
inline void EvalSortedDense(const double* d1, const double* d2, int n,
                            double tau1, double tau2, double* out) {
  double hi_a[kPartitionBlockRows];
  double lo_a[kPartitionBlockRows];
  double th_a[kPartitionBlockRows];
  double tl_a[kPartitionBlockRows];
  // Pure double lanes (a uint8 regime flag here would block the
  // vectorizer: no 4x8-bit vector type pairs with the 4x64-bit lanes);
  // the compaction loop below re-derives the regime from the stored pairs.
  for (int k = 0; k < n; ++k) {
    const bool first = d1[k] >= d2[k];
    const double hi = first ? d1[k] : d2[k];
    const double lo = first ? d2[k] : d1[k];
    const double th = first ? tau1 : tau2;
    const double tl = first ? tau2 : tau1;
    hi_a[k] = hi;
    lo_a[k] = lo;
    th_a[k] = th;
    tl_a[k] = tl;
    const double e26 = lo + (hi - lo) / Min1(hi / th);
    const bool zero = hi <= 0;
    const bool low_certain = lo >= tl;
    const bool high_certain = hi >= th;
    out[k] = zero ? 0.0 : (low_certain ? e26 : (high_certain ? hi : 0.0));
  }
  // Pass 2: compact the log lanes by regime so only the std::log call
  // itself runs scalar; the divide-heavy arithmetic before and after it is
  // dense and branch-free. Every expression keeps EvalSorted's exact parse
  // tree (additions stay left-associated), so splitting the evaluation
  // around the log does not move a single rounding.
  // Branch-free compaction (unconditional stores + predicated increments):
  // the regime split is ~50/50 on mixed batches, so a branchy loop would
  // mispredict on nearly every lane.
  uint16_t idx29[kPartitionBlockRows];
  uint16_t idx30[kPartitionBlockRows];
  int n29 = 0, n30 = 0;
  for (int k = 0; k < n; ++k) {
    const bool needs_log =
        !(hi_a[k] <= 0) && !(lo_a[k] >= tl_a[k]) && !(hi_a[k] >= th_a[k]);
    const bool is29 = hi_a[k] <= tl_a[k];
    idx29[n29] = static_cast<uint16_t>(k);
    idx30[n30] = static_cast<uint16_t>(k);
    n29 += needs_log && is29 ? 1 : 0;
    n30 += needs_log && !is29 ? 1 : 0;
  }
  // Counters only (the share of serving max^(L) rows that needs a log is
  // a live ratio); the lane math above and below is untouched.
  static obs::Counter& rows_total = obs::MetricsRegistry::Global().GetCounter(
      "pie_simd_maxl_rows_total",
      "Rows through the dense weighted max^(L) r=2 evaluator");
  static obs::Counter* const log_lanes[2] = {
      &obs::MetricsRegistry::Global().GetCounter(
          "pie_simd_log_lanes_total",
          "Rows requiring a scalar std::log, by closed-form equation",
          {{"eq", "29"}}),
      &obs::MetricsRegistry::Global().GetCounter(
          "pie_simd_log_lanes_total",
          "Rows requiring a scalar std::log, by closed-form equation",
          {{"eq", "30"}})};
  rows_total.Add(static_cast<uint64_t>(n));
  const int log_counts[2] = {n29, n30};
  CountBucketRows(log_lanes, log_counts, 2);
  static obs::Counter& fastlog = obs::MetricsRegistry::Global().GetCounter(
      "pie_fastlog_lanes_total",
      "Log-regime lanes evaluated by the vectorized FastLog tier "
      "(PIE_FAST_LOG)");
#ifdef PIE_FAST_LOG
  if (n29 + n30 > 0) fastlog.Add(static_cast<uint64_t>(n29 + n30));
#else
  (void)fastlog;
#endif
  double hi_d[kPartitionBlockRows], lo_d[kPartitionBlockRows];
  double th_d[kPartitionBlockRows], tl_d[kPartitionBlockRows];
  double lg[kPartitionBlockRows], res[kPartitionBlockRows];
  if (n29 > 0) {  // equation (29): hi <= tau_lo
    GatherColumn(hi_a, 1, 0, idx29, n29, hi_d);
    GatherColumn(lo_a, 1, 0, idx29, n29, lo_d);
    GatherColumn(th_a, 1, 0, idx29, n29, th_d);
    GatherColumn(tl_a, 1, 0, idx29, n29, tl_d);
    for (int k = 0; k < n29; ++k) {
      const double b = th_d[k] + tl_d[k];
      lg[k] = (b - lo_d[k]) * hi_d[k] / (lo_d[k] * (b - hi_d[k]));
    }
    for (int k = 0; k < n29; ++k) lg[k] = PieLog(lg[k]);
    for (int k = 0; k < n29; ++k) {
      const double hi = hi_d[k], lo = lo_d[k];
      const double tau_hi = th_d[k], tau_lo = tl_d[k];
      const double b = tau_hi + tau_lo;
      res[k] = tau_hi * tau_lo / (b - hi) +
               tau_hi * tau_lo * (tau_hi - hi) / (hi * b) * lg[k] +
               (hi - lo) * tau_hi * tau_lo * (tau_hi - hi) /
                   (hi * (b - lo) * (b - hi));
    }
    Scatter(res, idx29, n29, out);
  }
  if (n30 > 0) {  // equation (30): tau_lo < hi < tau_hi
    GatherColumn(hi_a, 1, 0, idx30, n30, hi_d);
    GatherColumn(lo_a, 1, 0, idx30, n30, lo_d);
    GatherColumn(th_a, 1, 0, idx30, n30, th_d);
    GatherColumn(tl_a, 1, 0, idx30, n30, tl_d);
    for (int k = 0; k < n30; ++k) {
      const double b = th_d[k] + tl_d[k];
      lg[k] = (b - lo_d[k]) * tl_d[k] / (lo_d[k] * th_d[k]);
    }
    for (int k = 0; k < n30; ++k) lg[k] = PieLog(lg[k]);
    for (int k = 0; k < n30; ++k) {
      const double hi = hi_d[k], lo = lo_d[k];
      const double tau_hi = th_d[k], tau_lo = tl_d[k];
      const double b = tau_hi + tau_lo;
      res[k] = tau_hi + tau_lo - tau_hi * tau_lo / hi +
               tau_hi * tau_lo * (tau_hi - hi) / (hi * b) * lg[k] +
               tau_lo * (tau_hi - hi) * (tau_lo - lo) / ((b - lo) * hi);
    }
    Scatter(res, idx30, n30, out);
  }
}

/// Dense r=2 blocks of MaxHtWeighted: per bucket, the identified max, its
/// identifiability flag, and prob = min(1, mx/tau1) min(1, mx/tau2) are
/// branch-free; non-identified lanes blend to 0.
template <bool kWithVar>
void MaxHtR2Blocks(BatchView batch, double tau1, double tau2, double* est,
                   double* var) {
  for (int base = 0; base < batch.size; base += kPartitionBlockRows) {
    PrefetchSlabsAhead(batch, base, /*seeds=*/true, /*params=*/true);
    const int n = std::min(kPartitionBlockRows, batch.size - base);
    R2Partition part;
    PartitionR2(batch.sampled_row(base), n, &part);
    const double* value = batch.value_row(base);
    const double* seed = batch.seed_row(base);
    const double* tau_row = batch.param_row(base);
    double v[kPartitionBlockRows];
    double sd[kPartitionBlockRows];
    double bt[kPartitionBlockRows];
    double e[kPartitionBlockRows];
    double w[kPartitionBlockRows];
    for (int bucket = 0; bucket < 4; ++bucket) {
      const uint16_t* idx = part.idx[bucket];
      const int cnt = part.count[bucket];
      if (bucket == 0) {
        ScatterConstant(0.0, idx, cnt, est + base);
        if constexpr (kWithVar) ScatterConstant(0.0, idx, cnt, var + base);
        continue;
      }
      if (bucket == 3) {
        GatherColumn(value, 2, 0, idx, cnt, v);
        GatherColumn(value, 2, 1, idx, cnt, sd);  // reuse as v1 lanes
        for (int k = 0; k < cnt; ++k) {
          const double mx = std::max(std::max(0.0, v[k]), sd[k]);
          const bool ok = mx > 0;
          const double prob = Min1(mx / tau1) * Min1(mx / tau2);
          e[k] = ok ? mx / prob : 0.0;
          if constexpr (kWithVar) {
            w[k] = e[k] * e[k] - (ok ? mx * mx / prob : 0.0);
          }
        }
      } else {
        // Exactly one entry sampled: the other entry's seed bound decides
        // identifiability (MaxHtWeighted::IdentifiedMax).
        const int have = bucket == 1 ? 0 : 1;
        const int miss = 1 - have;
        GatherColumn(value, 2, have, idx, cnt, v);
        GatherColumn(seed, 2, miss, idx, cnt, sd);
        GatherColumn(tau_row, 2, miss, idx, cnt, bt);
        // ok = mx > 0 && !(bound > mx) split into two single-comparison
        // blends (v[k] > 0 iff mx > 0 since mx = max(0, v[k])): GCC's
        // if-converter refuses the fused && form, and each chain picks the
        // same value the scalar path does.
        for (int k = 0; k < cnt; ++k) {
          const double mx = std::max(0.0, v[k]);
          const double bound = sd[k] * bt[k];
          const double prob = Min1(mx / tau1) * Min1(mx / tau2);
          const double e_ok = bound > mx ? 0.0 : mx / prob;
          e[k] = v[k] > 0 ? e_ok : 0.0;
          if constexpr (kWithVar) {
            const double s_ok = bound > mx ? 0.0 : mx * mx / prob;
            w[k] = e[k] * e[k] - (v[k] > 0 ? s_ok : 0.0);
          }
        }
      }
      Scatter(e, idx, cnt, est + base);
      if constexpr (kWithVar) Scatter(w, idx, cnt, var + base);
    }
  }
}

/// Dense all-sampled blocks of MinHtWeighted: survivors accumulate the
/// columnwise min and all-sampled probability in entry order (mirroring
/// AllSampledMin); everything else estimates 0 with variance 0.
template <bool kWithVar>
void MinHtBlocks(BatchView batch, const std::vector<double>& tau,
                 double* est, double* var) {
  const int r = static_cast<int>(tau.size());
  for (int base = 0; base < batch.size; base += kPartitionBlockRows) {
    PrefetchSlabsAhead(batch, base, /*seeds=*/false, /*params=*/false);
    const int n = std::min(kPartitionBlockRows, batch.size - base);
    AllSampledPartition part;
    PartitionAllSampled(batch.sampled_row(base), r, n, &part);
    ScatterConstant(0.0, part.rest, part.rest_count, est + base);
    if constexpr (kWithVar) {
      ScatterConstant(0.0, part.rest, part.rest_count, var + base);
    }
    const double* value = batch.value_row(base);
    double col[kPartitionBlockRows];
    double mn[kPartitionBlockRows];
    double prob[kPartitionBlockRows];
    for (int j = 0; j < r; ++j) {
      GatherColumn(value, r, j, part.idx, part.count, col);
      const double tau_j = tau[static_cast<size_t>(j)];
      if (j == 0) {
        for (int k = 0; k < part.count; ++k) {
          mn[k] = col[k];
          prob[k] = Min1(col[k] / tau_j);
        }
      } else {
        for (int k = 0; k < part.count; ++k) {
          mn[k] = std::fmin(mn[k], col[k]);
          prob[k] *= Min1(col[k] / tau_j);
        }
      }
    }
    double e[kPartitionBlockRows];
    double w[kPartitionBlockRows];
    for (int k = 0; k < part.count; ++k) {
      e[k] = mn[k] / prob[k];
      if constexpr (kWithVar) w[k] = e[k] * e[k] - mn[k] * mn[k] / prob[k];
    }
    Scatter(e, part.idx, part.count, est + base);
    if constexpr (kWithVar) Scatter(w, part.idx, part.count, var + base);
  }
}

/// Horvitz-Thompson over weight-oblivious outcomes for any primitive f.
class ObliviousHtKernel : public EstimatorKernel {
 public:
  ObliviousHtKernel(std::string name, VectorFunction f,
                    std::vector<double> p)
      : name_(std::move(name)), f_(std::move(f)), p_(std::move(p)) {}

  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kOblivious);
    return ObliviousHtEstimate(outcome.oblivious, f_);
  }
  double EstimateSecondMoment(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kOblivious);
    const ObliviousOutcome& o = outcome.oblivious;
    std::vector<double> scratch;
    scratch.reserve(p_.size());
    return ObliviousHtSecondMomentRow(o.p.data(), o.sampled.data(),
                                      o.value.data(), o.r(), f_, &scratch);
  }
  void Scan(BatchView batch, double* est, double* var) const override {
    CheckBatchLayout(batch, Scheme::kOblivious,
                     static_cast<int>(p_.size()));
    std::vector<double> scratch;
    scratch.reserve(p_.size());
    // The fused row core shares one f(v) evaluation between the estimate
    // and the second moment.
    const auto row = [&](int i, double* second) {
      double e, s;
      ObliviousHtEstimateWithSecondMomentRow(
          batch.param_row(i), batch.sampled_row(i), batch.value_row(i),
          batch.r, f_, &scratch, &e, &s);
      if (second != nullptr) *second = s;
      return e;
    };
    // All-sampled partition: non-survivors estimate 0 without touching f_
    // (a std::function, so its lane math cannot fuse into a branch-free
    // loop -- the win is routing rows that cannot contribute around the
    // all-sampled scan and call machinery).
    ScanSurvivors(batch, PartitionAllSampled, /*prefetch_params=*/true, est,
                  var, row);
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    return ObliviousHtVariance(values, p_, f_);
  }
  std::string name() const override { return name_; }

 private:
  std::string name_;
  VectorFunction f_;
  std::vector<double> p_;
};

/// The r=2 oblivious max^(L) / max^(U) / max^(Uas) kernels: one core
/// estimator `Est` with an inline EstimateRow, and its hoisted bucket
/// forms `Forms`. The second moment is the base squared-outcome bridge.
template <typename Est, typename Forms>
class ObliviousTwoKernel : public EstimatorKernel {
 public:
  ObliviousTwoKernel(double p1, double p2, const char* name)
      : est_(p1, p2), name_(name) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kOblivious);
    return est_.Estimate(outcome.oblivious);
  }
  void Scan(BatchView batch, double* est, double* var) const override {
    CheckBatchLayout(batch, Scheme::kOblivious, 2);
    if (kPartitionedScan) {
      R2Blocks(batch, Forms(est_), est, var);
      return;
    }
    ScanRows(batch, est, var, [&](int i, double* second) {
      const uint8_t* sampled = batch.sampled_row(i);
      const double* value = batch.value_row(i);
      if (second != nullptr) {
        double sq[2];
        SquareSampledRow(sampled, value, 2, sq);
        *second = est_.EstimateRow(sampled, sq);
      }
      return est_.EstimateRow(sampled, value);
    });
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    PIE_RETURN_IF_ERROR(RequireR(static_cast<int>(values.size()), 2));
    return est_.Variance(values[0], values[1]);
  }
  std::string name() const override { return name_; }

 private:
  Est est_;
  const char* name_;
};

class MaxLThreeKernel : public EstimatorKernel {
 public:
  MaxLThreeKernel(double p1, double p2, double p3) : est_(p1, p2, p3) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kOblivious);
    return est_.Estimate(outcome.oblivious);
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    PIE_RETURN_IF_ERROR(RequireR(static_cast<int>(values.size()), 3));
    return est_.Variance({values[0], values[1], values[2]});
  }
  std::string name() const override { return "max^(L) oblivious r=3"; }

 private:
  MaxLThree est_;
};

class MaxLUniformKernel : public EstimatorKernel {
 public:
  MaxLUniformKernel(int r, double p) : est_(r, p) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kOblivious);
    return est_.Estimate(outcome.oblivious);
  }
  void Scan(BatchView batch, double* est, double* var) const override {
    const int r = est_.r();
    CheckBatchLayout(batch, Scheme::kOblivious, r);
    std::vector<double> scratch;
    scratch.reserve(static_cast<size_t>(r));
    std::vector<double> sq(static_cast<size_t>(r));
    const auto row = [&](int i, double* second) {
      const uint8_t* sampled = batch.sampled_row(i);
      const double* value = batch.value_row(i);
      const double e = est_.EstimateRow(sampled, value, &scratch);
      if (second != nullptr) {
        SquareSampledRow(sampled, value, r, sq.data());
        *second = est_.EstimateRow(sampled, sq.data(), &scratch);
      }
      return e;
    };
    // The Theorem 4.2 estimate is a sorted dot product, so survivor rows
    // stay scalar; partitioning pays by routing empty outcomes (estimate
    // exactly 0) around the sort entirely.
    ScanSurvivors(batch, PartitionAnySampled, /*prefetch_params=*/false, est,
                  var, row);
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    if (static_cast<int>(values.size()) != est_.r() || est_.r() > 25) {
      return Status::InvalidArgument(
          "exact max^(L) variance needs matching r <= 25");
    }
    return est_.Variance(values);
  }
  std::string name() const override {
    return "max^(L) oblivious uniform r=" + std::to_string(est_.r());
  }

 private:
  MaxLUniform est_;
};

/// Base of the binary-domain (OR) kernels: OR(v)^2 = OR(v), so the point
/// estimate IS the unbiased second-moment estimate (and 0/1 are fixed
/// points of squaring, so this is bitwise the base squared-outcome
/// bridge). Scan runs the derived kernel's point-only ScanEstimates and,
/// with the variance, combines var = e*e - e.
template <typename Derived>
class BinaryKernel : public EstimatorKernel {
 public:
  double EstimateSecondMoment(const Outcome& outcome) const override {
    return Estimate(outcome);
  }
  void Scan(BatchView batch, double* est, double* var) const override {
    static_cast<const Derived&>(*this).ScanEstimates(batch, est);
    if (var == nullptr) return;
    for (int i = 0; i < batch.size; ++i) {
      var[i] = est[i] * est[i] - est[i];
    }
  }
};

/// The r=2 oblivious OR^(L) / OR^(U) kernels.
template <typename Est, typename Forms>
class OrTwoKernel : public BinaryKernel<OrTwoKernel<Est, Forms>> {
 public:
  OrTwoKernel(double p1, double p2, const char* name)
      : est_(p1, p2), name_(name) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kOblivious);
    return est_.Estimate(outcome.oblivious);
  }
  void ScanEstimates(BatchView batch, double* est) const {
    CheckBatchLayout(batch, Scheme::kOblivious, 2);
    if (kPartitionedScan) {
      // OrUTwo's row form checks that sampled values are binary before
      // delegating to max^(U); keep the checks (they guard caller bugs) in
      // one pass ahead of the branch-free bucket loops.
      if constexpr (std::is_same_v<Est, OrUTwo>) CheckR2BinarySampled(batch);
      R2Blocks(batch, Forms(est_), est, nullptr);
      return;
    }
    ScanRows(batch, est, nullptr, [&](int i, double*) {
      return est_.EstimateRow(batch.sampled_row(i), batch.value_row(i));
    });
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    PIE_RETURN_IF_ERROR(RequireR(static_cast<int>(values.size()), 2));
    PIE_RETURN_IF_ERROR(RequireBinary(values));
    return est_.Variance(static_cast<int>(values[0]),
                         static_cast<int>(values[1]));
  }
  std::string name() const override { return name_; }

 private:
  Est est_;
  const char* name_;
};

class OrLUniformKernel : public BinaryKernel<OrLUniformKernel> {
 public:
  OrLUniformKernel(int r, double p) : est_(r, p) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kOblivious);
    return est_.Estimate(outcome.oblivious);
  }
  void ScanEstimates(BatchView batch, double* est) const {
    CheckBatchLayout(batch, Scheme::kOblivious, est_.r());
    // The estimate is a prefix-sum lookup on the row's counts, so the row
    // loop serves every build.
    ScanRows(batch, est, nullptr, [&](int i, double*) {
      return est_.EstimateRow(batch.sampled_row(i), batch.value_row(i));
    });
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    PIE_RETURN_IF_ERROR(RequireR(static_cast<int>(values.size()), est_.r()));
    PIE_RETURN_IF_ERROR(RequireBinary(values));
    int ones = 0;
    for (double v : values) ones += v != 0.0 ? 1 : 0;
    return est_.Variance(ones);
  }
  std::string name() const override {
    return "OR^(L) oblivious uniform r=" + std::to_string(est_.r());
  }

 private:
  OrLUniform est_;
};

class MaxHtWeightedKernel : public EstimatorKernel {
 public:
  explicit MaxHtWeightedKernel(std::vector<double> tau)
      : est_(std::move(tau)) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kPps);
    return est_.Estimate(outcome.pps);
  }
  double EstimateSecondMoment(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kPps);
    const PpsOutcome& o = outcome.pps;
    return est_.SecondMomentRow(o.tau.data(), o.seed.data(),
                                o.sampled.data(), o.value.data());
  }
  void Scan(BatchView batch, double* est, double* var) const override {
    const std::vector<double>& tau = est_.tau();
    CheckBatchLayout(batch, Scheme::kPps, static_cast<int>(tau.size()));
    if (kPartitionedScan && tau.size() == 2) {
      DispatchMode(var, [&](auto mode) {
        MaxHtR2Blocks<decltype(mode)::value>(batch, tau[0], tau[1], est,
                                             var);
      });
      return;
    }
    ScanRows(batch, est, var, [&](int i, double* second) {
      double e, s;
      est_.EstimateWithSecondMomentRow(batch.param_row(i), batch.seed_row(i),
                                       batch.sampled_row(i),
                                       batch.value_row(i), &e, &s);
      if (second != nullptr) *second = s;
      return e;
    });
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    return est_.Variance(values);
  }
  std::string name() const override {
    return "max^(HT) pps known-seeds r=" +
           std::to_string(est_.tau().size());
  }

 private:
  MaxHtWeighted est_;
};

class MaxLWeightedTwoKernel : public EstimatorKernel {
 public:
  MaxLWeightedTwoKernel(double tau1, double tau2, double quad_tol)
      : est_(tau1, tau2, quad_tol), second_({tau1, tau2}) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kPps);
    return est_.Estimate(outcome.pps);
  }
  // The second moment uses the identifiable-event inverse-probability form
  // (max_sampled^2 / p on outcomes that pin down max(v)); any unbiased
  // estimator of max^2 serves, and this one is closed-form, nonnegative,
  // and shares the slab layout -- see MaxHtWeighted::SecondMomentRow.
  double EstimateSecondMoment(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kPps);
    const PpsOutcome& o = outcome.pps;
    return second_.SecondMomentRow(o.tau.data(), o.seed.data(),
                                   o.sampled.data(), o.value.data());
  }
  void Scan(BatchView batch, double* est, double* var) const override {
    CheckBatchLayout(batch, Scheme::kPps, 2);
    if (kPartitionedScan) {
      DispatchMode(var, [&](auto mode) {
        ScanBlocks<decltype(mode)::value>(batch, est, var);
      });
      return;
    }
    ScanRows(batch, est, var, [&](int i, double* second) {
      const double* tau = batch.param_row(i);
      const double* seed = batch.seed_row(i);
      const uint8_t* sampled = batch.sampled_row(i);
      const double* value = batch.value_row(i);
      if (second != nullptr) {
        *second = second_.SecondMomentRow(tau, seed, sampled, value);
      }
      return est_.EstimateRow(tau, seed, sampled, value);
    });
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    PIE_RETURN_IF_ERROR(RequireR(static_cast<int>(values.size()), 2));
    return est_.Variance(values[0], values[1]);
  }
  std::string name() const override { return "max^(L) pps known-seeds r=2"; }

 private:
  // Pattern-partitioned: each sampled bucket builds its determining vector
  // (d1, d2) branch-free and, with the variance, the identifiable-event
  // second-moment lane s from the SAME gathered columns (they share the
  // largest sampled value and the seed upper bounds). The buckets fill
  // disjoint SEGMENTS of one dense lane array, so EvalSortedDense (one
  // pass-1 sweep, one log compaction, one vector tail) and the var combine
  // run once per block instead of once per bucket; the evaluation is
  // per-lane independent, so concatenation changes no bits. Every
  // expression matches MaxLWeightedTwo::EstimateRow /
  // MaxHtWeighted::SecondMomentRow operation for operation.
  template <bool kWithVar>
  void ScanBlocks(BatchView batch, double* est, double* var) const {
    const double tau1 = est_.tau1();
    const double tau2 = est_.tau2();
    for (int base = 0; base < batch.size; base += kPartitionBlockRows) {
      PrefetchSlabsAhead(batch, base, /*seeds=*/true, /*params=*/true);
      const int n = std::min(kPartitionBlockRows, batch.size - base);
      R2Partition part;
      PartitionR2(batch.sampled_row(base), n, &part);
      const double* value = batch.value_row(base);
      const double* seed = batch.seed_row(base);
      const double* tau = batch.param_row(base);
      double d1[kPartitionBlockRows], d2[kPartitionBlockRows];
      double sd[kPartitionBlockRows], bt[kPartitionBlockRows];
      double e[kPartitionBlockRows], s[kPartitionBlockRows];
      double w[kPartitionBlockRows];
      ScatterConstant(0.0, part.idx[0], part.count[0], est + base);
      if constexpr (kWithVar) {
        ScatterConstant(0.0, part.idx[0], part.count[0], var + base);
      }
      int seg[4] = {0, 0, 0, 0};
      int off = 0;
      for (int bucket = 1; bucket <= 2; ++bucket) {
        const uint16_t* idx = part.idx[bucket];
        const int cnt = part.count[bucket];
        seg[bucket] = off;
        if (cnt == 0) continue;
        const int have = bucket == 1 ? 0 : 1;
        const int miss = 1 - have;
        double* dh = (bucket == 1 ? d1 : d2) + off;
        double* dm = (bucket == 1 ? d2 : d1) + off;
        double* sb = s + off;
        GatherColumn(value, 2, have, idx, cnt, dh);
        GatherColumn(seed, 2, miss, idx, cnt, sd);
        GatherColumn(tau, 2, miss, idx, cnt, bt);
        // ok split into single-comparison blends as in MaxHtR2Blocks.
        for (int k = 0; k < cnt; ++k) {
          const double bound = sd[k] * bt[k];
          dm[k] = std::min(bound, dh[k]);
          if constexpr (kWithVar) {
            const double mx = std::max(0.0, dh[k]);
            const double prob = Min1(mx / tau1) * Min1(mx / tau2);
            const double s_ok = bound > mx ? 0.0 : mx * mx / prob;
            sb[k] = dh[k] > 0 ? s_ok : 0.0;
          }
        }
        off += cnt;
      }
      seg[3] = off;
      if (part.count[3] > 0) {
        const uint16_t* idx = part.idx[3];
        const int cnt = part.count[3];
        double* da = d1 + off;
        double* db = d2 + off;
        double* sb = s + off;
        GatherColumn(value, 2, 0, idx, cnt, da);
        GatherColumn(value, 2, 1, idx, cnt, db);
        if constexpr (kWithVar) {
          for (int k = 0; k < cnt; ++k) {
            const double mx = std::max(std::max(0.0, da[k]), db[k]);
            const double prob = Min1(mx / tau1) * Min1(mx / tau2);
            sb[k] = mx > 0 ? mx * mx / prob : 0.0;
          }
        }
        off += cnt;
      }
      if (off > 0) {
        EvalSortedDense(d1, d2, off, tau1, tau2, e);
        if constexpr (kWithVar) {
          for (int k = 0; k < off; ++k) w[k] = e[k] * e[k] - s[k];
        }
        for (int bucket = 1; bucket <= 3; ++bucket) {
          Scatter(e + seg[bucket], part.idx[bucket], part.count[bucket],
                  est + base);
          if constexpr (kWithVar) {
            Scatter(w + seg[bucket], part.idx[bucket], part.count[bucket],
                    var + base);
          }
        }
      }
    }
  }

  MaxLWeightedTwo est_;
  MaxHtWeighted second_;
};

/// OR over weighted PPS samples with known seeds, r = 2; the family selects
/// HT, L, or U through the binary outcome mapping of Section 5.1.
class OrWeightedTwoKernel : public BinaryKernel<OrWeightedTwoKernel> {
 public:
  OrWeightedTwoKernel(double tau1, double tau2, Family family)
      : est_(tau1, tau2), family_(family) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kPps);
    switch (family_) {
      case Family::kHt:
        return est_.EstimateHt(outcome.pps);
      case Family::kL:
        return est_.EstimateL(outcome.pps);
      default:
        return est_.EstimateU(outcome.pps);
    }
  }
  void ScanEstimates(BatchView batch, double* est) const {
    CheckBatchLayout(batch, Scheme::kPps, 2);
    if (kPartitionedScan) {
      ScanBlocks(batch, est);
      return;
    }
    ScanRows(batch, est, nullptr, [&](int i, double*) {
      const double* tau = batch.param_row(i);
      const double* seed = batch.seed_row(i);
      const uint8_t* sampled = batch.sampled_row(i);
      const double* value = batch.value_row(i);
      switch (family_) {
        case Family::kHt:
          return est_.EstimateHtRow(tau, seed, sampled, value);
        case Family::kL:
          return est_.EstimateLRow(tau, seed, sampled, value);
        default:
          return est_.EstimateURow(tau, seed, sampled, value);
      }
    });
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    PIE_RETURN_IF_ERROR(RequireR(static_cast<int>(values.size()), 2));
    PIE_RETURN_IF_ERROR(RequireBinary(values));
    // Section 5.1: over binary domains the known-seeds weighted outcome is
    // equivalent to an oblivious one with p_i = min(1, 1/tau_i).
    const int v1 = static_cast<int>(values[0]);
    const int v2 = static_cast<int>(values[1]);
    switch (family_) {
      case Family::kHt:
        return OrOf(values) == 0.0 ? 0.0
                                   : OrHtVariance({est_.p1(), est_.p2()});
      case Family::kL:
        return OrLTwo(est_.p1(), est_.p2()).Variance(v1, v2);
      default:
        return OrUTwo(est_.p1(), est_.p2()).Variance(v1, v2);
    }
  }
  std::string name() const override {
    return std::string("OR^(") + FamilyToString(family_) +
           ") pps known-seeds r=2";
  }

 private:
  // Section 5.1 mapping first (per row, keeps its checks), then the rows
  // are partitioned on the MAPPED sampled flags -- a seed below p_i turns
  // a missing entry into a certified zero, so the mapped pattern, not the
  // raw one, selects the estimator's closed form.
  void ScanBlocks(BatchView batch, double* out) const {
    for (int base = 0; base < batch.size; base += kPartitionBlockRows) {
      const int n = std::min(kPartitionBlockRows, batch.size - base);
      double p_blk[2 * kPartitionBlockRows];
      uint8_t s_blk[2 * kPartitionBlockRows];
      double v_blk[2 * kPartitionBlockRows];
      for (int i = 0; i < n; ++i) {
        const int row = base + i;
        MapBinaryPpsRowToOblivious(batch.param_row(row), batch.seed_row(row),
                                   batch.sampled_row(row),
                                   batch.value_row(row), 2, p_blk + 2 * i,
                                   s_blk + 2 * i, v_blk + 2 * i);
      }
      R2Partition part;
      PartitionR2(s_blk, n, &part);
      switch (family_) {
        case Family::kL:
          ApplyR2Forms<false>(v_blk, part, OrLTwoForms(est_.or_l()),
                              out + base, nullptr);
          break;
        case Family::kHt: {  // positive only when both mapped-sampled.
          ScatterConstant(0.0, part.idx[0], part.count[0], out + base);
          ScatterConstant(0.0, part.idx[1], part.count[1], out + base);
          ScatterConstant(0.0, part.idx[2], part.count[2], out + base);
          const uint16_t* idx = part.idx[3];
          const int cnt = part.count[3];
          if (cnt > 0) {
            double v0[kPartitionBlockRows], v1[kPartitionBlockRows];
            double p0[kPartitionBlockRows], p1[kPartitionBlockRows];
            double e[kPartitionBlockRows];
            GatherColumn(v_blk, 2, 0, idx, cnt, v0);
            GatherColumn(v_blk, 2, 1, idx, cnt, v1);
            GatherColumn(p_blk, 2, 0, idx, cnt, p0);
            GatherColumn(p_blk, 2, 1, idx, cnt, p1);
            for (int k = 0; k < cnt; ++k) {
              const bool any = v0[k] != 0.0 || v1[k] != 0.0;
              e[k] = any ? 1.0 / (p0[k] * p1[k]) : 0.0;
            }
            Scatter(e, idx, cnt, out + base);
          }
          break;
        }
        default:
          // Mapped values are 0/1 by construction (the mapping already
          // checked them), so OrUTwo reduces to its max^(U) arithmetic.
          ApplyR2Forms<false>(v_blk, part, OrUTwoForms(est_.or_u()),
                              out + base, nullptr);
          break;
      }
    }
  }

  OrWeightedTwo est_;
  Family family_;
};

/// OR over r weighted PPS samples with a uniform threshold, HT or L. Its
/// survivor rows stay scalar after the Section 5.1 mapping, so it scans
/// through the row loop in every build.
class OrWeightedUniformKernel
    : public BinaryKernel<OrWeightedUniformKernel> {
 public:
  OrWeightedUniformKernel(int r, double tau, Family family)
      : est_(r, tau), family_(family) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kPps);
    return family_ == Family::kHt ? est_.EstimateHt(outcome.pps)
                                  : est_.EstimateL(outcome.pps);
  }
  void ScanEstimates(BatchView batch, double* est) const {
    CheckBatchLayout(batch, Scheme::kPps, est_.r());
    std::vector<double> p(static_cast<size_t>(est_.r()));
    std::vector<uint8_t> s(static_cast<size_t>(est_.r()));
    std::vector<double> v(static_cast<size_t>(est_.r()));
    ScanRows(batch, est, nullptr, [&](int i, double*) {
      return family_ == Family::kHt
                 ? est_.EstimateHtRow(batch.param_row(i), batch.seed_row(i),
                                      batch.sampled_row(i),
                                      batch.value_row(i), p.data(), s.data(),
                                      v.data())
                 : est_.EstimateLRow(batch.param_row(i), batch.seed_row(i),
                                     batch.sampled_row(i),
                                     batch.value_row(i), p.data(), s.data(),
                                     v.data());
    });
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    PIE_RETURN_IF_ERROR(RequireR(static_cast<int>(values.size()), est_.r()));
    PIE_RETURN_IF_ERROR(RequireBinary(values));
    if (OrOf(values) == 0.0) return 0.0;
    if (family_ == Family::kHt) {
      return OrHtVariance(std::vector<double>(
          static_cast<size_t>(est_.r()), est_.p()));
    }
    int ones = 0;
    for (double v : values) ones += v != 0.0 ? 1 : 0;
    return OrLUniform(est_.r(), est_.p()).Variance(ones);
  }
  std::string name() const override {
    return std::string("OR^(") + FamilyToString(family_) +
           ") pps known-seeds uniform r=" + std::to_string(est_.r());
  }

 private:
  OrWeightedUniform est_;
  Family family_;
};

class MinHtWeightedKernel : public EstimatorKernel {
 public:
  explicit MinHtWeightedKernel(std::vector<double> tau)
      : est_(std::move(tau)) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kPps);
    return est_.Estimate(outcome.pps);
  }
  double EstimateSecondMoment(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kPps);
    return est_.SecondMomentRow(outcome.pps.sampled.data(),
                                outcome.pps.value.data());
  }
  void Scan(BatchView batch, double* est, double* var) const override {
    CheckBatchLayout(batch, Scheme::kPps,
                     static_cast<int>(est_.tau().size()));
    if (kPartitionedScan) {
      DispatchMode(var, [&](auto mode) {
        MinHtBlocks<decltype(mode)::value>(batch, est_.tau(), est, var);
      });
      return;
    }
    ScanRows(batch, est, var, [&](int i, double* second) {
      double e, s;
      est_.EstimateWithSecondMomentRow(batch.sampled_row(i),
                                       batch.value_row(i), &e, &s);
      if (second != nullptr) *second = s;
      return e;
    });
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    return est_.Variance(values);
  }
  std::string name() const override {
    return "min^(HT) pps r=" + std::to_string(est_.tau().size());
  }

 private:
  MinHtWeighted est_;
};

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

using KernelResult = Result<std::unique_ptr<EstimatorKernel>>;

template <typename K, typename... Args>
KernelResult Make(Args&&... args) {
  return std::unique_ptr<EstimatorKernel>(new K(std::forward<Args>(args)...));
}

KernelResult MakeMaxObliviousL(const KernelSpec&,
                               const SamplingParams& params) {
  const auto& p = params.per_entry;
  if (params.r() == 2) {
    return Make<ObliviousTwoKernel<MaxLTwo, MaxLTwoForms>>(
        p[0], p[1], "max^(L) oblivious r=2");
  }
  if (params.r() == 3) return Make<MaxLThreeKernel>(p[0], p[1], p[2]);
  if (params.r() >= 1 && params.IsUniform()) {
    return Make<MaxLUniformKernel>(params.r(), p[0]);
  }
  return Status::InvalidArgument(
      "general-p max^(L) has closed forms only for r <= 3; r >= 4 requires "
      "uniform p (Theorem 4.2)");
}

KernelResult MakeMaxObliviousU(const KernelSpec&,
                               const SamplingParams& params) {
  PIE_RETURN_IF_ERROR(RequireR(params.r(), 2));
  return Make<ObliviousTwoKernel<MaxUTwo, MaxUTwoForms>>(
      params.per_entry[0], params.per_entry[1], "max^(U) oblivious r=2");
}

KernelResult MakeMaxObliviousUAsym(const KernelSpec&,
                                   const SamplingParams& params) {
  PIE_RETURN_IF_ERROR(RequireR(params.r(), 2));
  return Make<ObliviousTwoKernel<MaxUAsymTwo, MaxUAsymTwoForms>>(
      params.per_entry[0], params.per_entry[1], "max^(Uas) oblivious r=2");
}

KernelResult MakeMaxObliviousHt(const KernelSpec&,
                                const SamplingParams& params) {
  return Make<ObliviousHtKernel>(
      "max^(HT) oblivious r=" + std::to_string(params.r()), MaxOf,
      params.per_entry);
}

KernelResult MakeOrObliviousL(const KernelSpec&,
                              const SamplingParams& params) {
  const auto& p = params.per_entry;
  if (params.r() == 2) {
    return Make<OrTwoKernel<OrLTwo, OrLTwoForms>>(p[0], p[1],
                                                  "OR^(L) oblivious r=2");
  }
  if (params.r() >= 1 && params.IsUniform()) {
    return Make<OrLUniformKernel>(params.r(), p[0]);
  }
  return Status::InvalidArgument(
      "general-p OR^(L) has closed forms only for r = 2; r >= 3 requires "
      "uniform p");
}

KernelResult MakeOrObliviousU(const KernelSpec&,
                              const SamplingParams& params) {
  PIE_RETURN_IF_ERROR(RequireR(params.r(), 2));
  return Make<OrTwoKernel<OrUTwo, OrUTwoForms>>(
      params.per_entry[0], params.per_entry[1], "OR^(U) oblivious r=2");
}

KernelResult MakeOrObliviousHt(const KernelSpec&,
                               const SamplingParams& params) {
  return Make<ObliviousHtKernel>(
      "OR^(HT) oblivious r=" + std::to_string(params.r()), OrOf,
      params.per_entry);
}

KernelResult MakeMaxPpsL(const KernelSpec&, const SamplingParams& params) {
  PIE_RETURN_IF_ERROR(RequireR(params.r(), 2));
  return Make<MaxLWeightedTwoKernel>(params.per_entry[0], params.per_entry[1],
                                     params.quad_tol);
}

KernelResult MakeMaxPpsHt(const KernelSpec&, const SamplingParams& params) {
  if (params.r() < 1) return Status::InvalidArgument("empty params");
  return Make<MaxHtWeightedKernel>(params.per_entry);
}

KernelResult MakeOrPps(const KernelSpec& spec, const SamplingParams& params) {
  if (params.r() == 2) {
    return Make<OrWeightedTwoKernel>(params.per_entry[0], params.per_entry[1],
                                     spec.family);
  }
  if (spec.family != Family::kU && params.r() >= 1 && params.IsUniform()) {
    return Make<OrWeightedUniformKernel>(params.r(), params.per_entry[0],
                                         spec.family);
  }
  return Status::InvalidArgument(
      "weighted OR supports r = 2 (any thresholds) or uniform tau (HT/L)");
}

KernelResult MakeMinPpsHt(const KernelSpec&, const SamplingParams& params) {
  if (params.r() < 1) return Status::InvalidArgument("empty params");
  return Make<MinHtWeightedKernel>(params.per_entry);
}

KernelResult MakeLthLargestHt(const KernelSpec& spec,
                              const SamplingParams& params) {
  if (spec.l < 1 || spec.l > params.r()) {
    return Status::InvalidArgument("order statistic l must be in [1, r]");
  }
  const int l = spec.l;
  return Make<ObliviousHtKernel>(
      "lth-largest^(HT) oblivious l=" + std::to_string(l) +
          " r=" + std::to_string(params.r()),
      [l](const std::vector<double>& v) { return LthOf(v, l); },
      params.per_entry);
}

void RegisterBuiltins(KernelRegistry& registry) {
  auto add = [&registry](Function fn, Scheme sc, Regime re, Family fa,
                         std::string description, KernelFactory factory,
                         std::vector<SamplingParams> examples, int l = 1) {
    KernelEntry entry;
    entry.spec = {fn, sc, re, fa, l};
    entry.description = std::move(description);
    entry.factory = std::move(factory);
    entry.example_params = std::move(examples);
    PIE_CHECK_OK(registry.Register(std::move(entry)));
  };

  // --- weight-oblivious Poisson (Section 4) ---
  add(Function::kMax, Scheme::kOblivious, Regime::kKnownSeeds, Family::kL,
      "dense-first Pareto-optimal max (Thm 4.1/4.2)", MakeMaxObliviousL,
      {{0.5, 0.3}, {0.5, 0.3, 0.7}, {0.4, 0.4, 0.4, 0.4}});
  add(Function::kMax, Scheme::kOblivious, Regime::kKnownSeeds, Family::kU,
      "sparse-first Pareto-optimal max (Sec 4.2)", MakeMaxObliviousU,
      {{0.5, 0.3}});
  add(Function::kMax, Scheme::kOblivious, Regime::kKnownSeeds,
      Family::kUAsym, "asymmetric Pareto-optimal max (Sec 4.2)",
      MakeMaxObliviousUAsym, {{0.5, 0.3}});
  add(Function::kMax, Scheme::kOblivious, Regime::kKnownSeeds, Family::kHt,
      "all-sampled Horvitz-Thompson max", MakeMaxObliviousHt,
      {{0.5, 0.3}, {0.6, 0.7, 0.8}});
  add(Function::kOr, Scheme::kOblivious, Regime::kKnownSeeds, Family::kL,
      "dense-first OR, the distinct-count building block (Sec 4.3)",
      MakeOrObliviousL, {{0.5, 0.3}, {0.2, 0.2, 0.2, 0.2}});
  add(Function::kOr, Scheme::kOblivious, Regime::kKnownSeeds, Family::kU,
      "sparse-first OR (Sec 4.3)", MakeOrObliviousU, {{0.5, 0.3}});
  add(Function::kOr, Scheme::kOblivious, Regime::kKnownSeeds, Family::kHt,
      "all-sampled Horvitz-Thompson OR", MakeOrObliviousHt,
      {{0.5, 0.3}, {0.3, 0.3, 0.3}});
  add(Function::kLthLargest, Scheme::kOblivious, Regime::kKnownSeeds,
      Family::kHt, "all-sampled Horvitz-Thompson l-th largest",
      MakeLthLargestHt, {{0.5, 0.4, 0.6}}, /*l=*/2);

  // --- weighted PPS with known seeds (Section 5) ---
  add(Function::kMax, Scheme::kPps, Regime::kKnownSeeds, Family::kL,
      "Pareto-optimal weighted max from seed bounds (Sec 5.2)", MakeMaxPpsL,
      {{10.0, 8.0}});
  add(Function::kMax, Scheme::kPps, Regime::kKnownSeeds, Family::kHt,
      "inverse-probability weighted max (Sec 5.2)", MakeMaxPpsHt,
      {{10.0, 8.0}, {5.0, 7.0, 9.0}});
  add(Function::kOr, Scheme::kPps, Regime::kKnownSeeds, Family::kL,
      "weighted OR via the binary outcome mapping (Sec 5.1)", MakeOrPps,
      {{3.0, 2.0}, {4.0, 4.0, 4.0}});
  add(Function::kOr, Scheme::kPps, Regime::kKnownSeeds, Family::kU,
      "weighted OR^(U) via the binary outcome mapping (Sec 5.1)", MakeOrPps,
      {{3.0, 2.0}});
  add(Function::kOr, Scheme::kPps, Regime::kKnownSeeds, Family::kHt,
      "weighted OR^(HT) via the binary outcome mapping (Sec 5.1)", MakeOrPps,
      {{3.0, 2.0}, {4.0, 4.0, 4.0}});

  // --- weighted PPS, unknown seeds (Section 6) ---
  add(Function::kMin, Scheme::kPps, Regime::kUnknownSeeds, Family::kHt,
      "inverse-probability min, the one unknown-seeds quantile (Sec 6)",
      MakeMinPpsHt, {{10.0, 8.0}, {6.0, 6.0, 6.0}});
}

}  // namespace

KernelRegistry& KernelRegistry::Global() {
  static KernelRegistry* registry = [] {
    auto* r = new KernelRegistry();
    RegisterBuiltins(*r);
    return r;
  }();
  return *registry;
}

Status KernelRegistry::Register(KernelEntry entry) {
  if (!entry.factory) {
    return Status::InvalidArgument("kernel entry has no factory");
  }
  // Dedup on the same key lookup uses (l is a factory parameter, not part
  // of the lookup key): a second entry differing only in l would be
  // silently unreachable, so reject it here instead.
  for (const auto& existing : entries_) {
    if (SpecMatches(existing.spec, entry.spec)) {
      return Status::InvalidArgument("duplicate kernel spec " +
                                     entry.spec.ToString());
    }
  }
  entries_.push_back(std::move(entry));
  return Status::OK();
}

KernelSpec KernelRegistry::CanonicalSpec(const KernelSpec& spec) const {
  KernelSpec lookup = spec;
  // The oblivious sampled set is full information; both regimes name the
  // same estimator.
  if (lookup.scheme == Scheme::kOblivious) {
    lookup.regime = Regime::kKnownSeeds;
    return lookup;
  }
  // An estimator that needs only unknown seeds remains valid when seeds are
  // known; a known-seeds request served only by an unknown-seeds
  // registration canonicalizes to it.
  if (lookup.scheme == Scheme::kPps && lookup.regime == Regime::kKnownSeeds) {
    for (const auto& entry : entries_) {
      if (SpecMatches(entry.spec, lookup)) return lookup;
    }
    KernelSpec weaker = lookup;
    weaker.regime = Regime::kUnknownSeeds;
    for (const auto& entry : entries_) {
      if (SpecMatches(entry.spec, weaker)) return weaker;
    }
  }
  return lookup;
}

namespace {

/// Labels registry-created kernels with per-spec scan counters (the labels
/// name the CANONICAL spec actually served, so e.g. an oblivious
/// unknown-seeds request counts under known-seeds). Registration is
/// memoized by the metrics registry; the engine additionally memoizes
/// whole kernels, so this runs once per distinct (spec, params).
void AttachKernelCounters(const KernelSpec& spec, EstimatorKernel* kernel) {
  const obs::Labels labels = {{"function", FunctionToString(spec.function)},
                              {"scheme", SchemeToString(spec.scheme)},
                              {"regime", RegimeToString(spec.regime)},
                              {"family", FamilyToString(spec.family)}};
  auto& reg = obs::MetricsRegistry::Global();
  kernel->obs_scans =
      &reg.GetCounter("pie_kernel_scans_total",
                      "Batch scans served, by kernel spec", labels);
  kernel->obs_rows =
      &reg.GetCounter("pie_kernel_rows_total",
                      "Rows estimated, by kernel spec", labels);
}

}  // namespace

Result<std::unique_ptr<EstimatorKernel>> KernelRegistry::Create(
    const KernelSpec& spec, const SamplingParams& params) const {
  const KernelSpec lookup = CanonicalSpec(spec);
  for (const auto& entry : entries_) {
    if (SpecMatches(entry.spec, lookup)) {
      auto created = entry.factory(lookup, params);
      if (created.ok()) {
        AttachKernelCounters(lookup, created->get());
      }
      return created;
    }
  }
  return Status::NotFound("no kernel registered for " + spec.ToString());
}

}  // namespace pie
