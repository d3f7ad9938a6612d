// Support code for the end-to-end ledger (perfbench/ledger.cc): the
// benchmark-side span recorder, the correctness checker, latency summaries,
// obs-registry deltas, the host/build fingerprint, and result output.
//
// Everything here lives in the benchmark, not in the library: spans wrap
// the benchmark's own calls into each layer's public API, and per-layer
// counters come from the instruments the library already exports
// (obs::MetricsRegistry::Snapshot).

#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <cpuid.h>
#include <sys/resource.h>
#include <unistd.h>

#include "accuracy/confidence.h"
#include "engine/simd_dispatch.h"
#include "obs/metrics.h"

namespace ledger {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double Millis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Layer names, matching the library's module names.
inline constexpr const char* kBench = "bench";
inline constexpr const char* kIngest = "store.ingest";
inline constexpr const char* kSnapshot = "store.snapshot";
inline constexpr const char* kQuery = "store.query";
inline constexpr const char* kEngine = "engine";
inline constexpr const char* kAccuracy = "accuracy";
inline constexpr const char* kPersist = "persist";
inline constexpr const char* kLayers[] = {kBench,  kIngest,   kSnapshot, kQuery,
                                          kEngine, kAccuracy, kPersist};

struct Span {
  const char* name;
  const char* layer;
  int64_t start_ns;
  int64_t end_ns;
  int parent;         // index into the span list, -1 for a request root
  uint64_t request;   // spans of one client request share this id
  int phase;          // which measurement phase recorded the span
};

/// Single-threaded span recorder: spans nest through an explicit stack and
/// stay in memory until WriteChromeTrace at exit. Disabled, it records
/// nothing and Scope costs two branches.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, const char* layer)
        : tracer_(tracer->enabled_ ? tracer : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->Open(name, layer);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_phase(int phase) { phase_ = phase; }
  /// Starts a new client request: the next root span gets a fresh id.
  void NewRequest() { ++request_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer over the spans of `phase`: each span's duration
  /// minus the part of it its direct children cover.
  std::map<std::string, double> SelfSeconds(int phase) const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> self;
    for (const char* layer : kLayers) self[layer] = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.phase != phase) continue;
      self[s.layer] += Seconds(s.end_ns - s.start_ns - child_ns[i]);
    }
    return self;
  }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                    "\"args\":{\"request\":%llu,\"parent\":%d,\"phase\":%d}}",
                    i == 0 ? "" : ",\n", s.name, s.layer,
                    static_cast<double>(s.start_ns - t0) * 1e-3,
                    static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                    static_cast<unsigned long long>(s.request), s.parent,
                    s.phase);
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  /// Bounds memory on long traced runs; later spans are dropped.
  static constexpr size_t kMaxSpans = 2'000'000;

  int Open(const char* name, const char* layer) {
    if (spans_.size() >= kMaxSpans) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, layer, NowNs(), 0, parent, request_, phase_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void Close(int index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    stack_.pop_back();
  }

  bool enabled_ = false;
  int phase_ = 0;
  uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

/// Every estimate must lie within this many standard errors of the exact
/// ground truth. The standard error is the reported one, floored at the
/// caller's scale of the true one: with few sampled light keys the plug-in
/// variance estimate is often 0 while the true variance is not.
inline constexpr double kMaxStdErrs = 6.0;

/// Counts attempted and failed operations. An operation fails when its
/// call returns an error or any check on its result does not hold.
class Checker {
 public:
  explicit Checker(bool perturb) : perturb_(perturb) {}

  /// Opens one operation; Expect() calls until the next Begin() judge it.
  void Begin() {
    ++attempted_;
    current_ok_ = true;
  }
  /// Closes the current operation (counts it failed if any check failed).
  void End() {
    if (!current_ok_) ++failed_;
  }
  bool Expect(bool ok, const std::string& what) {
    if (!ok) {
      current_ok_ = false;
      if (failures_.size() < 20) failures_.push_back(what);
    }
    return ok;
  }

  /// The perturbation hook of the smoke test: the first estimate checked
  /// against ground truth is shifted far outside its interval, which the
  /// checker must reject.
  double MaybePerturb(double estimate, double std_err, double truth) {
    if (!perturb_ || perturbed_) return estimate;
    perturbed_ = true;
    return estimate + 50.0 * std_err + 0.01 * std::fabs(truth) + 1.0;
  }

  /// |estimate - truth| <= kMaxStdErrs * max(std_err, std_err_floor),
  /// plus float slack.
  bool ExpectWithin(const pie::IntervalEstimate& iv, double truth,
                    double std_err_floor, const std::string& what) {
    const double se = std::max(iv.std_err, std_err_floor);
    const double est = MaybePerturb(iv.estimate, se, truth);
    const double slack = 1e-9 * std::max(1.0, std::fabs(truth));
    const bool ok = std::isfinite(est) &&
                    std::fabs(est - truth) <= kMaxStdErrs * se + slack;
    if (!ok) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s: estimate %.6g vs truth %.6g (std_err %.3g)",
                    what.c_str(), est, truth, iv.std_err);
      return Expect(false, buf);
    }
    return true;
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  bool perturb_;
  bool perturbed_ = false;
  bool current_ok_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

inline double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Peak resident set of this process, in MiB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// obs registry deltas
// ---------------------------------------------------------------------------

/// Sums a counter/gauge family (or a histogram family's observation sum)
/// over every child whose labels include `label` = `value` (any child when
/// `label` is empty).
inline double FamilyTotal(const pie::obs::MetricsSnapshot& snap,
                          const std::string& name,
                          const std::string& label = "",
                          const std::string& value = "") {
  double total = 0.0;
  for (const pie::obs::MetricValue& m : snap.metrics) {
    if (m.name != name) continue;
    if (!label.empty()) {
      bool match = false;
      for (const auto& [k, v] : m.labels) match = match || (k == label && v == value);
      if (!match) continue;
    }
    total += m.type == pie::obs::MetricType::kHistogram ? m.sum : m.value;
  }
  return total;
}

/// The difference of one family total between two registry snapshots.
class RegistryDelta {
 public:
  void Start() { before_ = pie::obs::MetricsRegistry::Global().Snapshot(); }
  void Stop() { after_ = pie::obs::MetricsRegistry::Global().Snapshot(); }
  double Get(const std::string& name, const std::string& label = "",
             const std::string& value = "") const {
    return FamilyTotal(after_, name, label, value) -
           FamilyTotal(before_, name, label, value);
  }

 private:
  pie::obs::MetricsSnapshot before_;
  pie::obs::MetricsSnapshot after_;
};

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

inline std::string CpuModel() {
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  const size_t last = model.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : model.substr(first, last - first + 1);
}

inline std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// One-line JSON description of the host and the build under test.
/// "comparable" is false for Debug and sanitizer builds, and for builds
/// without PIE_METRICS (their per-layer counters read zero).
inline std::string FingerprintJson() {
  const std::string build_type = PIE_LEDGER_BUILD_TYPE;
  const std::string sanitize = PIE_LEDGER_SANITIZE;
#ifdef PIE_SIMD
  const bool simd = true;
#else
  const bool simd = false;
#endif
#ifdef PIE_METRICS
  const bool metrics = true;
#else
  const bool metrics = false;
#endif
#ifdef PIE_FAST_LOG
  const bool fast_log = true;
#else
  const bool fast_log = false;
#endif
#ifdef PIE_SIMD_AVX512
  const bool simd_avx512 = true;
#else
  const bool simd_avx512 = false;
#endif
  static const char* kTiers[] = {"scalar", "avx2", "avx512"};
  const int tier = static_cast<int>(pie::ActiveSimdTier());
  const bool optimized =
      build_type == "Release" || build_type == "RelWithDebInfo";
  const bool comparable = optimized && sanitize.empty() && metrics;
  __builtin_cpu_init();
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\":%ld,\"cpu_model\":\"%s\",\"avx2\":%s,\"avx512f\":%s,"
      "\"build_type\":\"%s\",\"sanitize\":\"%s\",\"PIE_SIMD\":%s,"
      "\"PIE_SIMD_AVX512\":%s,\"PIE_METRICS\":%s,\"PIE_FAST_LOG\":%s,"
      "\"simd_tier\":\"%s\",\"comparable\":%s}",
      sysconf(_SC_NPROCESSORS_ONLN), JsonEscape(CpuModel()).c_str(),
      __builtin_cpu_supports("avx2") ? "true" : "false",
      __builtin_cpu_supports("avx512f") ? "true" : "false",
      JsonEscape(build_type).c_str(), JsonEscape(sanitize).c_str(),
      simd ? "true" : "false", simd_avx512 ? "true" : "false",
      metrics ? "true" : "false", fast_log ? "true" : "false",
      tier >= 0 && tier <= 2 ? kTiers[tier] : "unknown",
      comparable ? "true" : "false");
  return buf;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

inline std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Metrics in emission order.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
             FormatNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace ledger
