// The ledger's query mix, answer checks, per-phase samples and the
// workload interface (perfbench/ledger.cc).

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ledger_support.h"
#include "store/query_service.h"
#include "store/sketch_store.h"

namespace ledger {

/// Instances every workload's store holds: two weighted (traffic-like)
/// instances and two unit-weight set instances.
inline constexpr int kWeighted0 = 0;
inline constexpr int kWeighted1 = 1;
inline constexpr int kSet0 = 2;
inline constexpr int kSet1 = 3;
inline constexpr int kNumInstances = 4;
inline constexpr int kNumShards = 16;

enum class Query {
  kMaxDominance,
  kMaxDominanceAuto,
  kMinDominanceHt,
  kL1Distance,
  kDistinctUnion,
  kDistinctUnionAuto,
};
inline constexpr Query kMix[] = {Query::kMaxDominance,   Query::kMaxDominanceAuto,
                                 Query::kMinDominanceHt, Query::kL1Distance,
                                 Query::kDistinctUnion,  Query::kDistinctUnionAuto};

inline const char* QueryName(Query q) {
  switch (q) {
    case Query::kMaxDominance: return "max_dominance";
    case Query::kMaxDominanceAuto: return "max_dominance_auto";
    case Query::kMinDominanceHt: return "min_dominance_ht";
    case Query::kL1Distance: return "l1_distance";
    case Query::kDistinctUnion: return "distinct_union";
    case Query::kDistinctUnionAuto: return "distinct_union_auto";
  }
  return "?";
}

/// Exact aggregates of the generated inputs.
struct Truth {
  double max_sum = 0.0;      // sum_h max(v0, v1) over the weighted pair
  double min_sum = 0.0;      // sum_h min(v0, v1)
  double l1_sum = 0.0;       // sum_h |v0 - v1|
  double union_count = 0.0;  // |set0 union set1|
};

inline double TruthFor(Query q, const Truth& t) {
  switch (q) {
    case Query::kMaxDominance:
    case Query::kMaxDominanceAuto: return t.max_sum;
    case Query::kMinDominanceHt: return t.min_sum;
    case Query::kL1Distance: return t.l1_sum;
    case Query::kDistinctUnion:
    case Query::kDistinctUnionAuto: return t.union_count;
  }
  return 0.0;
}

/// The scale of a PPS sum estimate's true standard error, sqrt(tau *
/// truth) (the Horvitz-Thompson bound sum_h v(h) tau for one instance),
/// with the larger threshold of the query's instances.
inline double StdErrFloor(Query q, const pie::SketchStoreOptions& o,
                          double truth) {
  const bool sets = q == Query::kDistinctUnion || q == Query::kDistinctUnionAuto;
  double tau = o.default_tau;
  for (int instance : {sets ? kSet0 : kWeighted0, sets ? kSet1 : kWeighted1}) {
    const auto it = o.instance_tau.find(instance);
    tau = std::max(tau, it != o.instance_tau.end() ? it->second : o.default_tau);
  }
  return std::sqrt(tau * std::fabs(truth));
}

/// Rows each query kind scans in one snapshot (its union batch size).
struct Rows {
  double pair_union = 0.0;  // keys sampled in weighted0 or weighted1
  double pair_both = 0.0;   // keys sampled in both (min^(HT) rows)
  double set_union = 0.0;   // keys sampled in set0 or set1
};

inline Rows CountRows(const pie::StoreSnapshot& snap) {
  Rows rows;
  auto count = [](const pie::StreamingPpsSketch* a,
                  const pie::StreamingPpsSketch* b, double* uni,
                  double* both) {
    double in_a = a == nullptr ? 0 : a->size();
    double only_b = 0, shared = 0;
    if (b != nullptr) {
      for (const auto& e : b->entries()) {
        if (a != nullptr && a->Lookup(e.key, nullptr)) {
          ++shared;
        } else {
          ++only_b;
        }
      }
    }
    *uni += in_a + only_b;
    if (both != nullptr) *both += shared;
  };
  for (int s = 0; s < snap.num_shards(); ++s) {
    const pie::ShardSnapshot& shard = snap.Shard(s);
    count(shard.Instance(kWeighted0), shard.Instance(kWeighted1),
          &rows.pair_union, &rows.pair_both);
    count(shard.Instance(kSet0), shard.Instance(kSet1), &rows.set_union,
          nullptr);
  }
  return rows;
}

inline double RowsFor(Query q, const Rows& r) {
  switch (q) {
    case Query::kMaxDominance:
    case Query::kMaxDominanceAuto:
    case Query::kL1Distance: return r.pair_union;
    case Query::kMinDominanceHt: return r.pair_both;
    case Query::kDistinctUnion:
    case Query::kDistinctUnionAuto: return r.set_union;
  }
  return 0.0;
}

struct Answer {
  bool ok = false;
  std::string error;
  std::vector<pie::IntervalEstimate> intervals;
  int family = -1;  // the selector's family for the *Auto queries
};

inline Answer Ask(const pie::QueryService& qs, Query q) {
  Answer a;
  auto fail = [&a](const pie::Status& st) {
    a.error = st.ToString();
    return a;
  };
  const std::vector<int> sets = {kSet0, kSet1};
  switch (q) {
    case Query::kMaxDominance: {
      auto r = qs.MaxDominance(kWeighted0, kWeighted1);
      if (!r.ok()) return fail(r.status());
      a.intervals = {r->ht, r->l};
      break;
    }
    case Query::kMaxDominanceAuto: {
      auto r = qs.MaxDominanceAuto(kWeighted0, kWeighted1);
      if (!r.ok()) return fail(r.status());
      a.intervals = {r->interval};
      a.family = static_cast<int>(r->spec.family);
      break;
    }
    case Query::kMinDominanceHt: {
      auto r = qs.MinDominanceHt(kWeighted0, kWeighted1);
      if (!r.ok()) return fail(r.status());
      a.intervals = {*r};
      break;
    }
    case Query::kL1Distance: {
      auto r = qs.L1Distance(kWeighted0, kWeighted1);
      if (!r.ok()) return fail(r.status());
      a.intervals = {*r};
      break;
    }
    case Query::kDistinctUnion: {
      auto r = qs.DistinctUnion(sets);
      if (!r.ok()) return fail(r.status());
      a.intervals = {r->ht, r->l};
      break;
    }
    case Query::kDistinctUnionAuto: {
      auto r = qs.DistinctUnionAuto(sets);
      if (!r.ok()) return fail(r.status());
      a.intervals = {r->interval};
      a.family = static_cast<int>(r->spec.family);
      break;
    }
  }
  a.ok = true;
  return a;
}

inline bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

inline bool SameBits(const pie::IntervalEstimate& x,
                     const pie::IntervalEstimate& y) {
  return SameBits(x.estimate, y.estimate) && SameBits(x.variance, y.variance) &&
         SameBits(x.std_err, y.std_err) && SameBits(x.lo, y.lo) &&
         SameBits(x.hi, y.hi) && SameBits(x.coverage, y.coverage);
}

inline bool SameBits(const Answer& x, const Answer& y) {
  if (x.ok != y.ok || x.family != y.family ||
      x.intervals.size() != y.intervals.size()) {
    return false;
  }
  for (size_t i = 0; i < x.intervals.size(); ++i) {
    if (!SameBits(x.intervals[i], y.intervals[i])) return false;
  }
  return true;
}

/// Checks one strict answer: the call succeeded, it is bitwise equal to
/// `ref` (when given), and every interval covers the truth within
/// kMaxStdErrs standard errors (floored by StdErrFloor under `options`).
/// Judges the checker's current operation.
inline void CheckAnswer(Checker& checker, Query q, const Answer& got,
                        const Answer* ref, double truth,
                        const pie::SketchStoreOptions& options) {
  const std::string name = QueryName(q);
  if (!checker.Expect(got.ok, name + ": " + got.error)) return;
  if (ref != nullptr) {
    checker.Expect(SameBits(got, *ref),
                   name + ": answer differs bitwise from its reference");
  }
  for (const pie::IntervalEstimate& iv : got.intervals) {
    checker.ExpectWithin(iv, truth, StdErrFloor(q, options, truth), name);
  }
}

/// What one measurement phase observed.
struct Samples {
  std::vector<double> query_ms;   // every aggregate query
  std::map<std::string, std::vector<double>> query_ms_by_type;
  /// The workload's user-facing answer; empty when that is one query.
  std::vector<double> answer_ms;
  std::vector<double> cycle_ms;   // one closed-loop client cycle
  std::vector<double> checkpoint_ms, recover_ms, degraded_answer_ms;
  double query_s = 0.0, query_rows = 0.0;
  double ingest_s = 0.0, ingest_records = 0.0;
  double snapshot_s = 0.0;
  int64_t snapshot_calls = 0;
  std::map<std::string, double> query_busy_s;
};

struct Env {
  std::string workload;
  uint64_t seed = 1;
  int threads = 1;  // QueryService parallelism for timed queries
  std::string work_dir;
  Tracer tracer;
  Checker checker{false};
};

inline pie::QueryService MakeService(
    std::shared_ptr<const pie::StoreSnapshot> snap, int threads) {
  pie::QueryServiceOptions options;
  options.num_threads = threads;
  return pie::QueryService(std::move(snap), options);
}

/// Runs one query under a store.query span, recording its latency and the
/// rows it answered.
inline Answer TimedAsk(Env& env, const pie::QueryService& qs, Query q,
                       double rows, Samples* s) {
  const int64_t t0 = NowNs();
  Answer a;
  {
    Tracer::Scope span(&env.tracer, QueryName(q), kQuery);
    a = Ask(qs, q);
  }
  const int64_t dt = NowNs() - t0;
  s->query_ms.push_back(Millis(dt));
  s->query_ms_by_type[QueryName(q)].push_back(Millis(dt));
  s->query_s += Seconds(dt);
  s->query_rows += rows;
  s->query_busy_s[QueryName(q)] += Seconds(dt);
  return a;
}

/// One benchmark workload. pie_ledger calls Generate once, Setup (timed)
/// several times, Prepare once, then Cycle in a closed loop.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed (benchmark work, untimed).
  virtual void Generate(Env& env) = 0;
  /// Builds the serving state from scratch: the timed set-up.
  virtual void Setup(Env& env) = 0;
  /// Reference answers for the correctness checks (untimed).
  virtual void Prepare(Env& env) = 0;
  /// One closed-loop client cycle.
  virtual void Cycle(Env& env, Samples* s) = 0;
  /// The snapshot the traced run attributes the query path on.
  virtual std::shared_ptr<const pie::StoreSnapshot> ReferenceSnapshot() = 0;
  /// Median records per second ingested by the Setups so far (for
  /// workloads whose loop does not ingest).
  virtual double SetupIngestRate() const = 0;
  /// Input sizes, one JSON object.
  virtual std::string InputsJson() const = 0;
  /// Removes on-disk state.
  virtual void Finish(Env&) {}
};

}  // namespace ledger
