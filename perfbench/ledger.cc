// pie_ledger: the end-to-end performance ledger of libpie.
//
//   pie_ledger --workload query_scan|ingest_serve|checkpoint_recover
//              --seed N --seconds S --trace 0|1
//              [--scale full|tiny] [--perturb] [--work-dir DIR]
//
// Generates seeded inputs, builds the serving state (timed several times:
// setup_s), prepares exact ground truth and reference answers, then runs
// the workload's closed loop for S seconds and checks every answer. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it runs half
// the time untraced and half traced (the difference is the tracing
// overhead), then attributes the query path on the workload's reference
// snapshot, and prints the per-layer metrics. The last stdout line is the
// result JSON; the exit code is nonzero when any operation failed.
// perfbench/run.py builds and drives this binary; perfbench/metrics.json
// defines every metric.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "accuracy/accumulator.h"
#include "engine/engine.h"
#include "engine/worker_pool.h"
#include "ingest_serve.h"
#include "ledger_support.h"
#include "persist/format.h"
#include "queries.h"
#include "util/hashing.h"
#include "workloads.h"

namespace ledger {
namespace {

constexpr int kSetupRepeats = 5;
/// Percentiles reported must have at least this many samples beyond them.
constexpr int kTailSamples = 10;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool perturb = false;
  std::string work_dir = ".bench_work";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "pie_ledger: %s\nusage: pie_ledger --workload "
               "query_scan|ingest_serve|checkpoint_recover --seed N "
               "--seconds S --trace 0|1 [--scale full|tiny] [--perturb] "
               "[--work-dir DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--scale") {
      const std::string scale = value();
      if (scale != "full" && scale != "tiny") Usage("--scale is full or tiny");
      args.tiny = scale == "tiny";
    } else if (flag == "--perturb") {
      args.perturb = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "query_scan") return std::make_unique<QueryScan>(args.tiny);
  if (args.workload == "ingest_serve") {
    return std::make_unique<IngestServe>(args.tiny);
  }
  if (args.workload == "checkpoint_recover") {
    return std::make_unique<CheckpointRecover>(args.tiny);
  }
  Usage(("unknown workload " + args.workload).c_str());
}

Samples RunPhase(Env& env, Workload& w, double seconds) {
  Samples s;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    w.Cycle(env, &s);
  } while (NowNs() < end);
  return s;
}

/// Replica of QueryService's r=2 union fill (store/query_service.cc
/// FillPairBatch), built from public APIs so the kernel bound scans the
/// exact rows MaxDominance scans.
void FillPairBatch(const pie::StreamingPpsSketch* s1,
                   const pie::StreamingPpsSketch* s2, double tau1, double tau2,
                   const pie::SeedFunction& seed1,
                   const pie::SeedFunction& seed2, pie::OutcomeBatch* batch) {
  batch->Reset(pie::Scheme::kPps, 2);
  auto add_key = [&](uint64_t key) {
    const int i = batch->AppendRow();
    double* tau = batch->param_row(i);
    tau[0] = tau1;
    tau[1] = tau2;
    double* seed = batch->seed_row(i);
    seed[0] = seed1(key);
    seed[1] = seed2(key);
    uint8_t* sampled = batch->sampled_row(i);
    double* value = batch->value_row(i);
    sampled[0] = sampled[1] = 0;
    value[0] = value[1] = 0.0;
    double v = 0.0;
    if (s1 != nullptr && s1->Lookup(key, &v)) {
      sampled[0] = 1;
      value[0] = v;
    }
    if (s2 != nullptr && s2->Lookup(key, &v)) {
      sampled[1] = 1;
      value[1] = v;
    }
  };
  if (s1 != nullptr) {
    for (const auto& e : s1->entries()) add_key(e.key);
  }
  if (s2 != nullptr) {
    for (const auto& e : s2->entries()) {
      if (s1 == nullptr || !s1->Lookup(e.key, nullptr)) add_key(e.key);
    }
  }
}

/// Repetitions filling about `budget_s` given one call's time.
int Reps(double one_call_s, double budget_s, int lo, int hi) {
  const int n = one_call_s > 0 ? static_cast<int>(budget_s / one_call_s) : hi;
  return std::clamp(n, lo, hi);
}

/// The traced run's query-path attribution on one snapshot.
struct Attribution {
  double keys_per_s_1t = 0, parallel_speedup = 0;
  double kernel_bound_keys_per_s = 0, e2e_over_kernel_bound = 0;
  double fill_s = 0, reduce_s = 0;  // per MaxDominance at 1 thread
  double fill_share = 0, scan_share = 0, reduce_share = 0, pool_wait_share = 0;
  double encode_s = 0, decode_s = 0;
};

Attribution Attribute(Env& env,
                      const std::shared_ptr<const pie::StoreSnapshot>& snap) {
  Attribution out;
  Checker& check = env.checker;
  const Rows rows = CountRows(*snap);
  const pie::QueryService one = MakeService(snap, 1);
  const pie::QueryService wide = MakeService(snap, env.threads);
  double mix_rows = 0;
  for (Query q : kMix) mix_rows += RowsFor(q, rows);

  // The whole mix at 1 thread and at nproc; answers must agree bitwise.
  auto run_mix = [&](const pie::QueryService& qs, std::vector<Answer>* answers) {
    env.tracer.NewRequest();
    Tracer::Scope root(&env.tracer, "attribution_mix", kBench);
    const int64_t t0 = NowNs();
    answers->clear();
    for (Query q : kMix) {
      Tracer::Scope span(&env.tracer, QueryName(q), kQuery);
      answers->push_back(Ask(qs, q));
    }
    return Seconds(NowNs() - t0);
  };
  std::vector<Answer> a1, an;
  const int mix_reps = Reps(run_mix(one, &a1), 1.0, 1, 50);
  double t_one = 0, t_wide = 0;
  for (int r = 0; r < mix_reps; ++r) {
    t_one += run_mix(one, &a1);
    t_wide += run_mix(wide, &an);
    for (size_t i = 0; i < a1.size(); ++i) {
      check.Begin();
      check.Expect(a1[i].ok && SameBits(a1[i], an[i]),
                   std::string(QueryName(kMix[i])) +
                       ": 1-thread and nproc answers differ");
      check.End();
    }
  }
  out.keys_per_s_1t = mix_rows * mix_reps / t_one;
  out.parallel_speedup = Ratio(t_one, t_wide);

  // MaxDominance alone, with registry deltas: scan time at 1 thread, pool
  // queue wait at nproc.
  Answer max_dom;
  auto max_dominance = [&](const pie::QueryService& qs, int reps,
                           RegistryDelta* delta) {
    delta->Start();
    const int64_t t0 = NowNs();
    for (int r = 0; r < reps; ++r) {
      Tracer::Scope span(&env.tracer, "max_dominance", kQuery);
      max_dom = Ask(qs, Query::kMaxDominance);
    }
    const double wall = Seconds(NowNs() - t0);
    delta->Stop();
    return wall;
  };
  RegistryDelta d1, dn;
  const int reps = Reps(max_dominance(one, 1, &d1), 0.6, 3, 200);
  const double wall_one = max_dominance(one, reps, &d1);
  const double wall_wide = max_dominance(wide, reps, &dn);
  const double per_query = wall_one / reps;
  const double scan_per_query = d1.Get("pie_scan_seconds") / reps;
  out.pool_wait_share = Ratio(dn.Get("pie_pool_queue_wait_seconds"),
                              wall_wide * env.threads);

  // Kernel bound: the same kernels over prebuilt union batches.
  const double tau1 = snap->TauFor(kWeighted0);
  const double tau2 = snap->TauFor(kWeighted1);
  const pie::SamplingParams params({tau1, tau2}, pie::QueryServiceOptions().quad_tol);
  auto& engine = pie::EstimationEngine::Global();
  const pie::KernelSpec ht_spec{pie::Function::kMax, pie::Scheme::kPps,
                                pie::Regime::kKnownSeeds, pie::Family::kHt};
  pie::KernelSpec l_spec = ht_spec;
  l_spec.family = pie::Family::kL;
  auto ht = engine.Kernel(ht_spec, params);
  auto l = engine.Kernel(l_spec, params);
  check.Begin();
  if (check.Expect(ht.ok() && l.ok(), "kernel lookup failed")) {
    const int shards = snap->num_shards();
    std::vector<pie::OutcomeBatch> batches(static_cast<size_t>(shards));
    {
      Tracer::Scope span(&env.tracer, "fill_replica", kBench);
      const pie::SeedFunction seed1(snap->InstanceSalt(kWeighted0));
      const pie::SeedFunction seed2(snap->InstanceSalt(kWeighted1));
      for (int s = 0; s < shards; ++s) {
        const pie::ShardSnapshot& shard = snap->Shard(s);
        FillPairBatch(shard.Instance(kWeighted0), shard.Instance(kWeighted1),
                      tau1, tau2, seed1, seed2,
                      &batches[static_cast<size_t>(s)]);
      }
    }
    int64_t scan_ns = 0, reduce_ns = 0;
    pie::DualInterval replica;
    for (int r = 0; r < reps; ++r) {
      std::vector<pie::AccuracyAccumulator> partial(2 * static_cast<size_t>(shards));
      int64_t t0 = NowNs();
      {
        Tracer::Scope span(&env.tracer, "AccuracyAccumulator::AddBatch", kEngine);
        for (size_t s = 0; s < batches.size(); ++s) {
          partial[2 * s].AddBatch(**ht, batches[s], 1);
          partial[2 * s + 1].AddBatch(**l, batches[s], 1);
        }
      }
      int64_t t1 = NowNs();
      {
        Tracer::Scope span(&env.tracer, "Merge+Interval", kAccuracy);
        pie::AccuracyAccumulator totals[2];
        for (size_t s = 0; s < batches.size(); ++s) {
          totals[0].Merge(partial[2 * s]);
          totals[1].Merge(partial[2 * s + 1]);
        }
        replica.ht = totals[0].Interval();
        replica.l = totals[1].Interval();
      }
      scan_ns += t1 - t0;
      reduce_ns += NowNs() - t1;
    }
    check.Expect(max_dom.ok && max_dom.intervals.size() == 2 &&
                     SameBits(replica.ht, max_dom.intervals[0]) &&
                     SameBits(replica.l, max_dom.intervals[1]),
                 "kernel-bound replica differs from MaxDominance");
    const double scan_s = Seconds(scan_ns) / reps;
    out.kernel_bound_keys_per_s = rows.pair_union / scan_s;
    out.e2e_over_kernel_bound =
        Ratio(rows.pair_union / per_query, out.kernel_bound_keys_per_s);
    out.reduce_s = Seconds(reduce_ns) / reps;
  }
  check.End();
  out.fill_s = per_query - scan_per_query - out.reduce_s;
  out.fill_share = Ratio(out.fill_s, per_query);
  out.scan_share = Ratio(scan_per_query, per_query);
  out.reduce_share = Ratio(out.reduce_s, per_query);

  // Wire encode / decode of every shard.
  const uint32_t tag = pie::EstimatorTierTag();
  for (int s = 0; s < snap->num_shards(); ++s) {
    const auto& sketches = snap->Shard(s).sketches();
    int64_t t0 = NowNs();
    std::string file;
    {
      Tracer::Scope span(&env.tracer, "EncodeShardFile", kPersist);
      file = pie::persist::EncodeShardFile(
          tag, static_cast<uint32_t>(s),
          static_cast<uint32_t>(snap->num_shards()), sketches);
    }
    int64_t t1 = NowNs();
    pie::Result<pie::persist::ShardFileData> decoded =
        pie::Status::Internal("not run");
    {
      Tracer::Scope span(&env.tracer, "DecodeShardFile", kPersist);
      decoded = pie::persist::DecodeShardFile(file);
    }
    out.encode_s += Seconds(t1 - t0);
    out.decode_s += Seconds(NowNs() - t1);
    check.Begin();
    check.Expect(decoded.ok() && decoded->sketches.size() == sketches.size(),
                 "shard file round trip failed");
    check.End();
  }
  return out;
}

/// The median query latency of a mix: the median of the per-type medians.
/// A plain median over all queries would fall on the boundary between two
/// query types of a mix and swing between them.
double TypicalQueryMs(const Samples& s) {
  std::vector<double> medians;
  for (const auto& [type, ms] : s.query_ms_by_type) {
    medians.push_back(Quantile(ms, 0.5));
  }
  return Quantile(medians, 0.5);
}

void AddEndToEnd(const Env& env, const Samples& s,
                 const std::vector<double>& setup_s, double setup_ingest_rate,
                 double bytes_per_entry, MetricList* m) {
  const double ingest_rate = s.ingest_records > 0
                                 ? s.ingest_records / s.ingest_s
                                 : setup_ingest_rate;
  m->Add("setup_s", Quantile(setup_s, 0.5), "s");
  m->Add("query_keys_per_s", Ratio(s.query_rows, s.query_s), "1/s");
  const double query_p50 = TypicalQueryMs(s);
  const double query_p95 = Quantile(s.query_ms, 0.95);
  const bool answer_is_query = s.answer_ms.empty();
  m->Add("query_p50_ms", query_p50, "ms");
  m->Add("query_p95_ms", query_p95, "ms");
  m->Add("answer_p50_ms",
         answer_is_query ? query_p50 : Quantile(s.answer_ms, 0.5), "ms");
  m->Add("answer_p95_ms",
         answer_is_query ? query_p95 : Quantile(s.answer_ms, 0.95), "ms");
  m->Add("cycle_p50_ms", Quantile(s.cycle_ms, 0.5), "ms");
  m->Add("ingest_records_per_s", ingest_rate, "1/s");
  m->Add("checkpoint_bytes_per_entry", bytes_per_entry, "B/entry");
  m->Add("peak_rss_mb", PeakRssMb(), "MB");
  const Checker& c = env.checker;
  m->Add("ok_rate",
         1.0 - Ratio(static_cast<double>(c.failed()),
                     static_cast<double>(c.attempted())),
         "ratio");
}

/// The per-path names of the end-to-end ledger, for the human-readable
/// table (n/a where the workload has no such path).
void PrintLedger(const Env& env, const Samples& s, const MetricList& m) {
  auto get = [&m](const char* name) {
    for (const Metric& x : m.metrics()) {
      if (x.name == name) return x.value;
    }
    return 0.0;
  };
  auto line = [](const char* name, double v, const char* unit, size_t n) {
    std::printf("ledger %-28s %14.6g %-8s n=%zu\n", name, v, unit, n);
  };
  auto na = [](const char* name) { std::printf("ledger %-28s %14s\n", name, "n/a"); };
  const bool ingest = env.workload == "ingest_serve";
  const bool persist = env.workload == "checkpoint_recover";
  line("setup_s", get("setup_s"), "s", kSetupRepeats);
  line("query_keys_per_s", get("query_keys_per_s"), "1/s", s.query_ms.size());
  line("query_p50_ms", get("query_p50_ms"), "ms", s.query_ms.size());
  line("query_p95_ms", get("query_p95_ms"), "ms", s.query_ms.size());
  line("ingest_records_per_s", get("ingest_records_per_s"), "1/s",
       static_cast<size_t>(s.ingest_records));
  if (ingest) {
    line("fresh_answer_p50_ms", get("answer_p50_ms"), "ms", s.answer_ms.size());
    line("fresh_answer_p95_ms", get("answer_p95_ms"), "ms", s.answer_ms.size());
  } else {
    na("fresh_answer_p50_ms");
    na("fresh_answer_p95_ms");
  }
  if (persist) {
    line("checkpoint_p50_ms", Quantile(s.checkpoint_ms, 0.5), "ms",
         s.checkpoint_ms.size());
    line("recover_p50_ms", Quantile(s.recover_ms, 0.5), "ms", s.recover_ms.size());
    line("restart_to_answer_p50_ms", get("answer_p50_ms"), "ms",
         s.answer_ms.size());
    line("degraded_restart_p50_ms", Quantile(s.degraded_answer_ms, 0.5), "ms",
         s.degraded_answer_ms.size());
  } else {
    na("checkpoint_p50_ms");
    na("recover_p50_ms");
    na("restart_to_answer_p50_ms");
  }
  line("checkpoint_bytes_per_entry", get("checkpoint_bytes_per_entry"),
       "B/entry", 1);
  line("peak_rss_mb", get("peak_rss_mb"), "MB", 1);
  line("error_rate", 1.0 - get("ok_rate"), "ratio",
       static_cast<size_t>(env.checker.attempted()));
}

void AddPerLayer(const Env& env, const Samples& untraced, const Samples& s,
                 const RegistryDelta& d, const Attribution& a,
                 size_t phase_spans, MetricList* m) {
  const double queries = static_cast<double>(s.query_ms.size());
  m->Add("store.ingest_records", s.ingest_records, "count");
  m->Add("store.ingest_busy_s", s.ingest_s, "s");
  m->Add("store.ingest_ns_per_record", Ratio(s.ingest_s * 1e9, s.ingest_records),
         "ns");
  m->Add("store.snapshot_calls", static_cast<double>(s.snapshot_calls), "count");
  m->Add("store.snapshot_busy_s", s.snapshot_s, "s");
  const double copied =
      d.Get("pie_store_snapshot_shards_total", "result", "copied");
  const double reused =
      d.Get("pie_store_snapshot_shards_total", "result", "reused");
  m->Add("store.snapshot_shards_copied", copied, "count");
  m->Add("store.snapshot_reuse_ratio", Ratio(reused, reused + copied), "ratio");
  for (Query q : kMix) {
    const auto it = s.query_busy_s.find(QueryName(q));
    m->Add(std::string("store.query_busy_s.") + QueryName(q),
           it == s.query_busy_s.end() ? 0.0 : it->second, "s");
  }
  m->Add("store.union_rows_per_query", Ratio(s.query_rows, queries), "count");
  m->Add("store.fill_s_est", a.fill_s, "s");
  m->Add("store.query_keys_per_s_1t", a.keys_per_s_1t, "1/s");
  m->Add("store.max_dominance_fill_share", a.fill_share, "ratio");

  m->Add("engine.scan_s", d.Get("pie_scan_seconds"), "s");
  m->Add("engine.scan_keys", d.Get("pie_scan_keys_total"), "count");
  m->Add("engine.scan_chunks", d.Get("pie_scan_chunks_total"), "count");
  for (const char* family : {"HT", "L", "U", "Uasym"}) {
    std::string name = std::string("engine.kernel_rows.") + family;
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    m->Add(name, d.Get("pie_kernel_rows_total", "family", family), "count");
  }
  m->Add("engine.kernel_bound_keys_per_s", a.kernel_bound_keys_per_s, "1/s");
  m->Add("engine.e2e_over_kernel_bound", a.e2e_over_kernel_bound, "ratio");
  m->Add("engine.simd_log_lane_share",
         Ratio(d.Get("pie_simd_log_lanes_total"), d.Get("pie_simd_maxl_rows_total")),
         "ratio");
  m->Add("engine.pool_tasks", d.Get("pie_pool_tasks_total"), "count");
  m->Add("engine.pool_queue_wait_s", d.Get("pie_pool_queue_wait_seconds"), "s");
  m->Add("engine.pool_run_s", d.Get("pie_pool_run_seconds"), "s");
  m->Add("engine.parallel_speedup", a.parallel_speedup, "ratio");
  const double kernel_hits =
      d.Get("pie_engine_kernel_cache_total", "result", "hit");
  m->Add("engine.kernel_cache_hit_ratio",
         Ratio(kernel_hits,
               kernel_hits + d.Get("pie_engine_kernel_cache_total", "result", "miss")),
         "ratio");
  m->Add("engine.max_dominance_scan_share", a.scan_share, "ratio");
  m->Add("engine.max_dominance_pool_wait_share", a.pool_wait_share, "ratio");

  const double sel_hits = d.Get("pie_selector_requests_total", "result", "hit");
  m->Add("accuracy.selector_hit_ratio",
         Ratio(sel_hits,
               sel_hits + d.Get("pie_selector_requests_total", "result", "miss")),
         "ratio");
  m->Add("accuracy.reduce_s", a.reduce_s, "s");
  m->Add("accuracy.degraded_queries", d.Get("pie_degraded_queries_total"), "count");
  m->Add("accuracy.max_dominance_reduce_share", a.reduce_share, "ratio");

  m->Add("persist.checkpoint_busy_s", d.Get("pie_persist_checkpoint_seconds"), "s");
  m->Add("persist.encode_s", a.encode_s, "s");
  m->Add("persist.bytes_written", d.Get("pie_persist_bytes_written_total"), "B");
  m->Add("persist.gc_busy_s", d.Get("pie_persist_gc_seconds"), "s");
  m->Add("persist.recover_busy_s", d.Get("pie_persist_recover_seconds"), "s");
  m->Add("persist.decode_s", a.decode_s, "s");
  m->Add("persist.crc_failures", d.Get("pie_persist_crc_failures_total"), "count");
  m->Add("persist.retries", d.Get("pie_persist_retries_total"), "count");

  for (const auto& [layer, self_s] : env.tracer.SelfSeconds(/*phase=*/1)) {
    m->Add("trace.self_s." + layer, self_s, "s");
  }
  m->Add("trace.spans", static_cast<double>(phase_spans), "count");
  m->Add("trace.overhead_ratio",
         Ratio(Mean(s.cycle_ms), Mean(untraced.cycle_ms)) - 1.0, "ratio");
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Env env;
  env.workload = args.workload;
  env.seed = args.seed;
  env.threads = pie::HardwareThreads();
  env.work_dir = args.work_dir;
  env.checker = Checker(args.perturb);
  std::filesystem::create_directories(args.work_dir);
  std::unique_ptr<Workload> w = MakeWorkload(args);

  std::printf("ledger workload=%s seed=%llu seconds=%g trace=%d scale=%s "
              "threads=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.tiny ? "tiny" : "full",
              env.threads);
  const std::string fingerprint = FingerprintJson();
  std::printf("fingerprint %s\n", fingerprint.c_str());
  std::fflush(stdout);

  w->Generate(env);
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const int64_t t0 = NowNs();
    w->Setup(env);
    setup_s.push_back(Seconds(NowNs() - t0));
  }
  w->Prepare(env);
  const std::string inputs = w->InputsJson();
  double ckpt_bytes = 0, ckpt_entries = 0;
  EncodedCheckpointSize(*w->ReferenceSnapshot(), &ckpt_bytes, &ckpt_entries);
  std::printf("inputs %s\nstate {\"sketch_entries\":%.0f,\"checkpoint_bytes\":%.0f}\n",
              inputs.c_str(), ckpt_entries, ckpt_bytes);

  MetricList metrics;
  Samples measured;
  if (!args.trace) {
    measured = RunPhase(env, *w, args.seconds);
    // Percentiles need kTailSamples beyond them in every full-size run.
    if (!args.tiny) {
      env.checker.Begin();
      const size_t need = static_cast<size_t>(kTailSamples * 20);  // p95
      env.checker.Expect(measured.query_ms.size() >= need &&
                             (measured.answer_ms.empty() ||
                              measured.answer_ms.size() >= need),
                         "too few samples for p95 (raise --seconds)");
      env.checker.End();
    }
    AddEndToEnd(env, measured, setup_s, w->SetupIngestRate(),
                Ratio(ckpt_bytes, ckpt_entries), &metrics);
    PrintLedger(env, measured, metrics);
  } else {
    const Samples untraced = RunPhase(env, *w, args.seconds / 2);
    env.tracer.set_enabled(true);
    env.tracer.set_phase(1);
    RegistryDelta delta;
    delta.Start();
    measured = RunPhase(env, *w, args.seconds / 2);
    delta.Stop();
    const size_t phase_spans = env.tracer.spans().size();
    env.tracer.set_phase(2);
    const Attribution a = Attribute(env, w->ReferenceSnapshot());
    AddPerLayer(env, untraced, measured, delta, a, phase_spans, &metrics);
    for (const Metric& m : metrics.metrics()) {
      std::printf("layer %-40s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    const std::string trace_path = args.work_dir + "/trace-" + args.workload +
                                   "-seed" + std::to_string(args.seed) + ".json";
    if (env.tracer.WriteChromeTrace(trace_path)) {
      std::printf("trace %s (%zu spans)\n", trace_path.c_str(),
                  env.tracer.spans().size());
    }
  }
  w->Finish(env);

  for (const std::string& f : env.checker.failures()) {
    std::fprintf(stderr, "pie_ledger: FAILED %s\n", f.c_str());
  }

  const Checker& c = env.checker;
  const bool correct = c.failed() == 0;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(c.attempted()) +
      ", \"failed\": " + std::to_string(c.failed()) +
      ", \"metrics\": " + metrics.Json() + "}";
  {
    const std::string path = args.work_dir + "/result-" + args.workload +
                             "-seed" + std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0") + ".json";
    std::ofstream out(path);
    out << "{\"fingerprint\": " << fingerprint << ", \"inputs\": " << inputs
        << ", \"result\": " << result << "}\n";
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) { return ledger::Main(argc, argv); }
