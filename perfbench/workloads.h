// The ledger's three workloads (see perfbench/metrics.json for why each
// exists and what it sizes to).
//
// All are closed loops with one client thread; queries run with
// QueryService num_threads = nproc.

#pragma once

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "engine/engine.h"
#include "persist/checkpoint.h"
#include "persist/format.h"
#include "persist/gc.h"
#include "queries.h"
#include "util/hashing.h"

namespace ledger {

inline pie::SketchStoreOptions StoreOptions(uint64_t seed, double tau_weighted,
                                            double tau_set) {
  pie::SketchStoreOptions o;
  o.num_shards = kNumShards;
  o.default_tau = tau_weighted;
  o.instance_tau = {{kSet0, tau_set}, {kSet1, tau_set}};
  o.salt = pie::Mix64(seed ^ 0x5eed5a17ull);
  return o;
}

/// Bytes a checkpoint of `snap` writes (every shard file plus the
/// manifest), and the sketch entries it holds.
inline void EncodedCheckpointSize(const pie::StoreSnapshot& snap, double* bytes,
                           double* entries) {
  namespace persist = pie::persist;
  const uint32_t tag = pie::EstimatorTierTag();
  persist::Manifest manifest;
  manifest.tier_tag = tag;
  manifest.options = snap.options();
  *bytes = 0;
  *entries = 0;
  for (int s = 0; s < snap.num_shards(); ++s) {
    const auto& sketches = snap.Shard(s).sketches();
    const std::string file = persist::EncodeShardFile(
        tag, static_cast<uint32_t>(s), static_cast<uint32_t>(snap.num_shards()),
        sketches);
    *bytes += static_cast<double>(file.size());
    for (const auto& [instance, sketch] : sketches) *entries += sketch.size();
    manifest.shards.push_back({file.size(), 0});
  }
  *bytes += static_cast<double>(persist::EncodeManifest(manifest).size());
}

/// A pre-ingested read-only store: two traffic-like weighted instances and
/// a Jaccard set pair, with its exact truth and reference answers.
class StaticStore {
 public:
  StaticStore(int traffic_keys, int set_keys, double tau_traffic)
      : traffic_keys_(traffic_keys), set_keys_(set_keys),
        tau_traffic_(tau_traffic) {}

  /// Inputs, and the exact truth per shard (routed by the store's own
  /// ShardOf) and in total.
  void Generate(uint64_t seed) {
    seed_ = seed;
    const pie::SketchStore router(StoreOptions(seed_, tau_traffic_, kTauSet));
    auto shard_of = [&router](uint64_t key) { return router.ShardOf(key); };
    shard_truth_.assign(kNumShards, Truth());
    const TrafficPair traffic = TrafficPair::Make(traffic_keys_, seed);
    traffic.AddTruth(&shard_truth_, shard_of);
    items_[kWeighted0] = traffic.Items(0);
    items_[kWeighted1] = traffic.Items(1);
    const pie::SetPair sets =
        pie::MakeJaccardSetPair(set_keys_, 0.5, kSetKeyBase);
    // MakeJaccardSetPair numbers the union's keys consecutively.
    for (int64_t i = 0; i < sets.union_size; ++i) {
      shard_truth_[static_cast<size_t>(shard_of(kSetKeyBase + i))].union_count += 1;
    }
    items_[kSet0] = UnitItems(sets.n1);
    items_[kSet1] = UnitItems(sets.n2);
    truth_ = Truth();
    for (const Truth& t : shard_truth_) Add(t, 1.0, &truth_);
  }

  /// What a degraded answer extrapolates to: the exact total of the shards
  /// `snap` holds, scaled by 1 / coverage.
  Truth SurvivingTruth(const pie::StoreSnapshot& snap) const {
    Truth out;
    for (int s = 0; s < snap.num_shards(); ++s) {
      if (!snap.ShardAbsent(s)) {
        Add(shard_truth_[static_cast<size_t>(s)], 1.0 / snap.coverage(), &out);
      }
    }
    return out;
  }

  /// Fresh store from the inputs, snapshot, and one query of each kind to
  /// warm the kernel and selector caches.
  void Build(Env& env) {
    snap_.reset();
    store_.reset();
    store_ = std::make_unique<pie::SketchStore>(
        StoreOptions(seed_, tau_traffic_, kTauSet));
    const int64_t t0 = NowNs();
    double records = 0;
    for (int i = 0; i < kNumInstances; ++i) {
      store_->UpdateBatch(i, items_[i]);
      records += static_cast<double>(items_[i].size());
    }
    ingest_rates_.push_back(records / Seconds(NowNs() - t0));
    snap_ = store_->Snapshot();
    const pie::QueryService qs = MakeService(snap_, env.threads);
    for (Query q : kMix) Ask(qs, q);
  }

  /// Reference answers at num_threads = 1 and at nproc; they must agree
  /// bitwise and cover the truth.
  void Prepare(Env& env) {
    rows_ = CountRows(*snap_);
    const pie::QueryService one = MakeService(snap_, 1);
    const pie::QueryService wide = MakeService(snap_, env.threads);
    for (Query q : kMix) {
      const Answer a1 = Ask(one, q);
      const Answer an = Ask(wide, q);
      env.checker.Begin();
      CheckAnswer(env.checker, q, an, &a1, TruthFor(q, truth_),
                  snap_->options());
      env.checker.End();
      ref_.push_back(an);
    }
  }

  const Answer& Reference(Query q) const {
    return ref_[static_cast<size_t>(q)];
  }
  const pie::SketchStore& store() const { return *store_; }
  std::shared_ptr<const pie::StoreSnapshot> snapshot() const { return snap_; }
  const Truth& truth() const { return truth_; }
  const Rows& rows() const { return rows_; }
  /// Median ingest rate over every Build so far.
  double ingest_rate() const { return Quantile(ingest_rates_, 0.5); }
  uint64_t records(int instance) const { return items_[instance].size(); }

  std::string InputsJson(const char* fits_l3) const {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"traffic_keys_per_instance\":%d,\"set_keys_per_instance\":%d,"
        "\"records\":%zu,\"tau_traffic\":%g,\"tau_set\":%g,"
        "\"union_rows_max_pair\":%.0f,\"union_rows_sets\":%.0f,"
        "\"fits_in_l3\":%s}",
        traffic_keys_, set_keys_,
        items_[0].size() + items_[1].size() + items_[2].size() +
            items_[3].size(),
        tau_traffic_, kTauSet, rows_.pair_union, rows_.set_union, fits_l3);
    return buf;
  }

 private:
  static constexpr double kTauSet = 2.0;

  static void Add(const Truth& t, double scale, Truth* out) {
    out->max_sum += scale * t.max_sum;
    out->min_sum += scale * t.min_sum;
    out->l1_sum += scale * t.l1_sum;
    out->union_count += scale * t.union_count;
  }

  int traffic_keys_;
  int set_keys_;
  double tau_traffic_;
  uint64_t seed_ = 0;
  std::vector<pie::WeightedItem> items_[kNumInstances];
  Truth truth_;
  std::vector<Truth> shard_truth_;
  Rows rows_;
  std::vector<Answer> ref_;  // indexed by Query
  std::unique_ptr<pie::SketchStore> store_;
  std::shared_ptr<const pie::StoreSnapshot> snap_;
  std::vector<double> ingest_rates_;
};

/// Read-only: the query mix over a store larger than the last-level cache.
class QueryScan : public Workload {
 public:
  explicit QueryScan(bool tiny)
      : base_(tiny ? 20000 : 1000000, tiny ? 10000 : 500000, kTauTraffic) {}

  void Generate(Env& env) override { base_.Generate(env.seed); }
  void Setup(Env& env) override { base_.Build(env); }
  void Prepare(Env& env) override { base_.Prepare(env); }

  void Cycle(Env& env, Samples* s) override {
    env.tracer.NewRequest();
    Tracer::Scope root(&env.tracer, "query_mix", kBench);
    const pie::QueryService qs = MakeService(base_.snapshot(), env.threads);
    const int64_t t0 = NowNs();
    for (Query q : kMix) {
      const Answer a = TimedAsk(env, qs, q, RowsFor(q, base_.rows()), s);
      env.checker.Begin();
      CheckAnswer(env.checker, q, a, &base_.Reference(q),
                  TruthFor(q, base_.truth()), base_.snapshot()->options());
      env.checker.End();
    }
    s->cycle_ms.push_back(Millis(NowNs() - t0));
  }

  std::shared_ptr<const pie::StoreSnapshot> ReferenceSnapshot() override {
    return base_.snapshot();
  }
  double SetupIngestRate() const override { return base_.ingest_rate(); }
  std::string InputsJson() const override { return base_.InputsJson("false"); }

 private:
  static constexpr double kTauTraffic = 2.0;
  StaticStore base_;
};

/// Durable restart: checkpoint, retention GC, strict recover and the
/// query mix on the recovered store; every fourth cycle also a degraded
/// recover of a copy with one damaged shard file.
class CheckpointRecover : public Workload {
 public:
  explicit CheckpointRecover(bool tiny)
      : base_(tiny ? 4000 : 24000, tiny ? 2000 : 12000, kTauTraffic) {}
  ~CheckpointRecover() override { RemoveDirs(); }

  void Generate(Env& env) override {
    base_.Generate(env.seed);
    root_ = env.work_dir + "/" + env.workload + "-" +
            std::to_string(::getpid());
    ckpt_dir_ = root_ + "/ckpt";
    damaged_dir_ = root_ + "/damaged";
    std::filesystem::create_directories(ckpt_dir_);
  }
  void Setup(Env& env) override { base_.Build(env); }
  void Prepare(Env& env) override { base_.Prepare(env); }

  void Cycle(Env& env, Samples* s) override {
    env.tracer.NewRequest();
    Tracer::Scope root(&env.tracer, "restart_cycle", kBench);
    Checker& check = env.checker;
    const int64_t t0 = NowNs();
    pie::Status st;
    {
      Tracer::Scope span(&env.tracer, "Checkpoint", kPersist);
      st = base_.store().Checkpoint(ckpt_dir_);
    }
    const int64_t t1 = NowNs();
    check.Begin();
    check.Expect(st.ok(), "Checkpoint: " + st.ToString());
    check.End();
    {
      Tracer::Scope span(&env.tracer, "RetainLatest", kPersist);
      auto gc = pie::persist::RetainLatest(ckpt_dir_, 2);
      check.Begin();
      check.Expect(gc.ok(), "RetainLatest: " + gc.status().ToString());
      check.End();
    }
    const int64_t t2 = NowNs();
    pie::Result<std::unique_ptr<pie::SketchStore>> rec =
        pie::Status::Internal("not run");
    {
      Tracer::Scope span(&env.tracer, "Recover", kPersist);
      rec = pie::SketchStore::Recover(ckpt_dir_);
    }
    const int64_t t3 = NowNs();
    check.Begin();
    const bool recovered =
        check.Expect(rec.ok(), "Recover: " + rec.status().ToString());
    check.End();
    if (recovered) {
      std::shared_ptr<const pie::StoreSnapshot> snap = SnapshotOf(env, **rec, s);
      check.Begin();
      for (int i = 0; i < kNumInstances; ++i) {
        check.Expect(snap->UpdateCount(i) == base_.records(i),
                     "recovered store lost records");
      }
      check.End();
      const pie::QueryService qs = MakeService(snap, env.threads);
      for (Query q : kMix) {
        const Answer a = TimedAsk(env, qs, q, RowsFor(q, base_.rows()), s);
        check.Begin();
        CheckAnswer(check, q, a, &base_.Reference(q),
                    TruthFor(q, base_.truth()), base_.snapshot()->options());
        check.End();
      }
    }
    const int64_t t4 = NowNs();
    s->checkpoint_ms.push_back(Millis(t1 - t0));
    s->recover_ms.push_back(Millis(t3 - t2));
    s->answer_ms.push_back(Millis(t4 - t2));
    s->cycle_ms.push_back(Millis(t4 - t0));
    if (cycles_ == 0) CheckWrittenBytes(env);
    if (cycles_ % 4 == 3) DegradedRestart(env, (cycles_ / 4) % kNumShards, s);
    ++cycles_;
  }

  std::shared_ptr<const pie::StoreSnapshot> ReferenceSnapshot() override {
    return base_.snapshot();
  }
  double SetupIngestRate() const override { return base_.ingest_rate(); }
  std::string InputsJson() const override { return base_.InputsJson("true"); }
  void Finish(Env&) override { RemoveDirs(); }

 private:
  static constexpr double kTauTraffic = 2.0;

  static std::shared_ptr<const pie::StoreSnapshot> SnapshotOf(
      Env& env, const pie::SketchStore& store, Samples* s) {
    const int64_t t0 = NowNs();
    std::shared_ptr<const pie::StoreSnapshot> snap;
    {
      Tracer::Scope span(&env.tracer, "Snapshot", kSnapshot);
      snap = store.Snapshot();
    }
    s->snapshot_s += Seconds(NowNs() - t0);
    ++s->snapshot_calls;
    return snap;
  }

  /// The newest generation's files must add up to the bytes the ledger
  /// reports for checkpoint_bytes_per_entry (EncodedCheckpointSize).
  void CheckWrittenBytes(Env& env) {
    double encoded = 0, entries = 0;
    EncodedCheckpointSize(*base_.snapshot(), &encoded, &entries);
    env.checker.Begin();
    const std::vector<uint64_t> seqs = pie::persist::ListManifestSeqs(ckpt_dir_);
    if (env.checker.Expect(!seqs.empty(), "no checkpoint generation")) {
      uintmax_t bytes = std::filesystem::file_size(
          ckpt_dir_ + "/" + pie::persist::ManifestFileName(seqs.front()));
      for (uint32_t sh = 0; sh < kNumShards; ++sh) {
        bytes += std::filesystem::file_size(
            ckpt_dir_ + "/" + pie::persist::ShardFileName(seqs.front(), sh));
      }
      env.checker.Expect(static_cast<double>(bytes) == encoded,
                         "checkpoint files differ in size from the encoding");
    }
    env.checker.End();
  }

  /// Copies the newest generation, flips one byte in the middle of shard
  /// `victim`'s file, and answers the mix from a degraded recover: every
  /// answer must report coverage < 1 and an interval no narrower than the
  /// strict one, and cover the surviving shards' exact total scaled by
  /// 1 / coverage. (Against the full-store truth the degraded interval
  /// misses whenever the lost shard held a heavy key: the between-shard
  /// term is estimated from the survivors, which cannot see it.)
  void DegradedRestart(Env& env, int victim, Samples* s) {
    namespace fs = std::filesystem;
    Checker& check = env.checker;
    const std::vector<uint64_t> seqs = pie::persist::ListManifestSeqs(ckpt_dir_);
    if (seqs.empty()) return;
    fs::remove_all(damaged_dir_);
    fs::create_directories(damaged_dir_);
    std::vector<std::string> names = {
        pie::persist::ManifestFileName(seqs.front())};
    for (uint32_t sh = 0; sh < kNumShards; ++sh) {
      names.push_back(pie::persist::ShardFileName(seqs.front(), sh));
    }
    for (const std::string& name : names) {
      fs::copy_file(ckpt_dir_ + "/" + name, damaged_dir_ + "/" + name);
    }
    {
      const std::string path = damaged_dir_ + "/" +
                               names[static_cast<size_t>(victim) + 1];
      std::string bytes;
      {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
      }
      bytes[bytes.size() / 2] ^= 0x5a;
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    env.tracer.NewRequest();
    Tracer::Scope root(&env.tracer, "degraded_restart", kBench);
    const int64_t t0 = NowNs();
    pie::RecoverOptions options;
    options.policy = pie::RecoverPolicy::kDegraded;
    pie::Result<std::unique_ptr<pie::SketchStore>> rec =
        pie::Status::Internal("not run");
    {
      Tracer::Scope span(&env.tracer, "RecoverDegraded", kPersist);
      rec = pie::SketchStore::Recover(damaged_dir_, options);
    }
    check.Begin();
    const bool recovered =
        check.Expect(rec.ok(), "degraded Recover: " + rec.status().ToString()) &&
        check.Expect((*rec)->absent_shards() == 1,
                     "degraded Recover: expected exactly one absent shard");
    check.End();
    if (!recovered) return;
    std::shared_ptr<const pie::StoreSnapshot> snap;
    {
      Tracer::Scope span(&env.tracer, "Snapshot", kSnapshot);
      snap = (*rec)->Snapshot();
    }
    const Truth target = base_.SurvivingTruth(*snap);
    const pie::QueryService qs = MakeService(snap, env.threads);
    for (Query q : kMix) {
      Answer a;
      {
        Tracer::Scope span(&env.tracer, QueryName(q), kQuery);
        a = Ask(qs, q);
      }
      const std::string name = std::string("degraded ") + QueryName(q);
      const Answer& strict = base_.Reference(q);
      check.Begin();
      if (check.Expect(a.ok, name + ": " + a.error) &&
          check.Expect(a.intervals.size() == strict.intervals.size(),
                       name + ": shape")) {
        for (size_t i = 0; i < a.intervals.size(); ++i) {
          const pie::IntervalEstimate& d = a.intervals[i];
          const pie::IntervalEstimate& st = strict.intervals[i];
          check.Expect(d.coverage < 1.0, name + ": coverage not < 1");
          check.Expect(d.hi - d.lo >= st.hi - st.lo,
                       name + ": interval narrower than the strict one");
          const double truth = TruthFor(q, target);
          check.ExpectWithin(
              d, truth, StdErrFloor(q, base_.snapshot()->options(), truth),
              name);
        }
      }
      check.End();
    }
    s->degraded_answer_ms.push_back(Millis(NowNs() - t0));
  }

  void RemoveDirs() {
    if (!root_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(root_, ec);
    }
  }

  StaticStore base_;
  std::string root_, ckpt_dir_, damaged_dir_;
  int64_t cycles_ = 0;
};

}  // namespace ledger
