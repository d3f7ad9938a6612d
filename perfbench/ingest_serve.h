// The ingest_serve workload: ingest a block, snapshot, answer on the fresh
// snapshot, repeat.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "queries.h"
#include "workloads.h"

namespace ledger {

/// Each cycle UpdateBatches one block of records into every instance, takes
/// a Snapshot, and answers MaxDominance and DistinctUnion on it. An epoch
/// is a fixed stream of blocks replayed into a fresh store, so the state a
/// cycle sees depends on its position in the epoch, not on how fast
/// earlier cycles ran.
///
/// Weighted records are Zipf-keyed over a fixed universe, so popular keys
/// arrive many times. A key that arrives more than once carries at least
/// tau on its first record (a pre-aggregating upstream's flush); that keeps
/// every prefix an exact PPS sample of per-key totals
/// (store/streaming_sketch.h, record model), so the ground truth after each
/// block is exact. Set records are unit-weight keys that arrive once.
class IngestServe : public Workload {
 public:
  explicit IngestServe(bool tiny)
      : universe_(tiny ? 4096 : 65536),
        block_weighted_(tiny ? 256 : 4096),
        block_set_(tiny ? 128 : 1024),
        blocks_(tiny ? 8 : 32) {}

  void Generate(Env& env) override {
    pie::Rng rng(env.seed ^ 0x1a9e57ull);
    const pie::ZipfGenerator zipf(universe_, 1.1);
    stream_.assign(static_cast<size_t>(blocks_), Block{});
    const size_t per_instance =
        static_cast<size_t>(blocks_) * static_cast<size_t>(block_weighted_);
    std::vector<std::vector<double>> totals(
        2, std::vector<double>(static_cast<size_t>(universe_) + 1, 0.0));
    std::vector<std::vector<pie::WeightedItem>> weighted(2);
    for (int inst = 0; inst < 2; ++inst) {
      std::vector<uint64_t> perm(static_cast<size_t>(universe_));
      for (int k = 0; k < universe_; ++k) perm[static_cast<size_t>(k)] = k + 1;
      Shuffle(perm, rng);
      std::vector<uint64_t> keys(per_instance);
      std::vector<int> arrivals(static_cast<size_t>(universe_) + 1, 0);
      for (uint64_t& key : keys) {
        key = perm[static_cast<size_t>(zipf.SampleRank(rng) - 1)];
        ++arrivals[key];
      }
      std::vector<uint8_t> seen(static_cast<size_t>(universe_) + 1, 0);
      for (uint64_t key : keys) {
        double w = 1.0 + static_cast<double>(rng.UniformInt(4));
        if (arrivals[key] > 1 && !seen[key]) w = std::max(w, kTauWeighted);
        seen[key] = 1;
        weighted[static_cast<size_t>(inst)].push_back({key, w});
      }
    }
    pie::SetPair sets = pie::MakeJaccardSetPair(blocks_ * block_set_, 0.5,
                                                kSetKeyBase);
    Shuffle(sets.n1, rng);
    Shuffle(sets.n2, rng);

    // Blocks and the exact truth after each one.
    std::vector<uint8_t> in_union(static_cast<size_t>(sets.union_size), 0);
    Truth truth;
    uint64_t records[kNumInstances] = {};
    truth_.clear();
    for (int b = 0; b < blocks_; ++b) {
      Block& block = stream_[static_cast<size_t>(b)];
      for (int inst = 0; inst < 2; ++inst) {
        const auto& all = weighted[static_cast<size_t>(inst)];
        block.items[inst].assign(
            all.begin() + static_cast<std::ptrdiff_t>(b) * block_weighted_,
            all.begin() + static_cast<std::ptrdiff_t>(b + 1) * block_weighted_);
        for (const pie::WeightedItem& item : block.items[inst]) {
          std::vector<double>& mine = totals[static_cast<size_t>(inst)];
          const std::vector<double>& other = totals[static_cast<size_t>(1 - inst)];
          const double before = std::max(mine[item.key], other[item.key]);
          mine[item.key] += item.weight;
          truth.max_sum += std::max(mine[item.key], other[item.key]) - before;
        }
      }
      for (int j = 0; j < 2; ++j) {
        const std::vector<uint64_t>& keys = j == 0 ? sets.n1 : sets.n2;
        std::vector<uint64_t> slice(
            keys.begin() + static_cast<std::ptrdiff_t>(b) * block_set_,
            keys.begin() + static_cast<std::ptrdiff_t>(b + 1) * block_set_);
        for (uint64_t key : slice) {
          uint8_t& flag = in_union[key - kSetKeyBase];
          if (!flag) truth.union_count += 1.0;
          flag = 1;
        }
        block.items[kSet0 + j] = UnitItems(slice);
      }
      CumulativeTruth cumulative;
      cumulative.truth = truth;
      for (int i = 0; i < kNumInstances; ++i) {
        records[i] += block.items[i].size();
        cumulative.records[i] = records[i];
      }
      truth_.push_back(cumulative);
    }
    options_ = StoreOptions(env.seed, kTauWeighted, kTauSet);
  }

  /// One whole epoch into a fresh store, then a snapshot and the two
  /// queries (warming the kernel cache for this threshold class).
  void Setup(Env& env) override {
    store_ = std::make_unique<pie::SketchStore>(options_);
    for (const Block& block : stream_) {
      for (int i = 0; i < kNumInstances; ++i) {
        store_->UpdateBatch(i, block.items[i]);
      }
    }
    const pie::QueryService qs = MakeService(store_->Snapshot(), env.threads);
    for (Query q : {Query::kMaxDominance, Query::kDistinctUnion}) Ask(qs, q);
    store_.reset();
  }

  /// Replays one epoch at num_threads = 1: the per-block reference answers
  /// and row counts.
  void Prepare(Env&) override {
    pie::SketchStore store(options_);
    ref_max_.clear();
    ref_distinct_.clear();
    rows_.clear();
    for (const Block& block : stream_) {
      for (int i = 0; i < kNumInstances; ++i) store.UpdateBatch(i, block.items[i]);
      final_snapshot_ = store.Snapshot();
      rows_.push_back(CountRows(*final_snapshot_));
      const pie::QueryService qs = MakeService(final_snapshot_, 1);
      ref_max_.push_back(Ask(qs, Query::kMaxDominance));
      ref_distinct_.push_back(Ask(qs, Query::kDistinctUnion));
    }
    next_block_ = 0;
  }

  void Cycle(Env& env, Samples* s) override {
    if (next_block_ == 0) {
      store_.reset();
      store_ = std::make_unique<pie::SketchStore>(options_);
    }
    const size_t b = static_cast<size_t>(next_block_);
    const Block& block = stream_[b];
    env.tracer.NewRequest();
    Tracer::Scope root(&env.tracer, "ingest_serve_cycle", kBench);
    const int64_t t0 = NowNs();
    double records = 0;
    for (int i = 0; i < kNumInstances; ++i) {
      Tracer::Scope span(&env.tracer, "UpdateBatch", kIngest);
      store_->UpdateBatch(i, block.items[i]);
      records += static_cast<double>(block.items[i].size());
    }
    const int64_t t1 = NowNs();
    std::shared_ptr<const pie::StoreSnapshot> snap;
    {
      Tracer::Scope span(&env.tracer, "Snapshot", kSnapshot);
      snap = store_->Snapshot();
    }
    const int64_t t2 = NowNs();
    const pie::QueryService qs = MakeService(snap, env.threads);
    const Answer max_dom =
        TimedAsk(env, qs, Query::kMaxDominance, rows_[b].pair_union, s);
    const Answer distinct =
        TimedAsk(env, qs, Query::kDistinctUnion, rows_[b].set_union, s);
    const int64_t t3 = NowNs();

    s->ingest_s += Seconds(t1 - t0);
    s->ingest_records += records;
    s->snapshot_s += Seconds(t2 - t1);
    ++s->snapshot_calls;
    s->answer_ms.push_back(Millis(t3 - t1));
    s->cycle_ms.push_back(Millis(t3 - t0));

    Checker& check = env.checker;
    const CumulativeTruth& truth = truth_[b];
    check.Begin();
    for (int i = 0; i < kNumInstances; ++i) {
      check.Expect(snap->UpdateCount(i) == truth.records[i],
                   "snapshot misses ingested records");
    }
    check.End();
    check.Begin();
    CheckAnswer(check, Query::kMaxDominance, max_dom, &ref_max_[b],
                truth.truth.max_sum, options_);
    check.End();
    check.Begin();
    CheckAnswer(check, Query::kDistinctUnion, distinct, &ref_distinct_[b],
                truth.truth.union_count, options_);
    check.End();
    next_block_ = (next_block_ + 1) % blocks_;
  }

  std::shared_ptr<const pie::StoreSnapshot> ReferenceSnapshot() override {
    return final_snapshot_;
  }
  /// Unused: this workload's loop measures ingest.
  double SetupIngestRate() const override { return 0.0; }

  std::string InputsJson() const override {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"universe\":%d,\"blocks_per_epoch\":%d,"
        "\"records_per_block\":%d,\"tau_weighted\":%g,\"tau_set\":%g,"
        "\"epoch_end_union_rows_max_pair\":%.0f,"
        "\"epoch_end_union_rows_sets\":%.0f,\"fits_in_l3\":true}",
        universe_, blocks_, 2 * block_weighted_ + 2 * block_set_, kTauWeighted,
        kTauSet, rows_.empty() ? 0.0 : rows_.back().pair_union,
        rows_.empty() ? 0.0 : rows_.back().set_union);
    return buf;
  }

 private:
  static constexpr double kTauWeighted = 64.0;
  static constexpr double kTauSet = 16.0;

  struct Block {
    std::vector<pie::WeightedItem> items[kNumInstances];
  };
  struct CumulativeTruth {
    Truth truth;
    uint64_t records[kNumInstances] = {};
  };

  int universe_;
  int block_weighted_;
  int block_set_;
  int blocks_;
  pie::SketchStoreOptions options_;
  std::vector<Block> stream_;
  std::vector<CumulativeTruth> truth_;  // after each block
  std::vector<Answer> ref_max_, ref_distinct_;
  std::vector<Rows> rows_;
  std::shared_ptr<const pie::StoreSnapshot> final_snapshot_;
  std::unique_ptr<pie::SketchStore> store_;
  int next_block_ = 0;
};

}  // namespace ledger
