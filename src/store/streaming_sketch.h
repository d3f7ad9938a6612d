// One-pass streaming sketch builders: the store layer's ingestion
// primitives (the classic bottom-k / priority-sampling regime of the
// Cohen-Kaplan coordinated-sketch line).
//
// The batch builders (PpsInstanceSketch::Build, BottomKSample) consume a
// fully materialized std::vector<WeightedItem>; a live service cannot
// afford that dump. Both samplers are permutation-invariant functions of
// the item set -- PPS inclusion tests each key against a fixed seed-derived
// threshold, bottom-k keeps the k+1 smallest ranks -- so they admit exact
// one-pass maintenance: feeding records incrementally yields the same
// sample set as the batch builders on any arrival order. Both sketches are
// also exactly mergeable, which is what lets the sharded store fan updates
// out to per-shard sketches and recover the global per-instance sketch at
// snapshot time with no approximation.
//
// Record model: records are pre-aggregated per key (the paper's
// one-value-per-key-per-instance model, Section 7.1). A repeat arrival of
// a key that is already sampled accumulates exactly (weights only grow and
// the inclusion threshold u(h)*tau is fixed, so the key stays sampled); a
// repeat arrival of a previously rejected key is tested on its own weight
// -- exact PPS of the aggregated totals therefore requires each key's
// total to arrive in one record, or its first record to already clear the
// threshold.

#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "sampling/bottomk.h"
#include "sampling/rank.h"
#include "util/hashing.h"
#include "util/status.h"

namespace pie {

/// Incremental Poisson PPS sketch of one instance: key h is included iff
/// v(h) >= u(h) * tau, i.e. with probability min(1, v(h)/tau). Produces
/// the same sample set as PpsInstanceSketch::Build on any arrival order
/// (Build is a thin wrapper over this class).
class StreamingPpsSketch {
 public:
  StreamingPpsSketch(double tau, uint64_t salt);

  /// Rebuilds a sketch from persisted state (persist/format.cc): the
  /// entries land in `entries_` in the given order -- which a round-trip
  /// makes the original arrival order, keeping serialization bitwise --
  /// and the key index is built at its final size in one pass. The input
  /// is untrusted: DataLoss when tau or a weight is not finite and
  /// positive, when a weight falls below its inclusion threshold
  /// seed(key) * tau, or when two entries share a key (found while the
  /// index is built, so the check costs no extra probe).
  static Result<StreamingPpsSketch> TryFromParts(
      double tau, uint64_t salt, std::vector<WeightedItem> entries,
      uint64_t num_updates);

  /// TryFromParts for trusted input: a rejected input is a programming
  /// error and PIE_CHECKs.
  static StreamingPpsSketch FromParts(double tau, uint64_t salt,
                                      std::vector<WeightedItem> entries,
                                      uint64_t num_updates);

  /// Offers one (key, weight) record. Nonpositive weights are never
  /// sampled (sparse representation) but still count toward num_updates().
  void Update(uint64_t key, double weight) {
    ++num_updates_;
    if (weight <= 0) return;
    const uint64_t hash = Mix64(key);
    const size_t cell = FindCell(key, hash);
    if (cells_[cell].slot != kEmptySlot) {
      entries_[cells_[cell].slot].weight += weight;  // sampled keys stay sampled
      return;
    }
    if (weight >= seed_fn_(key) * tau_) Insert(key, weight, hash, cell);
  }

  /// Folds `other` in as if its records had been appended to this stream.
  /// Both sketches must share tau and salt (same sampling configuration).
  void Merge(const StreamingPpsSketch& other);

  double tau() const { return tau_; }
  uint64_t salt() const { return seed_fn_.salt(); }
  const SeedFunction& seed_fn() const { return seed_fn_; }
  int size() const { return static_cast<int>(entries_.size()); }
  /// Number of Update() calls absorbed (including nonpositive-weight and
  /// merged-in ones); used by snapshot consistency checks.
  uint64_t num_updates() const { return num_updates_; }

  /// Sampled entries in arrival order.
  const std::vector<WeightedItem>& entries() const { return entries_; }
  /// Sampled entries in canonical (ascending key) order, for comparing
  /// sample sets across arrival permutations or shard layouts.
  std::vector<WeightedItem> EntriesByKey() const;

  /// True + value if the key is in the sketch.
  bool Lookup(uint64_t key, double* value) const {
    const size_t cell = FindCell(key, Mix64(key));
    if (cells_[cell].slot == kEmptySlot) return false;
    if (value != nullptr) *value = entries_[cells_[cell].slot].weight;
    return true;
  }

  /// Horvitz-Thompson subset-sum estimate of this instance's values over
  /// keys selected by `pred`. Templated so hot scans pay no std::function
  /// indirection or allocation.
  template <typename Pred>
  double SubsetSumEstimate(Pred&& pred) const {
    double sum = 0.0;
    for (const auto& e : entries_) {
      if (pred(e.key)) {
        // Same expression as PpsInstanceSketch::SubsetSumEstimate, so the
        // store and materialized-sketch paths agree bitwise (w/(w/tau)
        // differs from a plain max(w, tau) by an ulp for many pairs).
        sum += e.weight / std::fmin(1.0, e.weight / tau_);
      }
    }
    return sum;
  }

 private:
  /// One index cell: the low 32 bits of the key's Mix64 hash (a filter
  /// that spares the entries_ read on almost every mismatched cell) and
  /// the key's entries_ slot, kEmptySlot when the cell is free.
  struct Cell {
    uint32_t fingerprint;
    uint32_t slot;
  };
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  /// Linear probe for `key` (hash = Mix64(key)) from the bucket named by
  /// the hash's high bits -- the store routes keys to shards by
  /// Mix64(key) % num_shards, which pins the low bits within a shard.
  /// Returns the key's cell, else the free cell that ends its probe run.
  size_t FindCell(uint64_t key, uint64_t hash) const {
    const size_t mask = cells_.size() - 1;
    const auto fingerprint = static_cast<uint32_t>(hash);
    for (size_t i = static_cast<size_t>(hash >> shift_);; i = (i + 1) & mask) {
      const Cell cell = cells_[i];
      if (cell.slot == kEmptySlot ||
          (cell.fingerprint == fingerprint &&
           entries_[cell.slot].key == key)) {
        return i;
      }
    }
  }

  /// Appends (key, weight), a key known to be absent, and indexes it at
  /// `cell` (FindCell's answer for it) -- or rebuilds the index a size up
  /// when the new entry would push its load above 1/2.
  void Insert(uint64_t key, double weight, uint64_t hash, size_t cell);

  /// Rebuilds the index at CapacityFor(size()) cells, indexing entries_ in
  /// slot order. False (index incomplete) when two entries share a key.
  [[nodiscard]] bool Rehash();

  /// Index size for n entries: the smallest power of two >= 2n, at least
  /// 16 -- a function of n alone, however the entries arrived.
  static size_t CapacityFor(size_t n);

  double tau_;
  SeedFunction seed_fn_;
  std::vector<WeightedItem> entries_;
  /// Open-addressing key -> entries_ slot index, load <= 1/2. Trivially
  /// copyable, so a snapshot copies it whole.
  std::vector<Cell> cells_;
  int shift_ = 0;  // 64 - log2(cells_.size())
  uint64_t num_updates_ = 0;
};

/// Incremental bottom-k (order) sketch of one instance: keeps the k+1
/// smallest-ranked keys; Finalize() surfaces the k smallest as entries and
/// the (k+1)-st smallest rank as the rank-conditioning threshold, byte-
/// identical to BottomKSample over the same record multiset, on any
/// arrival order.
///
/// Merging is exact: each of the union's k+1 smallest ranks is among the
/// k+1 smallest of its own substream, all of which the substream's sketch
/// still holds (keys included -- the threshold item is only shed at
/// Finalize), so folding one sketch's slots into the other reproduces the
/// single-stream sketch of the concatenation.
class StreamingBottomkSketch {
 public:
  StreamingBottomkSketch(int k, RankFamily family, uint64_t salt);

  /// Offers one (key, weight) record. Keys must be distinct across the
  /// stream (pre-aggregated records); zero weights rank at +infinity and
  /// are never retained.
  void Update(uint64_t key, double weight);

  /// Folds `other` in. Both sketches must share k, family, and salt, and
  /// the two streams' key sets must be disjoint (e.g. hash-sharded).
  void Merge(const StreamingBottomkSketch& other);

  int k() const { return k_; }
  RankFamily family() const { return family_; }
  uint64_t salt() const { return seed_fn_.salt(); }
  uint64_t num_updates() const { return num_updates_; }

  /// The bottom-k sketch of everything absorbed so far: entries sorted by
  /// increasing rank, threshold = (k+1)-st smallest rank (+infinity when
  /// fewer than k+1 positive keys were seen).
  BottomKSketch Finalize() const;

 private:
  void Push(const BottomKSketch::Entry& entry);

  int k_;
  RankFamily family_;
  SeedFunction seed_fn_;
  /// Max-heap (by rank) holding the k+1 smallest-ranked items seen so far.
  std::vector<BottomKSketch::Entry> heap_;
  uint64_t num_updates_ = 0;
};

}  // namespace pie
