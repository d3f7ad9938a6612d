#include "store/streaming_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.h"

namespace pie {

StreamingPpsSketch::StreamingPpsSketch(double tau, uint64_t salt)
    : tau_(tau), seed_fn_(salt) {
  PIE_CHECK(tau > 0 && std::isfinite(tau));
  Rehash();
}

StreamingPpsSketch StreamingPpsSketch::FromParts(
    double tau, uint64_t salt, std::vector<WeightedItem> entries,
    uint64_t num_updates) {
  StreamingPpsSketch sketch(tau, salt);
  for (const auto& e : entries) {
    PIE_CHECK(e.weight >= sketch.seed_fn_(e.key) * tau &&
              "entry violates the PPS inclusion invariant");
  }
  sketch.entries_ = std::move(entries);
  sketch.Rehash();
  sketch.num_updates_ = num_updates;
  return sketch;
}

size_t StreamingPpsSketch::CapacityFor(size_t n) {
  return std::max<size_t>(16, std::bit_ceil(2 * n));
}

void StreamingPpsSketch::Rehash() {
  PIE_CHECK(entries_.size() < kEmptySlot);
  const size_t capacity = CapacityFor(entries_.size());
  cells_.assign(capacity, Cell{0, kEmptySlot});
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (size_t slot = 0; slot < entries_.size(); ++slot) {
    const uint64_t key = entries_[slot].key;
    const uint64_t hash = Mix64(key);
    const auto fingerprint = static_cast<uint32_t>(hash);
    size_t i = static_cast<size_t>(hash >> shift_);
    while (cells_[i].slot != kEmptySlot) {
      PIE_CHECK((cells_[i].fingerprint != fingerprint ||
                 entries_[cells_[i].slot].key != key) &&
                "duplicate key in persisted entries");
      i = (i + 1) & mask;
    }
    cells_[i] = {fingerprint, static_cast<uint32_t>(slot)};
  }
}

void StreamingPpsSketch::Insert(uint64_t key, double weight, uint64_t hash,
                                size_t cell) {
  entries_.push_back({key, weight});
  if (2 * entries_.size() > cells_.size()) {
    Rehash();  // indexes the new entry too
    return;
  }
  cells_[cell] = {static_cast<uint32_t>(hash),
                  static_cast<uint32_t>(entries_.size() - 1)};
}

void StreamingPpsSketch::Merge(const StreamingPpsSketch& other) {
  PIE_CHECK(other.tau_ == tau_);
  PIE_CHECK(other.salt() == salt());
  // Replaying the other stream's sampled entries is exact: its rejected
  // records would be rejected here too (same seeds, same tau), and its
  // sampled ones arrive with their accumulated weights.
  for (const auto& e : other.entries_) {
    const uint64_t hash = Mix64(e.key);
    const size_t cell = FindCell(e.key, hash);
    if (cells_[cell].slot != kEmptySlot) {
      entries_[cells_[cell].slot].weight += e.weight;
    } else {
      Insert(e.key, e.weight, hash, cell);
    }
  }
  num_updates_ += other.num_updates_;
}

std::vector<WeightedItem> StreamingPpsSketch::EntriesByKey() const {
  std::vector<WeightedItem> sorted = entries_;
  std::sort(sorted.begin(), sorted.end(),
            [](const WeightedItem& a, const WeightedItem& b) {
              return a.key < b.key;
            });
  return sorted;
}

StreamingBottomkSketch::StreamingBottomkSketch(int k, RankFamily family,
                                               uint64_t salt)
    : k_(k), family_(family), seed_fn_(salt) {
  PIE_CHECK(k > 0);
}

StreamingBottomkSketch StreamingBottomkSketch::FromParts(
    int k, RankFamily family, uint64_t salt,
    std::vector<BottomKSketch::Entry> slots, uint64_t num_updates) {
  StreamingBottomkSketch sketch(k, family, salt);
  PIE_CHECK(static_cast<int>(slots.size()) <= k + 1);
  auto by_rank = [](const BottomKSketch::Entry& a,
                    const BottomKSketch::Entry& b) { return a.rank < b.rank; };
  PIE_CHECK(std::is_heap(slots.begin(), slots.end(), by_rank));
  for (const auto& slot : slots) {
    PIE_CHECK(slot.rank == RankValue(family, slot.weight, sketch.seed_fn_(
                                                              slot.key)) &&
              "persisted rank disagrees with its (key, weight, salt)");
  }
  sketch.heap_ = std::move(slots);
  sketch.num_updates_ = num_updates;
  return sketch;
}

void StreamingBottomkSketch::Push(const BottomKSketch::Entry& entry) {
  auto by_rank = [](const BottomKSketch::Entry& a,
                    const BottomKSketch::Entry& b) { return a.rank < b.rank; };
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), by_rank);
  if (static_cast<int>(heap_.size()) > k_ + 1) {
    std::pop_heap(heap_.begin(), heap_.end(), by_rank);
    heap_.pop_back();
  }
}

void StreamingBottomkSketch::Update(uint64_t key, double weight) {
  ++num_updates_;
  if (weight <= 0) return;  // rank +infinity, never retained
  Push({key, weight, RankValue(family_, weight, seed_fn_(key))});
}

void StreamingBottomkSketch::Merge(const StreamingBottomkSketch& other) {
  PIE_CHECK(other.k_ == k_);
  PIE_CHECK(other.family_ == family_);
  PIE_CHECK(other.salt() == salt());
  // The union's k+1 smallest ranks are each among their own substream's
  // k+1 smallest, all of which `other` still holds with keys and weights.
  for (const auto& entry : other.heap_) Push(entry);
  num_updates_ += other.num_updates_;
}

BottomKSketch StreamingBottomkSketch::Finalize() const {
  BottomKSketch sketch;
  sketch.family = family_;
  sketch.k = k_;

  sketch.entries = heap_;
  std::sort(sketch.entries.begin(), sketch.entries.end(),
            [](const BottomKSketch::Entry& a, const BottomKSketch::Entry& b) {
              return a.rank < b.rank;
            });
  if (static_cast<int>(sketch.entries.size()) == k_ + 1) {
    sketch.threshold = sketch.entries.back().rank;
    sketch.entries.pop_back();
  } else {
    sketch.threshold = Infinity();  // sketch holds the whole instance
  }
  return sketch;
}

}  // namespace pie
