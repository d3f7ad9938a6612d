// Seeded input generation for the ledger's workloads, built on
// src/workload (ZipfGenerator, MakeJaccardSetPair), plus the exact ground
// truth of each input.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "queries.h"
#include "sampling/bottomk.h"
#include "util/random.h"
#include "workload/sets.h"
#include "workload/zipf.h"

namespace ledger {

/// Set-instance keys live far above the traffic keys.
inline constexpr uint64_t kSetKeyBase = uint64_t{1} << 40;

template <typename T>
void Shuffle(std::vector<T>& v, pie::Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.UniformInt(i)]);
  }
}

inline double StandardNormal(pie::Rng& rng) {
  const double u1 = std::max(rng.UniformDouble(), 1e-300);
  const double u2 = rng.UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

/// Scales the positive entries to sum to about `target`, rounded to
/// integers >= 1 (flow counts).
inline void NormalizeToTotal(std::vector<double>& values, double target) {
  double sum = 0.0;
  for (double v : values) sum += v;
  const double scale = target / sum;
  for (double& v : values) {
    if (v > 0) v = std::max(1.0, std::round(v * scale));
  }
}

/// Two-hour traffic-like pair over keys 1..v0.size(): the shape of
/// workload/traffic.h GenerateTraffic (Zipf base rates, lognormal
/// hour-to-hour churn, single-hour keys), scaled to `n` keys per instance
/// and stored flat so a million-key input costs no per-key allocation.
struct TrafficPair {
  std::vector<double> v0, v1;  // index = key - 1; 0 = absent

  static TrafficPair Make(int n, uint64_t seed) {
    const int distinct = static_cast<int>(std::lround(n * 38000.0 / 24500.0));
    const int overlap = 2 * n - distinct;
    const int only_each = n - overlap;
    pie::Rng rng(seed);
    pie::ZipfGenerator zipf(n, 1.05);
    auto base = [&] {
      return zipf.ValueOfRank(
          static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n))) + 1, 1e4);
    };
    TrafficPair d;
    d.v0.assign(static_cast<size_t>(n + only_each), 0.0);
    d.v1.assign(static_cast<size_t>(n + only_each), 0.0);
    for (int i = 0; i < overlap; ++i) {
      const double b = base();
      d.v0[static_cast<size_t>(i)] = b;
      d.v1[static_cast<size_t>(i)] = b * std::exp(0.45 * StandardNormal(rng));
    }
    for (int i = 0; i < only_each; ++i) {
      d.v0[static_cast<size_t>(overlap + i)] = base() * 0.28;
    }
    for (int i = 0; i < only_each; ++i) {
      d.v1[static_cast<size_t>(n + i)] = base() * 0.28;
    }
    const double flows = 5.5e5 * n / 24500.0;
    NormalizeToTotal(d.v0, flows);
    NormalizeToTotal(d.v1, flows);
    return d;
  }

  std::vector<pie::WeightedItem> Items(int instance) const {
    const std::vector<double>& v = instance == 0 ? v0 : v1;
    std::vector<pie::WeightedItem> items;
    for (size_t k = 0; k < v.size(); ++k) {
      if (v[k] > 0) items.push_back({static_cast<uint64_t>(k + 1), v[k]});
    }
    return items;
  }

  /// Adds each key's max, min and |difference| to the truth of the shard
  /// `shard_of(key)` routes it to.
  template <typename ShardOf>
  void AddTruth(std::vector<Truth>* per_shard, const ShardOf& shard_of) const {
    for (size_t k = 0; k < v0.size(); ++k) {
      Truth& t = (*per_shard)[static_cast<size_t>(shard_of(k + 1))];
      t.max_sum += std::max(v0[k], v1[k]);
      t.min_sum += std::min(v0[k], v1[k]);
      t.l1_sum += std::fabs(v0[k] - v1[k]);
    }
  }
};

inline std::vector<pie::WeightedItem> UnitItems(
    const std::vector<uint64_t>& keys) {
  std::vector<pie::WeightedItem> items;
  items.reserve(keys.size());
  for (uint64_t k : keys) items.push_back({k, 1.0});
  return items;
}

}  // namespace ledger
