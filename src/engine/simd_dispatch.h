// The SIMD tier a build compiled.
//
// PIE_SIMD builds (the default, x86_64 only) compile the pattern-partitioned
// branch-free kernel paths for AVX2 (engine/registry.cc); PIE_SIMD=OFF
// builds compile the portable scalar row loop. The tier is fixed at build
// time -- there is no runtime dispatch -- and both tiers produce identical
// bits (tests/batch_equivalence_test.cc runs in both configurations).

#pragma once

namespace pie {

enum class SimdTier : int { kScalar = 0, kAvx2 = 1 };

/// The tier this build compiled: kAvx2 under PIE_SIMD, kScalar otherwise.
constexpr SimdTier ActiveSimdTier() {
#ifdef PIE_SIMD
  return SimdTier::kAvx2;
#else
  return SimdTier::kScalar;
#endif
}

}  // namespace pie
