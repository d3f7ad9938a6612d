// Deterministic multi-threaded scan driver for columnar batches.
//
// The per-key estimators are embarrassingly parallel, so a sum aggregate
// over a BatchView should scale across cores -- but serving paths promise
// bitwise-reproducible results, which naive parallel accumulation (sum
// order dependent on thread completion) breaks. This driver restores both
// properties at once:
//
//  * the view is split into FIXED-size chunks of kScanChunkRows rows
//    (independent of the thread count), and each chunk's partial is
//    computed by exactly one worker with one Scan call of the kernel
//    (estimates and variances together), rows accumulated in row order;
//  * the per-chunk partials are combined after the join by a FIXED-SHAPE
//    pairwise (tree) reduction over the chunk index -- the shape depends
//    only on the number of chunks, never on which thread produced which
//    partial or in what order workers finished.
//
// Result: for a given batch the output bits are a function of the chunk
// size alone. One thread, two threads, or eight produce identical bytes,
// so callers (EstimateSum, AccuracyAccumulator, the store's QueryService
// scans) can pick a thread count purely on throughput grounds.

#pragma once

#include <cstdint>

#include "engine/kernel.h"
#include "util/stats.h"

namespace pie {

/// Rows per scan chunk: the unit of work distribution AND the accumulation
/// granularity the deterministic guarantee is defined over. Shared by every
/// scan driver (EstimateSum, AccuracyAccumulator) so their reductions stay
/// bitwise-comparable.
constexpr int kScanChunkRows = 256;

/// Mergeable partial of one fused estimate+variance scan: the running sum,
/// the summed per-key variance estimates, and the per-key estimate moments
/// (Welford/Chan, for spread diagnostics). Merge order is the tree's
/// business; Merge itself is plain component-wise combination.
struct ScanPartial {
  double sum = 0.0;
  double variance = 0.0;
  MomentAccumulator per_key;

  void Merge(const ScanPartial& o) {
    sum += o.sum;
    variance += o.variance;
    per_key.Merge(o.per_key);
  }
};

struct ScanOptions {
  /// Parallelism cap for this scan; 1 scans inline on the calling thread,
  /// 0 picks the PIE_THREADS environment variable when set, else clamped
  /// hardware_concurrency (engine/worker_pool.h). Parallel scans run on
  /// the process-wide persistent WorkerPool, whose size is the global
  /// ceiling. The result bits never depend on this value.
  int num_threads = 1;
  /// When false the scan asks the kernel for point estimates only (Scan
  /// with a null variance output); ScanPartial::variance stays 0.
  bool with_variance = true;
};

/// Scans every row of `view` with the kernel and returns the tree-reduced
/// totals. Deterministic: bitwise-identical output for any num_threads.
ScanPartial ScanBatch(const EstimatorKernel& kernel, BatchView view,
                      const ScanOptions& options);

/// Point-only scan: the sum of per-row estimates under the same chunking
/// and tree reduction (bitwise identical to ScanBatch(...).sum with any
/// with_variance setting), without maintaining moments. The engine's
/// EstimateSum routes here.
double ScanSum(const EstimatorKernel& kernel, BatchView view,
               int num_threads = 1);

/// The fixed-shape pairwise reduction the scans use, exposed for reuse by
/// other chunked drivers (and tests): merges partials[begin..end) into
/// partials[begin] by combining strided pairs -- (0,1),(2,3),... then
/// (0,2),(4,6),... -- so the addition tree depends only on the element
/// count. Merge(T&, const T&) via a member or free overload.
template <typename T>
void TreeReduce(T* partials, int count) {
  for (int stride = 1; stride < count; stride *= 2) {
    for (int i = 0; i + stride < count; i += 2 * stride) {
      partials[i].Merge(partials[i + stride]);
    }
  }
}

}  // namespace pie
