#include "engine/parallel_scan.h"

#include <algorithm>
#include <vector>

#include "engine/worker_pool.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace pie {
namespace {

/// Scan-driver instrumentation, bumped once per scan (not per chunk or
/// key): batch/chunk/key totals plus a per-scan wall-time histogram.
struct ScanMetrics {
  obs::Counter& batches;
  obs::Counter& chunks;
  obs::Counter& keys;
  obs::Histogram& seconds;

  static ScanMetrics& Get() {
    static ScanMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return new ScanMetrics{
          reg.GetCounter("pie_scan_batches_total",
                         "Batch scans executed by the chunked driver"),
          reg.GetCounter("pie_scan_chunks_total",
                         "Fixed-size row chunks processed across scans"),
          reg.GetCounter("pie_scan_keys_total",
                         "Keys (rows) scanned across all batch scans"),
          reg.GetHistogram("pie_scan_seconds",
                           "Wall time of one chunked batch scan",
                           obs::LatencyBuckets()),
      };
    }();
    return *m;
  }
};

void CountScan(const EstimatorKernel& kernel, const BatchView& view,
               int num_chunks, ScanMetrics& metrics) {
  metrics.batches.Increment();
  metrics.chunks.Add(static_cast<uint64_t>(num_chunks));
  metrics.keys.Add(static_cast<uint64_t>(view.size));
  if (kernel.obs_scans != nullptr) {
    kernel.obs_scans->Increment();
    kernel.obs_rows->Add(static_cast<uint64_t>(view.size));
  }
}

int ResolveThreads(int requested, int num_chunks) {
  const int threads = ResolveParallelism(requested);
  PIE_CHECK(threads >= 1);
  return std::min(threads, num_chunks);
}

/// Runs chunk_fn(c) for every chunk index in [0, num_chunks) on the
/// process-wide persistent worker pool (engine/worker_pool.h), the caller
/// included, up to `threads` wide. Which worker computes which chunk is
/// racy; what each chunk computes is not -- partials are indexed by chunk,
/// so the post-wait reduction sees the same inputs regardless of
/// scheduling. ParallelFor's completion wait gives the caller a
/// happens-before edge over every partial.
template <typename ChunkFn>
void ForEachChunk(int num_chunks, int threads, const ChunkFn& chunk_fn) {
  if (threads <= 1) {
    for (int c = 0; c < num_chunks; ++c) chunk_fn(c);
    return;
  }
  WorkerPool::Global().ParallelFor(num_chunks, threads, chunk_fn);
}

/// One chunk's [begin, begin + count) rows as a sub-view.
BatchView Chunk(const BatchView& view, int c) {
  const int begin = c * kScanChunkRows;
  return view.Slice(begin, std::min(kScanChunkRows, view.size - begin));
}

struct SumPartial {
  double sum = 0.0;
  void Merge(const SumPartial& o) { sum += o.sum; }
};

/// Computes every chunk's partial with chunk_fn(c, &partial) and returns
/// the tree-reduced total. Scans of up to kStackPartials chunks (the
/// store's typical per-shard batches) keep the partials on the stack, so
/// a steady-state serving scan still allocates nothing; the heap vector
/// only appears once the batch is large enough to amortize it. Both paths
/// reduce with the same TreeReduce shape, so the bits never depend on
/// which one ran.
template <typename Partial, typename ChunkFn>
Partial ReduceChunks(int num_chunks, int threads, const ChunkFn& chunk_fn) {
  constexpr int kStackPartials = 16;
  if (num_chunks <= kStackPartials) {
    Partial partials[kStackPartials];
    ForEachChunk(num_chunks, threads,
                 [&](int c) { chunk_fn(c, &partials[c]); });
    TreeReduce(partials, num_chunks);
    return partials[0];
  }
  std::vector<Partial> partials(static_cast<size_t>(num_chunks));
  ForEachChunk(num_chunks, threads, [&](int c) {
    chunk_fn(c, &partials[static_cast<size_t>(c)]);
  });
  TreeReduce(partials.data(), num_chunks);
  return partials[0];
}

}  // namespace

ScanPartial ScanBatch(const EstimatorKernel& kernel, BatchView view,
                      const ScanOptions& options) {
  if (view.size == 0) return ScanPartial();
  const int num_chunks = (view.size + kScanChunkRows - 1) / kScanChunkRows;
  const int threads = ResolveThreads(options.num_threads, num_chunks);
  const bool with_variance = options.with_variance;
  ScanMetrics& metrics = ScanMetrics::Get();
  CountScan(kernel, view, num_chunks, metrics);
  obs::ScopedTimer timer(metrics.seconds);
  return ReduceChunks<ScanPartial>(num_chunks, threads, [&](int c,
                                                            ScanPartial*
                                                                out) {
    const BatchView chunk = Chunk(view, c);
    double est[kScanChunkRows];
    double var[kScanChunkRows];
    ScanPartial& partial = *out;
    double sum = 0.0;
    kernel.Scan(chunk, est, with_variance ? var : nullptr);
    if (with_variance) {
      double variance = 0.0;
      for (int i = 0; i < chunk.size; ++i) {
        sum += est[i];
        variance += var[i];
      }
      partial.variance = variance;
    } else {
      for (int i = 0; i < chunk.size; ++i) sum += est[i];
    }
    partial.sum = sum;
    // Chunk moments in closed form (two-pass mean/M2) rather than per-key
    // Welford: no division in the per-key loop, and Chan's Merge combines
    // chunk moments exactly as it combines Welford partials.
    const double mean = sum / static_cast<double>(chunk.size);
    double m2 = 0.0;
    for (int i = 0; i < chunk.size; ++i) {
      const double delta = est[i] - mean;
      m2 += delta * delta;
    }
    partial.per_key = MomentAccumulator::FromMoments(chunk.size, mean, m2);
  });
}

double ScanSum(const EstimatorKernel& kernel, BatchView view,
               int num_threads) {
  if (view.size == 0) return 0.0;
  const int num_chunks = (view.size + kScanChunkRows - 1) / kScanChunkRows;
  const int threads = ResolveThreads(num_threads, num_chunks);
  ScanMetrics& metrics = ScanMetrics::Get();
  CountScan(kernel, view, num_chunks, metrics);
  obs::ScopedTimer timer(metrics.seconds);
  return ReduceChunks<SumPartial>(num_chunks, threads,
                                  [&](int c, SumPartial* out) {
                                    const BatchView chunk = Chunk(view, c);
                                    double est[kScanChunkRows];
                                    kernel.Scan(chunk, est, nullptr);
                                    double sum = 0.0;
                                    for (int i = 0; i < chunk.size; ++i) {
                                      sum += est[i];
                                    }
                                    out->sum = sum;
                                  })
      .sum;
}

}  // namespace pie
