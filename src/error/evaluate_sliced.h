// Exhaustive error evaluation on the bit-sliced kernel.
//
// Same shard grid, same (a, b) visit order, same per-shard accumulators and
// merge order as the scalar exhaustive_metrics() — only the inner loop
// changes: each stripe evaluates 64 consecutive b values per block through
// SlicedMultiplyKernel's prepared fast path instead of one scalar kernel
// call per pair. Because ErrorAccumulator sees identical (exact, approx)
// pairs in an identical order, the returned ErrorMetrics is bit-identical
// to the scalar engine for every eligible configuration (enforced by
// tests/kernels_sliced_test.cpp, and product by product for every depth
// at widths 9-16 by tests/kernels_sliced_depths_test.cpp).
#ifndef SDLC_ERROR_EVALUATE_SLICED_H
#define SDLC_ERROR_EVALUATE_SLICED_H

#include "core/kernels_sliced.h"
#include "error/metrics.h"

namespace sdlc {

class ThreadPool;

/// Exhaustive metrics over every operand pair of the kernel's width.
/// Threading contract matches exhaustive_metrics(): inline by default,
/// shards over `pool` when provided, dedicated threads only for an
/// explicit max_threads > 1.
[[nodiscard]] ErrorMetrics exhaustive_metrics_sliced(const SlicedMultiplyKernel& kernel,
                                                     unsigned max_threads = 0,
                                                     ThreadPool* pool = nullptr);

}  // namespace sdlc

#endif  // SDLC_ERROR_EVALUATE_SLICED_H
