// Exhaustive error evaluation on the block kernel (core/kernels_sliced.h).
//
// Same shard grid, same per-shard (a, b) visit order and same merge order
// as the scalar exhaustive_metrics(). Two things change. Each stripe
// evaluates 64 consecutive b values per block through
// SlicedMultiplyKernel's prepared path instead of one scalar kernel call
// per pair. And the 64 shards run as 8 groups of 8 in lockstep: one
// LaneErrorAccumulator per group holds shard k of the group in lane k, so
// each shard still adds its own pairs in its own order, and eight shards
// share one vector. After the sweep every lane becomes the shard's
// ErrorAccumulator, and the shards merge in index order. The returned
// ErrorMetrics is therefore bit-identical to the scalar engine for every
// eligible configuration (enforced by tests/kernels_sliced_test.cpp and
// tests/eval_engine_test.cpp, product by product for every depth at widths
// 9-16 by tests/kernels_sliced_depths_test.cpp, and lane by lane for both
// lane blocks by tests/error_test.cpp).
#ifndef SDLC_ERROR_EVALUATE_SLICED_H
#define SDLC_ERROR_EVALUATE_SLICED_H

#include <atomic>
#include <chrono>
#include <optional>
#include <vector>

#include "core/kernels_sliced.h"
#include "error/metrics.h"

namespace sdlc {

/// When an exhaustive evaluation gives up: a cancel flag, a deadline, both
/// or (the default) neither.
struct EvalStop {
    const std::atomic<bool>* cancel = nullptr;
    std::chrono::steady_clock::time_point deadline{};  ///< the epoch means none

    [[nodiscard]] bool cancelled() const noexcept {
        return cancel != nullptr && cancel->load(std::memory_order_relaxed);
    }
    [[nodiscard]] bool expired() const noexcept {
        return deadline != std::chrono::steady_clock::time_point{} &&
               std::chrono::steady_clock::now() >= deadline;
    }
};

/// One exhaustive evaluation cut into its shard groups, for a caller that
/// schedules the groups itself: evaluate_sweep runs each shard group of a
/// wide function as a task of its own on one pool, so the workers share
/// out a sweep's last functions instead of one worker finishing each.
/// Call run_group(g) once for every g in [0, groups()),
/// on any threads, and result() once they have all returned true.
/// exhaustive_metrics_sliced() is that loop.
class SlicedExhaustiveRun {
public:
    /// `kernel` must outlive the run.
    explicit SlicedExhaustiveRun(const SlicedMultiplyKernel& kernel);

    /// Shard groups of a run at `width`: 8 from width 6 up, fewer below,
    /// where there are fewer shards.
    [[nodiscard]] static unsigned groups(int width) noexcept;
    [[nodiscard]] unsigned groups() const noexcept {
        return static_cast<unsigned>(accs_.size());
    }

    /// Runs shard group g, polling `stop` once per step of 8 stripes (~0.1
    /// ms at width 12 on one core, ~2 ms at width 16). Returns false, with
    /// the group unfinished, once it fires.
    [[nodiscard]] bool run_group(unsigned g, const EvalStop& stop) noexcept;

    /// The metrics: every shard's lane merged in shard order.
    [[nodiscard]] ErrorMetrics result() const noexcept;

private:
    const SlicedMultiplyKernel& kernel_;
    unsigned shards_;
    std::vector<LaneErrorAccumulator> accs_;
};

/// Exhaustive metrics over every operand pair of the kernel's width, on
/// the calling thread: SlicedExhaustiveRun's groups in order. Once `stop`
/// fires, the running group returns at its next poll and so does the
/// engine, with no result.
[[nodiscard]] std::optional<ErrorMetrics> exhaustive_metrics_sliced(
    const SlicedMultiplyKernel& kernel, const EvalStop& stop = {});

}  // namespace sdlc

#endif  // SDLC_ERROR_EVALUATE_SLICED_H
