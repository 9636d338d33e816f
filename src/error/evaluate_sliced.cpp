#include "error/evaluate_sliced.h"

#include "error/evaluate.h"

namespace sdlc {

namespace {

constexpr unsigned kLanes = LaneErrorAccumulator::kLanes;

unsigned shard_count(int width) noexcept {
    return static_cast<unsigned>(std::min<uint64_t>(kExhaustiveShards, uint64_t{1} << width));
}

}  // namespace

// Width 2 has 4 shards: one group whose idle lanes add a = 0 against zero
// products and are never read.
unsigned SlicedExhaustiveRun::groups(int width) noexcept {
    return (shard_count(width) + kLanes - 1) / kLanes;
}

SlicedExhaustiveRun::SlicedExhaustiveRun(const SlicedMultiplyKernel& kernel)
    : kernel_(kernel),
      shards_(shard_count(kernel.config().width)),
      accs_(groups(kernel.config().width), LaneErrorAccumulator(kernel.config().width)) {}

bool SlicedExhaustiveRun::run_group(unsigned g, const EvalStop& stop) noexcept {
    const uint64_t side = uint64_t{1} << kernel_.config().width;
    const unsigned pairs = kernel_.natural_lanes();
    // Accumulate in a copy: the groups of one run go to different threads,
    // and neighbouring accumulators share cache lines.
    LaneErrorAccumulator acc = accs_[g];
    const unsigned active = std::min(kLanes, shards_ - g * kLanes);
    SlicedMultiplyKernel::Prepared prep[kLanes];
    uint64_t a[kLanes] = {};
    alignas(64) LaneErrorAccumulator::Block approx = {};
    // Lane k is shard 8g + k. One step takes each lane's next stripe, so
    // lane k still visits a = 8g + k, 8g + k + shards, ... and, within a
    // stripe, b ascending 0..side-1 exactly as the scalar engine does.
    // side is a power of two >= pairs, so every block is aligned and full.
    for (uint64_t a0 = g * kLanes; a0 < side; a0 += shards_) {
        if (stop.cancelled() || stop.expired()) return false;
        for (unsigned k = 0; k < active; ++k) {
            a[k] = a0 + k;
            kernel_.prepare(a[k], prep[k]);
        }
        for (uint64_t b0 = 0; b0 < side; b0 += pairs) {
            for (unsigned k = 0; k < active; ++k) {
                kernel_.multiply_block_prepared(prep[k], b0, approx[k]);
            }
            acc.add_block(a, b0, approx, pairs);
        }
    }
    accs_[g] = acc;
    return true;
}

ErrorMetrics SlicedExhaustiveRun::result() const noexcept {
    ErrorAccumulator total = accs_[0].lane(0);
    for (unsigned s = 1; s < shards_; ++s) total.merge(accs_[s / kLanes].lane(s % kLanes));
    return total.finalize();
}

std::optional<ErrorMetrics> exhaustive_metrics_sliced(const SlicedMultiplyKernel& kernel,
                                                      unsigned max_threads, ThreadPool* pool,
                                                      const EvalStop& stop) {
    SlicedExhaustiveRun run(kernel);
    std::atomic<bool> stopped{false};
    detail::run_sharded(run.groups(), max_threads, pool, [&](unsigned g) {
        if (!run.run_group(g, stop)) stopped.store(true, std::memory_order_relaxed);
    });
    if (stopped.load(std::memory_order_relaxed)) return std::nullopt;
    return run.result();
}

}  // namespace sdlc
