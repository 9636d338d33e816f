// Exhaustive and Monte-Carlo error evaluation engines.
//
// Design-space sweeps run their exhaustive points on the sliced engine
// (error/evaluate_sliced.h); exhaustive_metrics below is its bit-exact
// reference oracle and the engine of the paper-table tests and benches.
//
// Both take the approximate multiplier as an inlineable callable
// `uint64_t f(uint64_t a, uint64_t b)` so that exhaustive sweeps run at
// bit-trick speed — pass a core/kernels.h MultiplyKernel (or a stateless
// kernel from the registry) rather than a virtual ApproxMultiplier
// wrapper. Both run on the calling thread and spawn none. The exhaustive
// engine splits the operand space into a fixed grid of 64 shards, each
// accumulating its own pairs in its own order, and merges the shards in
// index order. That order is the contract: the sliced engine runs the same
// shards, eight to a vector (LaneErrorAccumulator in error/metrics.h) and
// its shard groups on any worker of a pool, and matches this reference bit
// for bit.
//
// The inner loop is strength-reduced: the exact product a*b advances by
// adding `a` as `b` steps through a tile, so no hardware multiply is spent
// on the reference value. Tiles re-seed the running product from one true
// multiply, which keeps the addition chain short, bounds the live range of
// the loop state to something register-resident, and gives the compiler a
// fixed trip count to unroll. The (a, b) visit order is unchanged, so all
// accumulated metrics stay bit-identical to the pre-tiled engine.
#ifndef SDLC_ERROR_EVALUATE_H
#define SDLC_ERROR_EVALUATE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "error/metrics.h"
#include "util/rng.h"

namespace sdlc {

/// Fixed shard-grid size of the exhaustive engines. The shard count
/// decides the floating-point accumulation order.
inline constexpr unsigned kExhaustiveShards = 64;

/// Evaluates `approx(a,b)` for every operand pair of the given width
/// (width <= 16 recommended: 2^(2*width) pairs) and returns the metrics.
template <typename ApproxFn>
[[nodiscard]] ErrorMetrics exhaustive_metrics(int width, ApproxFn approx) {
    const uint64_t side = uint64_t{1} << width;
    // Shard by operand stripes a ≡ s (mod shards).
    const unsigned shards =
        static_cast<unsigned>(std::min<uint64_t>(kExhaustiveShards, side));
    std::vector<ErrorAccumulator> accs(shards, ErrorAccumulator(width));
    // B-axis tile: big enough to amortize the per-tile multiply, small
    // enough that the unrolled inner loop's state stays in registers.
    constexpr uint64_t kTile = 1024;
    for (unsigned s = 0; s < shards; ++s) {
        ErrorAccumulator& acc = accs[s];
        for (uint64_t a = s; a < side; a += shards) {
            for (uint64_t b0 = 0; b0 < side; b0 += kTile) {
                const uint64_t b_end = std::min(side, b0 + kTile);
                uint64_t exact = a * b0;  // re-seed the running product
                for (uint64_t b = b0; b < b_end; ++b, exact += a) {
                    acc.add(exact, approx(a, b));
                }
            }
        }
    }
    for (unsigned s = 1; s < shards; ++s) accs[0].merge(accs[s]);
    return accs[0].finalize();
}

/// Evaluates `approx` on `samples` uniformly random operand pairs.
template <typename ApproxFn>
[[nodiscard]] ErrorMetrics sampled_metrics(int width, uint64_t samples, uint64_t seed,
                                           ApproxFn approx) {
    ErrorAccumulator acc(width);
    Xoshiro256 rng(seed);
    const uint64_t mask = (uint64_t{1} << width) - 1;
    for (uint64_t i = 0; i < samples; ++i) {
        const uint64_t a = rng.next() & mask;
        const uint64_t b = rng.next() & mask;
        acc.add(a * b, approx(a, b));
    }
    return acc.finalize();
}

}  // namespace sdlc

#endif  // SDLC_ERROR_EVALUATE_H
