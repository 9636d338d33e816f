// Exhaustive and Monte-Carlo error evaluation engines.
//
// Design-space sweeps run their exhaustive points on the sliced engine
// (error/evaluate_sliced.h); exhaustive_metrics below is its bit-exact
// reference oracle and the engine of the paper-table tests and benches.
//
// Both take the approximate multiplier as an inlineable callable
// `uint64_t f(uint64_t a, uint64_t b)` so that exhaustive sweeps (2^32
// operand pairs at 16-bit) run at bit-trick speed — pass a
// core/kernels.h MultiplyKernel (or a stateless kernel from the registry)
// rather than a virtual ApproxMultiplier wrapper. The exhaustive engine
// splits the operand space into a fixed grid of shards and distributes the
// shards across workers; because each shard accumulates the same pairs in
// the same order and shards merge in index order, the result is
// bit-identical for every worker count (and every machine's core count).
// The sliced engine keeps that order contract, each shard's pairs in its
// own order, while eight shards share one vector (LaneErrorAccumulator in
// error/metrics.h), so it matches this reference bit for bit.
//
// Threading contract: by default (max_threads == 0, no pool) the shards run
// inline on the calling thread. A caller that owns a ThreadPool passes it
// to spread shards over existing workers; only an explicit max_threads > 1
// spawns dedicated threads.
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
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "error/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sdlc {
namespace detail {

/// Runs `run_shard(s)` for every shard in [0, shards). Inline when no
/// parallelism was requested, over `pool` when one is provided, and on
/// dedicated threads only for an explicit max_threads > 1. Shard results
/// must be accumulated into per-shard state so the caller's merge order —
/// not the scheduling — decides the result. `run_shard` must not throw:
/// on a dedicated thread an exception would terminate the process.
template <typename RunShard>
void run_sharded(unsigned shards, unsigned max_threads, ThreadPool* pool,
                 RunShard&& run_shard) {
    if (pool != nullptr) {
        parallel_for(*pool, shards, [&](size_t s) { run_shard(static_cast<unsigned>(s)); });
        return;
    }
    const unsigned threads = std::min(max_threads, shards);
    if (threads <= 1) {
        for (unsigned s = 0; s < shards; ++s) run_shard(s);
        return;
    }
    std::atomic<unsigned> next{0};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&] {
            for (unsigned s = next.fetch_add(1); s < shards; s = next.fetch_add(1)) {
                run_shard(s);
            }
        });
    }
    for (auto& th : workers) th.join();
}

}  // namespace detail

/// Fixed shard-grid size of the exhaustive engines. The shard count (not
/// the worker count) decides the floating-point accumulation order, so the
/// result never depends on how many workers ran.
inline constexpr unsigned kExhaustiveShards = 64;

/// Evaluates `approx(a,b)` for every operand pair of the given width
/// (width <= 16 recommended: 2^(2*width) pairs) and returns the metrics.
/// Runs inline by default; pass a pool to shard over existing workers, or
/// an explicit max_threads > 1 to spawn dedicated threads.
template <typename ApproxFn>
[[nodiscard]] ErrorMetrics exhaustive_metrics(int width, ApproxFn approx,
                                              unsigned max_threads = 0,
                                              ThreadPool* pool = nullptr) {
    const uint64_t side = uint64_t{1} << width;
    // Shard by operand stripes a ≡ s (mod shards).
    const unsigned shards =
        static_cast<unsigned>(std::min<uint64_t>(kExhaustiveShards, side));
    std::vector<ErrorAccumulator> accs(shards, ErrorAccumulator(width));
    detail::run_sharded(shards, max_threads, pool, [&](unsigned s) {
        // B-axis tile: big enough to amortize the per-tile multiply, small
        // enough that the unrolled inner loop's state stays in registers.
        constexpr uint64_t kTile = 1024;
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
    });
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
