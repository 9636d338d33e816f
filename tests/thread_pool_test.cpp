// Tests for the DSE thread pool and its parallel_for index scheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.h"

namespace sdlc {
namespace {

TEST(ThreadPool, RunsEverySubmittedJob) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4u);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i) {
        pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
    ThreadPool pool(0);
    EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturns) {
    ThreadPool pool(2);
    pool.wait_idle();  // nothing queued: must not block
}

TEST(ParallelFor, CoversEachIndexExactlyOnce) {
    ThreadPool pool(4);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    parallel_for(pool, kN, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, IndexAddressedWritesAreDeterministic) {
    ThreadPool pool(4);
    std::vector<uint64_t> out(500);
    parallel_for(pool, out.size(), [&](size_t i) { out[i] = i * i; });
    for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelFor, HandlesEdgeSizes) {
    ThreadPool pool(4);
    parallel_for(pool, 0, [](size_t) { FAIL() << "no index should run"; });

    std::atomic<int> ran{0};
    parallel_for(pool, 1, [&](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 1);

    // Fewer indices than workers.
    std::vector<std::atomic<int>> hits(2);
    parallel_for(pool, 2, [&](size_t i) { hits[i].fetch_add(1); });
    EXPECT_EQ(hits[0].load(), 1);
    EXPECT_EQ(hits[1].load(), 1);
}

TEST(ParallelFor, PropagatesFirstException) {
    ThreadPool pool(4);
    EXPECT_THROW(
        parallel_for(pool, 100,
                     [](size_t i) {
                         if (i == 17) throw std::runtime_error("boom");
                     }),
        std::runtime_error);
    // The pool survives a failed loop and remains usable.
    std::atomic<int> counter{0};
    parallel_for(pool, 10, [&](size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelFor, PoolIsReusableAcrossManyLoops) {
    ThreadPool pool(3);
    uint64_t total = 0;
    for (int round = 0; round < 20; ++round) {
        std::vector<uint64_t> out(64);
        parallel_for(pool, out.size(), [&](size_t i) { out[i] = i + 1; });
        total += std::accumulate(out.begin(), out.end(), uint64_t{0});
    }
    EXPECT_EQ(total, 20u * (64u * 65u / 2u));
}

TEST(ParallelFor, SingleWorkerRunsInline) {
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(8);
    parallel_for(pool, seen.size(), [&](size_t i) { seen[i] = std::this_thread::get_id(); });
    for (const auto& id : seen) EXPECT_EQ(id, caller);
}

}  // namespace
}  // namespace sdlc
