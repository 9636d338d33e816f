// RetryPolicy: the failure-handling vocabulary (attempt budgets, capped
// exponential backoff, deterministic jitter) behind the cluster
// coordinator's shard re-dispatch.
//
// Determinism is the point: every delay is a pure function of (policy,
// failures), so a fault scenario schedules identically run over run.
#include <gtest/gtest.h>

#include <cstdint>

#include "cluster/coordinator.h"
#include "util/retry.h"

namespace sdlc {
namespace {

RetryPolicy plain(int64_t base, int64_t max, double multiplier) {
    RetryPolicy p;
    p.base_delay_ms = base;
    p.max_delay_ms = max;
    p.multiplier = multiplier;
    p.jitter = 0.0;
    return p;
}

TEST(RetryPolicy, ExponentialGrowthFromBase) {
    const RetryPolicy p = plain(100, 10000, 2.0);
    EXPECT_EQ(p.delay_ms(0), 100);
    EXPECT_EQ(p.delay_ms(1), 100);
    EXPECT_EQ(p.delay_ms(2), 200);
    EXPECT_EQ(p.delay_ms(3), 400);
    EXPECT_EQ(p.delay_ms(4), 800);
}

TEST(RetryPolicy, GrowthSaturatesAtCap) {
    const RetryPolicy p = plain(1000, 8000, 2.0);
    EXPECT_EQ(p.delay_ms(4), 8000);
    EXPECT_EQ(p.delay_ms(50), 8000);   // no overflow at silly failure counts
    EXPECT_EQ(p.delay_ms(1000), 8000);
}

TEST(RetryPolicy, ZeroBaseMeansNoDelay) {
    const RetryPolicy p = plain(0, 0, 2.0);
    EXPECT_EQ(p.delay_ms(1), 0);
    EXPECT_EQ(p.delay_ms(7), 0);
}

TEST(RetryPolicy, SubUnityMultiplierNeverShrinks) {
    const RetryPolicy p = plain(500, 8000, 0.5);
    EXPECT_EQ(p.delay_ms(1), 500);
    EXPECT_EQ(p.delay_ms(5), 500);  // clamped to >= 1.0 growth
}

TEST(RetryPolicy, JitterIsDeterministicBoundedAndSeedDependent) {
    RetryPolicy p;
    p.base_delay_ms = 1000;
    p.max_delay_ms = 60000;
    p.multiplier = 2.0;
    p.jitter = 0.25;
    p.seed = RetryPolicy::seed_from("unix:/tmp/peer-a.sock");

    for (int failures = 1; failures <= 8; ++failures) {
        const int64_t d1 = p.delay_ms(failures);
        const int64_t d2 = p.delay_ms(failures);
        EXPECT_EQ(d1, d2) << "same inputs, same delay";
        // Nominal (jitter-free) value, for the [1 - j/2, 1 + j/2) band.
        RetryPolicy bare = p;
        bare.jitter = 0.0;
        const double nominal = static_cast<double>(bare.delay_ms(failures));
        EXPECT_GE(static_cast<double>(d1), nominal * 0.875 - 1.0);
        EXPECT_LE(static_cast<double>(d1), nominal * 1.125 + 1.0);
    }

    // Distinct identities desynchronize: across a window of failure counts
    // two peers cannot share the whole schedule.
    RetryPolicy other = p;
    other.seed = RetryPolicy::seed_from("unix:/tmp/peer-b.sock");
    bool any_different = false;
    for (int failures = 1; failures <= 8; ++failures) {
        any_different = any_different || other.delay_ms(failures) != p.delay_ms(failures);
    }
    EXPECT_TRUE(any_different);
}

TEST(RetryPolicy, SeedFromIsStable) {
    const uint64_t a = RetryPolicy::seed_from("host:9001");
    EXPECT_EQ(a, RetryPolicy::seed_from("host:9001"));
    EXPECT_NE(a, RetryPolicy::seed_from("host:9002"));
    EXPECT_NE(RetryPolicy::seed_from(""), RetryPolicy::seed_from("x"));
}

TEST(RetryPolicy, ExhaustedHonorsAttemptBudget) {
    RetryPolicy p;
    p.max_attempts = 3;
    EXPECT_FALSE(p.exhausted(0));
    EXPECT_FALSE(p.exhausted(2));
    EXPECT_TRUE(p.exhausted(3));
    EXPECT_TRUE(p.exhausted(4));

    p.max_attempts = 0;  // "never give up" (callers with a local fallback)
    EXPECT_FALSE(p.exhausted(1000000));
}

TEST(RetryPolicy, ClusterShardPolicyMatchesHistoricalRetryBudget) {
    // The coordinator demoted a shard to local execution when
    // failures > shard_retries; exhausted() must flip at the same point.
    cluster::ClusterOptions opts;
    opts.shard_retries = 2;
    const RetryPolicy p = opts.shard_policy();
    EXPECT_FALSE(p.exhausted(1));
    EXPECT_FALSE(p.exhausted(2));
    EXPECT_TRUE(p.exhausted(3));
    // Default: immediate requeue, exactly the pre-policy behavior.
    EXPECT_EQ(p.delay_ms(1), 0);

    cluster::ClusterOptions backoff = opts;
    backoff.shard_backoff_ms = 50;
    const RetryPolicy bp = backoff.shard_policy();
    EXPECT_GE(bp.delay_ms(1), 40);   // ~base, within the jitter band
    EXPECT_LE(bp.delay_ms(1), 60);
    EXPECT_LE(bp.delay_ms(100), 50 * 8 + 1);  // capped
}

}  // namespace
}  // namespace sdlc
