// Retry/backoff vocabulary for clients that talk to a peer which can die:
// the cluster coordinator uses it for shard redispatch. One tested policy
// instead of ad-hoc cooldown constants.
//
// Everything here is deterministic: jitter comes from a splitmix64 hash of
// (seed, attempt), not a PRNG, so two runs with the same topology make the
// same scheduling decisions and fault scenarios reproduce exactly.
#ifndef SDLC_UTIL_RETRY_H
#define SDLC_UTIL_RETRY_H

#include <cstdint>
#include <string>

namespace sdlc {

struct RetryPolicy {
    /// Give up (fall back to local work) after this many failures.
    /// 0 means "never give up" — callers that always have a local fallback
    /// use the delay schedule alone.
    int max_attempts = 0;
    /// First backoff delay, before exponential growth.
    int64_t base_delay_ms = 1000;
    /// Cap on the exponential growth.
    int64_t max_delay_ms = 30000;
    /// Growth factor between consecutive failures.
    double multiplier = 2.0;
    /// Fraction of the delay randomized (deterministically) around the
    /// nominal value: delay * [1 - jitter/2, 1 + jitter/2). 0 disables.
    double jitter = 0.25;
    /// Stream selector for the jitter hash; derive it from a stable identity
    /// (e.g. the peer spec string) so distinct peers desynchronize but a
    /// given peer reproduces the same schedule run over run.
    uint64_t seed = 0;

    /// True once `failures` exceeds the attempt budget (never for budget 0).
    bool exhausted(int failures) const noexcept {
        return max_attempts > 0 && failures >= max_attempts;
    }

    /// Backoff delay after the `failures`-th consecutive failure (1-based):
    /// capped exponential with deterministic jitter. failures <= 0 maps to
    /// the base delay.
    int64_t delay_ms(int failures) const noexcept;

    /// Policy seeded from a stable identity string (FNV + avalanche).
    static uint64_t seed_from(const std::string& identity) noexcept;
};

}  // namespace sdlc

#endif  // SDLC_UTIL_RETRY_H
