// Bit-identity battery for the sliced (block) evaluation engine.
//
// The engine's contract is absolute: every product it emits, and every
// ErrorMetrics the exhaustive evaluator derives from them, is bit-identical
// to the scalar MultiplyKernel path — for every eligible configuration and
// every operand pair. This suite enforces each clause:
//
//   - exhaustive block identity over the full operand square for every
//     eligible config of the width-2..8 sweep grid (the same 252-config
//     grid kernel_netlist_diff_test pins), through prepare +
//     multiply_block_prepared;
//   - widths 12-16: corner operands plus fixed-seed random streams (the
//     square is 16M-4G pairs there, so exhaustive identity is enforced at
//     the engine level for width 12 and spot-checked structurally above);
//   - engine level: exhaustive_metrics_sliced == exhaustive_metrics
//     (ErrorMetrics operator== is bit-exact).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "api/approx_multiplier.h"
#include "core/kernels.h"
#include "core/kernels_sliced.h"
#include "dse/sweep.h"
#include "error/evaluate.h"
#include "error/evaluate_sliced.h"
#include "util/rng.h"

namespace sdlc {
namespace {

MultiplierConfig make_config(int width, int depth, MultiplierVariant variant,
                             AccumulationScheme scheme = AccumulationScheme::kRowRipple) {
    MultiplierConfig cfg;
    cfg.width = width;
    cfg.depth = depth;
    cfg.variant = variant;
    cfg.scheme = scheme;
    return cfg;
}

TEST(SlicedEligibility, MatchesDocumentedRules) {
    // Planned-path configs in [2, 16] with depth in [2, width] qualify.
    EXPECT_TRUE(SlicedMultiplyKernel::eligible(make_config(8, 2, MultiplierVariant::kSdlc)));
    EXPECT_TRUE(SlicedMultiplyKernel::eligible(make_config(2, 2, MultiplierVariant::kSdlc)));
    EXPECT_TRUE(SlicedMultiplyKernel::eligible(make_config(16, 16, MultiplierVariant::kSdlc)));
    EXPECT_TRUE(
        SlicedMultiplyKernel::eligible(make_config(12, 3, MultiplierVariant::kCompensated)));

    // Exact configurations and out-of-range widths/depths do not: the
    // accurate scalar kernel is already optimal for them.
    EXPECT_FALSE(SlicedMultiplyKernel::eligible(make_config(8, 2, MultiplierVariant::kAccurate)));
    EXPECT_FALSE(SlicedMultiplyKernel::eligible(make_config(8, 1, MultiplierVariant::kSdlc)));
    EXPECT_FALSE(SlicedMultiplyKernel::eligible(make_config(17, 2, MultiplierVariant::kSdlc)));
    EXPECT_FALSE(SlicedMultiplyKernel::eligible(make_config(1, 1, MultiplierVariant::kSdlc)));

    EXPECT_THROW(SlicedMultiplyKernel(make_config(8, 2, MultiplierVariant::kAccurate)),
                 std::invalid_argument);
}

/// Exhaustive identity over the full operand square: every (a, b) pair
/// against the scalar kernel.
void expect_sliced_matches_scalar_exhaustive(const MultiplierConfig& config) {
    const MultiplyKernel scalar(config);
    const SlicedMultiplyKernel sliced(config);
    const uint64_t side = uint64_t{1} << config.width;
    const unsigned lanes = sliced.natural_lanes();
    ASSERT_EQ(lanes, side < 64 ? side : 64u);
    uint64_t out[64];
    SlicedMultiplyKernel::Prepared prep;

    for (uint64_t a = 0; a < side; ++a) {
        sliced.prepare(a, prep);
        ASSERT_EQ(prep.a, a);
        for (uint64_t b0 = 0; b0 < side; b0 += lanes) {
            sliced.multiply_block_prepared(prep, b0, out);
            for (unsigned l = 0; l < lanes; ++l) {
                ASSERT_EQ(out[l], scalar(a, b0 + l))
                    << "a=" << a << " b=" << b0 + l;
            }
        }
    }
}

TEST(SlicedKernel, ExhaustiveIdentitySweepGridWidths2To8) {
    SweepSpec spec;
    spec.widths.clear();
    for (int w = 2; w <= 8; ++w) spec.widths.push_back(w);
    const std::vector<MultiplierConfig> grid = spec.enumerate();
    ASSERT_EQ(grid.size(), 252u);
    size_t eligible = 0;
    for (const MultiplierConfig& config : grid) {
        SCOPED_TRACE(ApproxMultiplier(config).describe());
        if (!SlicedMultiplyKernel::eligible(config)) {
            // Only exact configurations fall back in this grid.
            EXPECT_TRUE(config.variant == MultiplierVariant::kAccurate || config.depth < 2);
            continue;
        }
        ++eligible;
        expect_sliced_matches_scalar_exhaustive(config);
        if (HasFatalFailure()) return;
    }
    // depths 2..w for 2 variants x 4 schemes per width: 2*4*sum(w-1).
    EXPECT_EQ(eligible, 224u);
}

TEST(SlicedKernel, WideWidthsCornersAndRandomStreams) {
    // Widths 12-16: the operand square is too large for per-config
    // exhaustion here, so pin corner operands plus a fixed-seed random
    // stream per config (1024 blocks each).
    const MultiplierConfig configs[] = {
        make_config(12, 2, MultiplierVariant::kSdlc),
        make_config(13, 5, MultiplierVariant::kCompensated, AccumulationScheme::kDadda),
        make_config(14, 3, MultiplierVariant::kSdlc, AccumulationScheme::kRowFastCpa),
        make_config(15, 2, MultiplierVariant::kCompensated),
        make_config(16, 4, MultiplierVariant::kSdlc, AccumulationScheme::kWallace),
        make_config(16, 16, MultiplierVariant::kSdlc),
    };
    for (const MultiplierConfig& config : configs) {
        SCOPED_TRACE(ApproxMultiplier(config).describe());
        const MultiplyKernel scalar(config);
        const SlicedMultiplyKernel sliced(config);
        const uint64_t mask = (uint64_t{1} << config.width) - 1;
        const unsigned lanes = sliced.natural_lanes();
        ASSERT_EQ(lanes, 64u);
        uint64_t out[64];
        SlicedMultiplyKernel::Prepared prep;

        auto check_prepared = [&](uint64_t a, uint64_t b0) {
            sliced.prepare(a, prep);
            sliced.multiply_block_prepared(prep, b0, out);
            for (unsigned l = 0; l < lanes; ++l) {
                ASSERT_EQ(out[l], scalar(a, b0 + l)) << "a=" << a << " b=" << b0 + l;
            }
        };

        // Corner operands x corner blocks (first, last, middle-aligned).
        const uint64_t corners[] = {0, 1, mask, mask - 1, mask >> 1, (mask >> 1) + 1};
        const uint64_t corner_blocks[] = {0, (mask + 1) / 2, mask + 1 - lanes};
        for (const uint64_t a : corners) {
            for (const uint64_t b0 : corner_blocks) check_prepared(a, b0);
        }
        if (HasFatalFailure()) return;

        Xoshiro256 rng(0x511ced ^ (static_cast<uint64_t>(config.width) << 16) ^
                       (static_cast<uint64_t>(config.depth) << 8) ^
                       static_cast<uint64_t>(static_cast<int>(config.scheme)));
        for (int iter = 0; iter < 1024; ++iter) {
            const uint64_t a = rng.next() & mask;
            const uint64_t b0 = (rng.next() & mask) & ~uint64_t{lanes - 1};
            check_prepared(a, b0);
            if (HasFatalFailure()) return;
        }
    }
}

/// exhaustive_metrics over the scalar kernel for `config`.
ErrorMetrics scalar_exhaustive(const MultiplierConfig& config) {
    const MultiplyKernel kernel(config);
    return exhaustive_metrics(config.width,
                              [&kernel](uint64_t a, uint64_t b) { return kernel(a, b); });
}

TEST(SlicedEngine, MetricsBitIdenticalAcrossWidths) {
    // The full engine contract: identical ErrorMetrics (operator== is
    // field-exact on doubles — same summation order, same bits) as the
    // scalar reference. Width 10 keeps the square at 1M pairs; width 12
    // runs once below. The sliced engine's own scheduling (shard groups as
    // pool tasks, in any order) is pinned in eval_engine_test.
    const MultiplierConfig configs[] = {
        make_config(6, 2, MultiplierVariant::kSdlc),
        make_config(9, 3, MultiplierVariant::kSdlc, AccumulationScheme::kWallace),
        make_config(10, 2, MultiplierVariant::kCompensated),
        make_config(10, 4, MultiplierVariant::kSdlc),
    };
    for (const MultiplierConfig& config : configs) {
        SCOPED_TRACE(ApproxMultiplier(config).describe());
        const SlicedMultiplyKernel kernel(config);
        EXPECT_EQ(exhaustive_metrics_sliced(kernel), scalar_exhaustive(config));
    }
}

TEST(SlicedEngine, MetricsBitIdenticalWidth12) {
    // One width-12 config end to end: 16.7M pairs through both engines.
    const MultiplierConfig config = make_config(12, 3, MultiplierVariant::kSdlc);
    const SlicedMultiplyKernel kernel(config);
    EXPECT_EQ(exhaustive_metrics_sliced(kernel), scalar_exhaustive(config));
}

}  // namespace
}  // namespace sdlc
