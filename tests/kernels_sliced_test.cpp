// Bit-identity battery for the bit-sliced evaluation engine.
//
// The engine's contract is absolute: every product it emits, and every
// ErrorMetrics the exhaustive evaluator derives from them, is bit-identical
// to the scalar MultiplyKernel path — for every eligible configuration,
// every operand pair, every lane alignment, and every threading mode. This
// suite enforces each clause:
//
//   - transpose64 round-trips (it is its own inverse on the plane matrix),
//     and the dispatched transpose equals the portable one;
//   - exhaustive block identity over the full operand square for every
//     eligible config of the width-2..8 sweep grid (the same 252-config
//     grid kernel_netlist_diff_test pins), on both the general
//     multiply_block path and the prepare + multiply_block_prepared fast
//     path;
//   - lane misalignment: arbitrary b0 offsets and partial lane counts;
//   - widths 12-16: corner operands plus fixed-seed random streams (the
//     square is 16M-4G pairs there, so exhaustive identity is enforced at
//     the engine level for width 12 and spot-checked structurally above);
//   - engine level: exhaustive_metrics_sliced == exhaustive_metrics
//     (ErrorMetrics operator== is bit-exact) inline, with dedicated
//     threads, and sharded over a ThreadPool.
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
#include "util/thread_pool.h"

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

TEST(Transpose64, RoundTripsRandomMatrix) {
    Xoshiro256 rng(0x7a05e5);
    uint64_t m[64], original[64], out[64];
    for (auto& word : m) word = rng.next();
    for (int i = 0; i < 64; ++i) original[i] = m[i];

    // Spot-check the definition: bit j of transposed word l == bit l of
    // original word j.
    transpose64_to(out, m);
    for (int l = 0; l < 8; ++l) {
        for (int j = 0; j < 64; ++j) {
            ASSERT_EQ((out[l] >> j) & 1u, (original[j] >> l) & 1u) << "l=" << l << " j=" << j;
        }
    }

    // Involution: transposing twice restores the matrix, in place and out
    // of place (dst may alias src).
    transpose64(m);
    for (int i = 0; i < 64; ++i) ASSERT_EQ(m[i], out[i]);
    transpose64(m);
    for (int i = 0; i < 64; ++i) ASSERT_EQ(m[i], original[i]);
    transpose64_to(m, m);
    for (int i = 0; i < 64; ++i) ASSERT_EQ(m[i], out[i]);
}

TEST(Transpose64, DispatchedEqualsScalarOnRandomMatrices) {
    // transpose64_to runs the AVX-512+GFNI transpose on a CPU that has it,
    // so the portable one is compared with it directly, and with the
    // definition. Dense, sparse and near-full words.
    Xoshiro256 rng(0x5ca1a7);
    for (int round = 0; round < 300; ++round) {
        uint64_t m[64], fast[64], scalar[64];
        for (auto& word : m) {
            word = rng.next();
            if (round % 3 == 1) word &= rng.next() & rng.next();
            if (round % 3 == 2) word |= rng.next() | rng.next();
        }
        transpose64_to(fast, m);
        detail::transpose64_scalar(scalar, m);
        for (int l = 0; l < 64; ++l) {
            ASSERT_EQ(fast[l], scalar[l]) << "round " << round << " word " << l;
            for (int j = 0; j < 64; ++j) {
                ASSERT_EQ((scalar[l] >> j) & 1u, (m[j] >> l) & 1u) << "l=" << l << " j=" << j;
            }
        }
        detail::transpose64_scalar(m, m);  // in place
        for (int l = 0; l < 64; ++l) ASSERT_EQ(m[l], scalar[l]);
    }
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

/// Exhaustive identity over the full operand square: every (a, b) pair via
/// both block entry points against the scalar kernel.
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
                    << "prepared a=" << a << " b=" << b0 + l;
            }
            // The general path must agree on the same aligned block.
            sliced.multiply_block(a, b0, lanes, out);
            for (unsigned l = 0; l < lanes; ++l) {
                ASSERT_EQ(out[l], scalar(a, b0 + l)) << "block a=" << a << " b=" << b0 + l;
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

TEST(SlicedKernel, LaneMisalignment) {
    // Arbitrary b0 offsets and partial lane counts through the general
    // path — the case the aligned sweep fast path never exercises.
    for (const MultiplierConfig& config :
         {make_config(8, 3, MultiplierVariant::kSdlc),
          make_config(10, 2, MultiplierVariant::kCompensated),
          make_config(12, 4, MultiplierVariant::kSdlc, AccumulationScheme::kWallace)}) {
        SCOPED_TRACE(ApproxMultiplier(config).describe());
        const MultiplyKernel scalar(config);
        const SlicedMultiplyKernel sliced(config);
        const uint64_t mask = (uint64_t{1} << config.width) - 1;
        uint64_t out[64];
        Xoshiro256 rng(0xa119 ^ static_cast<uint64_t>(config.width));
        for (int iter = 0; iter < 256; ++iter) {
            const uint64_t a = rng.next() & mask;
            const unsigned lanes = 1 + static_cast<unsigned>(rng.next() % 64);
            // Keep b0 + lanes - 1 inside the operand width.
            const uint64_t b0 = rng.next() % (mask + 2 - lanes);
            sliced.multiply_block(a, b0, lanes, out);
            for (unsigned l = 0; l < lanes; ++l) {
                ASSERT_EQ(out[l], scalar(a, b0 + l))
                    << "a=" << a << " b0=" << b0 << " lanes=" << lanes << " l=" << l;
            }
        }
    }
}

TEST(SlicedKernel, WideWidthsCornersAndRandomStreams) {
    // Widths 12-16: the operand square is too large for per-config
    // exhaustion here, so pin corner operands plus a fixed-seed random
    // stream per config (1024 prepared blocks and 256 general blocks each).
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
        for (int iter = 0; iter < 256; ++iter) {
            const uint64_t a = rng.next() & mask;
            const unsigned n = 1 + static_cast<unsigned>(rng.next() % 64);
            const uint64_t b0 = rng.next() % (mask + 2 - n);
            sliced.multiply_block(a, b0, n, out);
            for (unsigned l = 0; l < n; ++l) {
                ASSERT_EQ(out[l], scalar(a, b0 + l)) << "a=" << a << " b=" << b0 + l;
            }
            if (HasFatalFailure()) return;
        }
    }
}

/// exhaustive_metrics over the scalar kernel for `config`.
ErrorMetrics scalar_exhaustive(const MultiplierConfig& config, unsigned max_threads = 0,
                               ThreadPool* pool = nullptr) {
    const MultiplyKernel kernel(config);
    return exhaustive_metrics(
        config.width, [&kernel](uint64_t a, uint64_t b) { return kernel(a, b); }, max_threads,
        pool);
}

TEST(SlicedEngine, MetricsBitIdenticalAcrossWidthsAndThreading) {
    // The full engine contract: identical ErrorMetrics (operator== is
    // field-exact on doubles — same summation order, same bits) for every
    // threading mode. Width 10 keeps the square at 1M pairs so the matrix
    // of modes stays fast; width 12 runs once inline below.
    const MultiplierConfig configs[] = {
        make_config(6, 2, MultiplierVariant::kSdlc),
        make_config(9, 3, MultiplierVariant::kSdlc, AccumulationScheme::kWallace),
        make_config(10, 2, MultiplierVariant::kCompensated),
        make_config(10, 4, MultiplierVariant::kSdlc),
    };
    ThreadPool pool(3);
    for (const MultiplierConfig& config : configs) {
        SCOPED_TRACE(ApproxMultiplier(config).describe());
        const SlicedMultiplyKernel kernel(config);
        const ErrorMetrics reference = scalar_exhaustive(config);

        EXPECT_EQ(exhaustive_metrics_sliced(kernel), reference);
        EXPECT_EQ(exhaustive_metrics_sliced(kernel, 1), reference);
        EXPECT_EQ(exhaustive_metrics_sliced(kernel, 4), reference);
        EXPECT_EQ(exhaustive_metrics_sliced(kernel, 0, &pool), reference);

        // And the scalar engine agrees with itself across its own modes
        // (the merge order, not the thread count, defines the result).
        EXPECT_EQ(scalar_exhaustive(config, 4), reference);
        EXPECT_EQ(scalar_exhaustive(config, 0, &pool), reference);
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
