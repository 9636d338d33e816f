// Tests for the fast-path kernel dispatch layer: registry behavior and,
// most importantly, bit-exact equivalence between every kernel path and the
// reference ClusterPlan interpreter / ApproxMultiplier software model.
#include <gtest/gtest.h>

#include <vector>

#include "api/approx_multiplier.h"
#include "core/functional.h"
#include "core/kernels.h"
#include "util/rng.h"

namespace sdlc {
namespace {

std::vector<MultiplierVariant> all_variants() {
    return {MultiplierVariant::kAccurate, MultiplierVariant::kSdlc,
            MultiplierVariant::kCompensated};
}

/// Compares kernel vs facade over the full operand square.
void expect_exhaustive_equivalence(const MultiplierConfig& cfg) {
    const ApproxMultiplier mul(cfg);
    const MultiplyKernel kernel(cfg);
    const uint64_t side = uint64_t{1} << cfg.width;
    for (uint64_t a = 0; a < side; ++a) {
        for (uint64_t b = 0; b < side; ++b) {
            ASSERT_EQ(kernel(a, b), mul.multiply(a, b))
                << mul.describe() << " path=" << kernel.name() << " a=" << a << " b=" << b;
        }
    }
}

/// Compares kernel vs facade on a reproducible random operand stream.
void expect_sampled_equivalence(const MultiplierConfig& cfg, uint64_t samples) {
    const ApproxMultiplier mul(cfg);
    const MultiplyKernel kernel(cfg);
    Xoshiro256 rng(0x5eed ^ (static_cast<uint64_t>(cfg.width) << 8) ^
                   static_cast<uint64_t>(cfg.depth));
    const uint64_t mask = (uint64_t{1} << cfg.width) - 1;
    for (uint64_t i = 0; i < samples; ++i) {
        const uint64_t a = rng.next() & mask;
        const uint64_t b = rng.next() & mask;
        ASSERT_EQ(kernel(a, b), mul.multiply(a, b))
            << mul.describe() << " path=" << kernel.name() << " a=" << a << " b=" << b;
    }
}

// -------------------------------------------------------------- registry ----

TEST(KernelRegistry, AccurateAndDepth1ShareTheExactKernel) {
    const MultiplyKernelFn accurate =
        find_multiply_kernel({8, 1, MultiplierVariant::kAccurate});
    ASSERT_NE(accurate, nullptr);
    EXPECT_EQ(accurate(11, 13), 143u);
    // Depth 1 means no compression for both approximate variants.
    EXPECT_EQ(find_multiply_kernel({8, 1, MultiplierVariant::kSdlc}), accurate);
    EXPECT_EQ(find_multiply_kernel({8, 1, MultiplierVariant::kCompensated}), accurate);
    // The accurate variant ignores its depth knob.
    EXPECT_EQ(find_multiply_kernel({8, 5, MultiplierVariant::kAccurate}), accurate);
}

TEST(KernelRegistry, Depth2GetsTheFast2BitTrick) {
    for (const int width : {4, 8, 16, 32}) {
        const MultiplyKernelFn fn = find_multiply_kernel({width, 2, MultiplierVariant::kSdlc});
        ASSERT_NE(fn, nullptr) << width;
        const uint64_t mask = (uint64_t{1} << width) - 1;
        Xoshiro256 rng(7);
        for (int i = 0; i < 1000; ++i) {
            const uint64_t a = rng.next() & mask;
            const uint64_t b = rng.next() & mask;
            EXPECT_EQ(fn(a, b), sdlc_multiply_fast2(width, a, b));
        }
    }
}

TEST(KernelRegistry, PlannedConfigsReturnNull) {
    EXPECT_EQ(find_multiply_kernel({8, 3, MultiplierVariant::kSdlc}), nullptr);
    EXPECT_EQ(find_multiply_kernel({8, 2, MultiplierVariant::kCompensated}), nullptr);
    EXPECT_STREQ(multiply_kernel_name({8, 3, MultiplierVariant::kSdlc}), "planned");
    EXPECT_STREQ(multiply_kernel_name({8, 2, MultiplierVariant::kSdlc}), "sdlc-fast2");
    EXPECT_STREQ(multiply_kernel_name({8, 1, MultiplierVariant::kSdlc}), "accurate");
}

TEST(KernelRegistry, OutOfRangeWidthsReturnNull) {
    EXPECT_EQ(find_multiply_kernel({1, 1, MultiplierVariant::kAccurate}), nullptr);
    EXPECT_EQ(find_multiply_kernel({33, 2, MultiplierVariant::kSdlc}), nullptr);
}

TEST(KernelRegistry, SchemeDoesNotAffectDispatch) {
    // The accumulation scheme shapes hardware, never the software product.
    for (const AccumulationScheme s :
         {AccumulationScheme::kRowRipple, AccumulationScheme::kWallace,
          AccumulationScheme::kDadda, AccumulationScheme::kRowFastCpa}) {
        EXPECT_EQ(find_multiply_kernel({8, 2, MultiplierVariant::kSdlc, s}),
                  find_multiply_kernel({8, 2, MultiplierVariant::kSdlc}));
    }
}

TEST(MultiplyKernelClass, RejectsUnbuildableConfigs) {
    EXPECT_THROW(MultiplyKernel({40, 2, MultiplierVariant::kSdlc}), std::invalid_argument);
    EXPECT_THROW(MultiplyKernel({8, 9, MultiplierVariant::kSdlc}), std::invalid_argument);
}

TEST(MultiplyKernelClass, SpecializedFlagMatchesRegistry) {
    EXPECT_TRUE(MultiplyKernel({8, 2, MultiplierVariant::kSdlc}).specialized());
    EXPECT_FALSE(MultiplyKernel({8, 3, MultiplierVariant::kSdlc}).specialized());
    EXPECT_FALSE(MultiplyKernel({8, 2, MultiplierVariant::kCompensated}).specialized());
}

// ----------------------------------------------------------- equivalence ----

TEST(KernelEquivalence, ExhaustiveDispatchableConfigsUpToWidth10) {
    // Every configuration the registry backs with a stateless kernel.
    for (int width = 2; width <= 10; ++width) {
        for (const MultiplierVariant v : all_variants()) {
            for (int depth = 1; depth <= (v == MultiplierVariant::kAccurate ? 1 : 2);
                 ++depth) {
                const MultiplierConfig cfg{width, depth, v};
                if (find_multiply_kernel(cfg) == nullptr) continue;
                expect_exhaustive_equivalence(cfg);
            }
        }
    }
}

TEST(KernelEquivalence, ExhaustiveEveryDepthAtSmallWidths) {
    // The planned (strength-reduced) path against the interpreter for every
    // cluster depth and both approximate variants.
    for (int width = 2; width <= 7; ++width) {
        for (int depth = 1; depth <= width; ++depth) {
            expect_exhaustive_equivalence({width, depth, MultiplierVariant::kSdlc});
            expect_exhaustive_equivalence({width, depth, MultiplierVariant::kCompensated});
        }
    }
}

TEST(KernelEquivalence, SampledWideConfigs) {
    for (const int width : {9, 12, 16, 24, 32}) {
        for (const int depth : {2, 3, 4, width / 2}) {
            if (depth < 1 || depth > width) continue;
            expect_sampled_equivalence({width, depth, MultiplierVariant::kSdlc}, 20000);
            expect_sampled_equivalence({width, depth, MultiplierVariant::kCompensated}, 20000);
        }
    }
}

}  // namespace
}  // namespace sdlc
