// Every depth at widths 9-16 through the sliced kernel, at kernel level.
//
// kernels_sliced_test exhausts the operand square at widths 2-8, where a
// group straddling bit 6 holds at most two rows at or above it. Wider
// plans stress the two parts of SlicedMultiplyKernel those widths barely
// reach:
//
//   - the per-b compensation table: 2^width entries, filled incrementally
//     over the in-group row pairs. With a = 0 every product is the table
//     entry alone (a*b and the group errors are 0), so that operand pins
//     the table for every b;
//   - the prepared straddling group: prepare() evaluates its rows below
//     bit 6 once per a, and its rows >= 6 (up to 10 at width 16) reduce to
//     one scalar SUM and OR per block, merged with the low rows' per-lane
//     OR.
//
// For both approximate variants at every depth, prepare(a) then every
// aligned block of the full b range is compared with MultiplyKernel for
// a in {0, 1, mask, one seeded random operand}.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "api/approx_multiplier.h"
#include "core/kernels.h"
#include "core/kernels_sliced.h"
#include "util/rng.h"

namespace sdlc {
namespace {

constexpr MultiplierVariant kVariants[] = {MultiplierVariant::kSdlc,
                                           MultiplierVariant::kCompensated};

MultiplierConfig make_config(int width, int depth, MultiplierVariant variant) {
    return {width, depth, variant, AccumulationScheme::kRowRipple};
}

/// a in {0, 1, mask, one seeded random operand} for this width.
std::array<uint64_t, 4> operands(int width) {
    const uint64_t mask = (uint64_t{1} << width) - 1;
    Xoshiro256 rng(0xde97b5 ^ static_cast<uint64_t>(width));
    return {0, 1, mask, rng.next() & mask};
}

/// First lane of a sliced block that differs from MultiplyKernel, or -1.
int first_mismatch(const MultiplyKernel& scalar, uint64_t a, uint64_t b0, unsigned lanes,
                   const uint64_t out[64]) {
    for (unsigned l = 0; l < lanes; ++l) {
        if (out[l] != scalar(a, b0 + l)) return static_cast<int>(l);
    }
    return -1;
}

TEST(SlicedDepths, EveryDepthWidths9To16MatchesScalarOverEveryAlignedBlock) {
    size_t configs = 0;
    for (int width = 9; width <= 16; ++width) {
        const uint64_t side = uint64_t{1} << width;
        for (const MultiplierVariant variant : kVariants) {
            for (int depth = 2; depth <= width; ++depth) {
                const MultiplierConfig config = make_config(width, depth, variant);
                SCOPED_TRACE(ApproxMultiplier(config).describe());
                const MultiplyKernel scalar(config);
                const SlicedMultiplyKernel sliced(config);
                ASSERT_EQ(sliced.natural_lanes(), 64u);
                SlicedMultiplyKernel::Prepared prep;
                uint64_t out[64];
                for (const uint64_t a : operands(width)) {
                    sliced.prepare(a, prep);
                    for (uint64_t b0 = 0; b0 < side; b0 += 64) {
                        sliced.multiply_block_prepared(prep, b0, out);
                        const int l = first_mismatch(scalar, a, b0, 64, out);
                        ASSERT_EQ(l, -1) << "a=" << a << " b=" << b0 + static_cast<uint64_t>(l)
                                         << " sliced=" << out[l]
                                         << " scalar=" << scalar(a, b0 + static_cast<uint64_t>(l));
                    }
                }
                ++configs;
            }
        }
    }
    // Depths 2..w for both variants: 2 * sum_{w=9}^{16} (w - 1).
    EXPECT_EQ(configs, 184u);
}

}  // namespace
}  // namespace sdlc
