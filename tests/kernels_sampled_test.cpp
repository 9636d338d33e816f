// Differential battery for SampledMultiplyKernel (core/kernels_sampled.h).
//
// For sdlc and compensated at every width 2-32 and every depth 2..width,
// each block product must equal MultiplyKernel, the scalar oracle:
//
//   - operands: every pair of the edge operands {0, 1, mask, the top bit,
//     0101..., 1010...} plus seeded random pairs;
//   - block sizes 1, 63 and 64, each block in buffers of exactly its size,
//     so a read or write past the last drawn lane is a heap overflow under
//     ASan;
//   - through both lane bodies. The AVX2 test is skipped on a CPU without
//     AVX2.
//
// The chunk-pair compensation tables must give the sum of the gated terms
// of compensation_terms() for every b up to width 16 and for seeded random
// b above it (with a = 0 a product is comp(b) alone). A few widths are
// checked against the ClusterPlan interpreter (ApproxMultiplier::multiply)
// too. Single-threaded: eval_engine_test runs the kernel inside concurrent
// sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/approx_multiplier.h"
#include "core/cluster_plan.h"
#include "core/compensation.h"
#include "core/kernels.h"
#include "core/kernels_sampled.h"
#include "util/rng.h"

namespace sdlc {
namespace {

constexpr MultiplierVariant kVariants[] = {MultiplierVariant::kSdlc,
                                           MultiplierVariant::kCompensated};

MultiplierConfig make_config(int width, int depth, MultiplierVariant variant) {
    return {width, depth, variant, AccumulationScheme::kRowRipple};
}

/// One lane body: multiply_portable, multiply_avx2 or the dispatching
/// multiply. Returns false when the body does not run on this CPU.
using BodyFn = bool (*)(const SampledMultiplyKernel&, const uint64_t*, const uint64_t*,
                        unsigned, uint64_t*);

bool portable_body(const SampledMultiplyKernel& k, const uint64_t* a, const uint64_t* b,
                   unsigned n, uint64_t* out) {
    k.multiply_portable(a, b, n, out);
    return true;
}

bool avx2_body(const SampledMultiplyKernel& k, const uint64_t* a, const uint64_t* b,
               unsigned n, uint64_t* out) {
    return k.multiply_avx2(a, b, n, out);
}

bool dispatched_body(const SampledMultiplyKernel& k, const uint64_t* a, const uint64_t* b,
                     unsigned n, uint64_t* out) {
    k.multiply(a, b, n, out);
    return true;
}

/// The operand pairs of one width: every pair of edge operands, then
/// seeded random pairs, 256 in all.
struct Pairs {
    std::vector<uint64_t> a, b;
};

Pairs operand_pairs(int width) {
    const uint64_t mask = (uint64_t{1} << width) - 1;
    const uint64_t edges[] = {0,
                              1,
                              mask,
                              uint64_t{1} << (width - 1),
                              0x5555555555555555ull & mask,
                              0xaaaaaaaaaaaaaaaaull & mask};
    Pairs p;
    for (const uint64_t a : edges) {
        for (const uint64_t b : edges) {
            p.a.push_back(a);
            p.b.push_back(b);
        }
    }
    Xoshiro256 rng(0x5a3b1e ^ static_cast<uint64_t>(width));
    while (p.a.size() < 256) {
        p.a.push_back(rng.next() & mask);
        p.b.push_back(rng.next() & mask);
    }
    return p;
}

/// Runs every pair through `body` in blocks of 1, 63 and 64 and compares
/// each product with MultiplyKernel.
void expect_matches_scalar_everywhere(BodyFn body) {
    size_t configs = 0;
    for (int width = 2; width <= SampledMultiplyKernel::kMaxWidth; ++width) {
        const Pairs pairs = operand_pairs(width);
        for (const MultiplierVariant variant : kVariants) {
            for (int depth = 2; depth <= width; ++depth) {
                const MultiplierConfig config = make_config(width, depth, variant);
                SCOPED_TRACE(ApproxMultiplier(config).describe());
                const MultiplyKernel scalar(config);
                const SampledMultiplyKernel kernel(config);
                for (const unsigned n : {1u, 63u, 64u}) {
                    for (size_t i0 = 0; i0 + n <= pairs.a.size(); i0 += n) {
                        // Exactly n lanes: ASan flags any lane past them.
                        const std::vector<uint64_t> a(pairs.a.begin() + i0,
                                                      pairs.a.begin() + i0 + n);
                        const std::vector<uint64_t> b(pairs.b.begin() + i0,
                                                      pairs.b.begin() + i0 + n);
                        std::vector<uint64_t> out(n);
                        ASSERT_TRUE(body(kernel, a.data(), b.data(), n, out.data()));
                        for (unsigned l = 0; l < n; ++l) {
                            ASSERT_EQ(out[l], scalar(a[l], b[l]))
                                << "n=" << n << " lane " << l << " a=" << a[l] << " b=" << b[l];
                        }
                    }
                }
                ++configs;
            }
        }
    }
    // 2 * (1 + 2 + ... + 31) configurations.
    EXPECT_EQ(configs, 992u);
}

TEST(SampledKernel, PortableBodyMatchesScalarAtEveryWidthAndDepth) {
    expect_matches_scalar_everywhere(portable_body);
}

TEST(SampledKernel, Avx2BodyMatchesScalarAtEveryWidthAndDepth) {
    const SampledMultiplyKernel probe(make_config(4, 2, MultiplierVariant::kSdlc));
    const uint64_t zero = 0;
    uint64_t out = 0;
    if (!probe.multiply_avx2(&zero, &zero, 1, &out)) {
        GTEST_SKIP() << "no AVX2 on this CPU: the avx2 lane body was not tested";
    }
    expect_matches_scalar_everywhere(avx2_body);
}

TEST(SampledKernel, DispatchedBodyMatchesScalarAtEveryWidthAndDepth) {
    expect_matches_scalar_everywhere(dispatched_body);
    const std::string name = SampledMultiplyKernel::body_name();
    EXPECT_TRUE(name == "avx2" || name == "portable") << name;
}

TEST(SampledKernel, EmptyBlockWritesNothing) {
    const SampledMultiplyKernel kernel(make_config(16, 4, MultiplierVariant::kCompensated));
    uint64_t out = 0x1234;
    kernel.multiply(nullptr, nullptr, 0, &out);
    EXPECT_EQ(out, 0x1234u);
}

/// comp(b) straight from compensation_terms(), as MultiplyKernel's term
/// loop adds it.
uint64_t term_sum(const std::vector<CompensationTerm>& terms, uint64_t b) {
    uint64_t c = 0;
    for (const CompensationTerm& t : terms) {
        if (((b >> t.row_a) & (b >> t.row_b) & 1) != 0) c += t.value;
    }
    return c;
}

TEST(SampledKernel, CompensationTablesEqualTheTermSum) {
    // With a = 0, a*b and every group's error are 0: a product is comp(b)
    // alone, the sum of one entry per chunk-pair table.
    constexpr unsigned kBlock = SampledMultiplyKernel::kMaxPairs;
    const uint64_t zeros[kBlock] = {};
    for (int width = 2; width <= SampledMultiplyKernel::kMaxWidth; ++width) {
        const uint64_t mask = (uint64_t{1} << width) - 1;
        for (int depth = 2; depth <= width; ++depth) {
            const MultiplierConfig config =
                make_config(width, depth, MultiplierVariant::kCompensated);
            SCOPED_TRACE(ApproxMultiplier(config).describe());
            const SampledMultiplyKernel kernel(config);
            const std::vector<CompensationTerm> terms =
                compensation_terms(ClusterPlan::make(width, depth));
            // Every b up to width 16; 4096 seeded b (the first all-ones)
            // above it.
            std::vector<uint64_t> bs;
            if (width <= 16) {
                for (uint64_t b = 0; b <= mask; ++b) bs.push_back(b);
            } else {
                Xoshiro256 rng(0xc0de ^ static_cast<uint64_t>(width * 64 + depth));
                bs.push_back(mask);
                while (bs.size() < 4096) bs.push_back(rng.next() & mask);
            }
            uint64_t out[kBlock];
            for (size_t i0 = 0; i0 < bs.size(); i0 += kBlock) {
                const unsigned n = static_cast<unsigned>(std::min<size_t>(kBlock, bs.size() - i0));
                kernel.multiply(zeros, &bs[i0], n, out);
                for (unsigned l = 0; l < n; ++l) {
                    ASSERT_EQ(out[l], term_sum(terms, bs[i0 + l])) << "b=" << bs[i0 + l];
                }
            }
        }
    }
}

TEST(SampledKernel, MatchesTheInterpreterAtSeveralWidths) {
    for (const int width : {3, 8, 13, 20, 32}) {
        const Pairs pairs = operand_pairs(width);
        for (const MultiplierVariant variant : kVariants) {
            for (int depth = 2; depth <= width; ++depth) {
                const MultiplierConfig config = make_config(width, depth, variant);
                SCOPED_TRACE(ApproxMultiplier(config).describe());
                const ApproxMultiplier interpreter(config);
                const SampledMultiplyKernel kernel(config);
                uint64_t out[SampledMultiplyKernel::kMaxPairs];
                for (size_t i0 = 0; i0 < pairs.a.size(); i0 += 64) {
                    kernel.multiply(&pairs.a[i0], &pairs.b[i0], 64, out);
                    for (unsigned l = 0; l < 64; ++l) {
                        ASSERT_EQ(out[l], interpreter.multiply(pairs.a[i0 + l], pairs.b[i0 + l]))
                            << "a=" << pairs.a[i0 + l] << " b=" << pairs.b[i0 + l];
                    }
                }
            }
        }
    }
}

TEST(SampledKernel, EligibleOnlyForCompressingConfigs) {
    EXPECT_TRUE(SampledMultiplyKernel::eligible(make_config(2, 2, MultiplierVariant::kSdlc)));
    EXPECT_TRUE(
        SampledMultiplyKernel::eligible(make_config(32, 32, MultiplierVariant::kCompensated)));
    const MultiplierConfig rejected[] = {
        {16, 1, MultiplierVariant::kAccurate, AccumulationScheme::kRowRipple},
        make_config(16, 1, MultiplierVariant::kSdlc),
        make_config(16, 1, MultiplierVariant::kCompensated),
        make_config(33, 2, MultiplierVariant::kSdlc),
        make_config(1, 1, MultiplierVariant::kSdlc),
        make_config(8, 9, MultiplierVariant::kCompensated),
    };
    for (const MultiplierConfig& config : rejected) {
        EXPECT_FALSE(SampledMultiplyKernel::eligible(config))
            << config.width << " d" << config.depth;
        EXPECT_THROW(SampledMultiplyKernel{config}, std::invalid_argument);
    }
}

}  // namespace
}  // namespace sdlc
