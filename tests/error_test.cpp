// Tests for error metrics, evaluators and the RED histogram.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "error/evaluate.h"
#include "error/histogram.h"
#include "error/metrics.h"

namespace sdlc {
namespace {

TEST(ErrorAccumulator, ZeroSamplesYieldZeroMetrics) {
    ErrorAccumulator acc(8);
    const ErrorMetrics m = acc.finalize();
    EXPECT_EQ(m.samples, 0u);
    EXPECT_EQ(m.mred, 0.0);
    EXPECT_EQ(m.error_rate, 0.0);
}

TEST(ErrorAccumulator, HandComputedMetrics) {
    ErrorAccumulator acc(4);  // Pmax = 225
    acc.add(100, 100);        // exact
    acc.add(100, 90);         // ED 10, RED 0.1
    acc.add(50, 40);          // ED 10, RED 0.2
    acc.add(10, 15);          // ED 5 (overshoot), RED 0.5
    const ErrorMetrics m = acc.finalize();
    EXPECT_EQ(m.samples, 4u);
    EXPECT_DOUBLE_EQ(m.error_rate, 0.75);
    EXPECT_DOUBLE_EQ(m.med, 25.0 / 4.0);
    EXPECT_DOUBLE_EQ(m.nmed, 25.0 / 4.0 / 225.0);
    EXPECT_DOUBLE_EQ(m.mred, (0.1 + 0.2 + 0.5) / 4.0);
    EXPECT_DOUBLE_EQ(m.max_red, 0.5);
    EXPECT_EQ(m.max_ed, 10u);
    EXPECT_DOUBLE_EQ(m.bias, (-10.0 - 10.0 + 5.0) / 4.0);
    EXPECT_DOUBLE_EQ(m.rmse, std::sqrt((100.0 + 100.0 + 25.0) / 4.0));
}

TEST(ErrorAccumulator, BiasAndRmseMergeConsistently) {
    ErrorAccumulator all(8), p1(8), p2(8);
    all.add(100, 90);
    all.add(30, 45);
    p1.add(100, 90);
    p2.add(30, 45);
    p1.merge(p2);
    const ErrorMetrics ma = all.finalize();
    const ErrorMetrics mm = p1.finalize();
    EXPECT_DOUBLE_EQ(ma.bias, mm.bias);
    EXPECT_DOUBLE_EQ(ma.rmse, mm.rmse);
}

TEST(ErrorAccumulator, ZeroExactConvention) {
    ErrorAccumulator acc(4);
    acc.add(0, 0);  // exact at zero: no error
    acc.add(0, 3);  // erroneous at zero: RED counts as 1
    const ErrorMetrics m = acc.finalize();
    EXPECT_DOUBLE_EQ(m.error_rate, 0.5);
    EXPECT_DOUBLE_EQ(m.mred, 0.5);
    EXPECT_DOUBLE_EQ(m.max_red, 1.0);
}

TEST(ErrorAccumulator, MergeEqualsSequential) {
    ErrorAccumulator all(8), part1(8), part2(8);
    const std::pair<uint64_t, uint64_t> pairs[] = {
        {100, 90}, {7, 7}, {200, 180}, {33, 30}, {1000, 999}, {64, 64}};
    int i = 0;
    for (const auto& [e, a] : pairs) {
        all.add(e, a);
        (i++ % 2 ? part2 : part1).add(e, a);
    }
    part1.merge(part2);
    const ErrorMetrics ma = all.finalize();
    const ErrorMetrics mm = part1.finalize();
    EXPECT_DOUBLE_EQ(ma.mred, mm.mred);
    EXPECT_DOUBLE_EQ(ma.med, mm.med);
    EXPECT_DOUBLE_EQ(ma.error_rate, mm.error_rate);
    EXPECT_EQ(ma.max_ed, mm.max_ed);
    EXPECT_EQ(ma.samples, mm.samples);
}

TEST(ErrorAccumulator, RejectsBadWidth) {
    EXPECT_THROW(ErrorAccumulator(0), std::invalid_argument);
    EXPECT_THROW(ErrorAccumulator(33), std::invalid_argument);
}

// ------------------------------------------------ lane accumulator ----

/// One add_block call: lane k adds (a[k] * (b0 + i), approx[k][i]).
struct LaneBlock {
    uint64_t a[LaneErrorAccumulator::kLanes] = {};
    uint64_t b0 = 0;
    unsigned pairs = LaneErrorAccumulator::kMaxPairs;
    LaneErrorAccumulator::Block approx = {};

    [[nodiscard]] uint64_t exact(unsigned k, unsigned i) const { return a[k] * (b0 + i); }
};

/// |d| above 2^26.5: d * d is inexact in double, so a multiply fused into
/// the sum_sq add rounds differently from ErrorAccumulator's.
constexpr uint64_t kWideError = (uint64_t{1} << 27) + 1;

/// Hand-built blocks that hit every branch ErrorAccumulator::add takes, in
/// an order whose sums are sensitive to rounding.
std::vector<LaneBlock> adversarial_blocks() {
    std::vector<LaneBlock> blocks;
    LaneBlock blk;  // b0 = 64: no exact product is zero unless a is
    blk.b0 = 64;
    blk.a[0] = 0;      // exact == 0 throughout; approx != 0 on 2 of 3 pairs
    blk.a[1] = 5;      // approx > exact
    blk.a[2] = 77;     // every pair exact
    blk.a[3] = 1000;   // signed error -7, +7, ...: the signed sum returns to 0
    blk.a[4] = 40503;  // two unit errors, then |d| = 2^27 + 1
    blk.a[5] = 65535;  // approx < exact, as plain SDLC
    blk.a[6] = 12345;  // both signs, varying magnitudes
    blk.a[7] = 3;      // the largest ED and RED of the block, on its last pair
    for (unsigned i = 0; i < blk.pairs; ++i) {
        blk.approx[0][i] = i % 3;
        blk.approx[1][i] = blk.exact(1, i) + i % 4;
        blk.approx[2][i] = blk.exact(2, i);
        blk.approx[3][i] = i % 2 == 0 ? blk.exact(3, i) - 7 : blk.exact(3, i) + 7;
        blk.approx[4][i] = blk.exact(4, i) + (i < 2 ? 1 : i == 2 ? kWideError : i * 131);
        blk.approx[5][i] = blk.exact(5, i) - (i * 37) % 101;
        blk.approx[6][i] = i % 5 == 0 ? blk.exact(6, i) - i * 1001 : blk.exact(6, i) + i * i;
        blk.approx[7][i] = blk.exact(7, i) + (i == blk.pairs - 1 ? uint64_t{1} << 40 : 1);
    }
    blocks.push_back(blk);

    // b0 = 0: pair 0 of every lane has exact == 0, erroneous on odd lanes.
    blk.b0 = 0;
    for (unsigned k = 0; k < LaneErrorAccumulator::kLanes; ++k) {
        blk.a[k] = 1 + 4099 * k;
        for (unsigned i = 0; i < blk.pairs; ++i) {
            const uint64_t e = blk.exact(k, i);
            const uint64_t err = (i * 7 + k * 13) % 29;
            blk.approx[k][i] = (i + k) % 3 == 0 ? e + err : e >= err ? e - err : e;
        }
        blk.approx[k][0] = k % 2;
    }
    blocks.push_back(blk);

    // A partial block, as width 2 evaluates: four pairs per lane.
    blk.pairs = 4;
    for (unsigned k = 0; k < LaneErrorAccumulator::kLanes; ++k) {
        blk.a[k] = k % 4;
        for (unsigned i = 0; i < blk.pairs; ++i) {
            blk.approx[k][i] = blk.exact(k, i) + (k + i) % 2;
        }
    }
    blocks.push_back(blk);
    return blocks;
}

/// Feeds the blocks to eight ErrorAccumulators and, through `add_block`, to
/// a LaneErrorAccumulator, then compares every lane's state and metrics.
template <typename AddBlock>
void expect_lanes_equal_accumulators(AddBlock add_block) {
    constexpr int kWidth = 16;
    LaneErrorAccumulator lanes(kWidth);
    std::vector<ErrorAccumulator> refs(LaneErrorAccumulator::kLanes, ErrorAccumulator(kWidth));
    for (const LaneBlock& blk : adversarial_blocks()) {
        add_block(lanes, blk);
        for (unsigned k = 0; k < LaneErrorAccumulator::kLanes; ++k) {
            for (unsigned i = 0; i < blk.pairs; ++i) refs[k].add(blk.exact(k, i), blk.approx[k][i]);
        }
        for (unsigned k = 0; k < LaneErrorAccumulator::kLanes; ++k) {
            SCOPED_TRACE("lane " + std::to_string(k));
            EXPECT_TRUE(lanes.lane(k) == refs[k]);
            EXPECT_EQ(lanes.lane(k).finalize(), refs[k].finalize());
        }
    }
}

TEST(LaneErrorAccumulator, AdversarialBlocksHitWhatTheyAimAt) {
    const LaneBlock blk = adversarial_blocks().front();
    std::vector<ErrorMetrics> m;
    for (unsigned k = 0; k < LaneErrorAccumulator::kLanes; ++k) {
        ErrorAccumulator acc(16);
        for (unsigned i = 0; i < blk.pairs; ++i) acc.add(blk.exact(k, i), blk.approx[k][i]);
        m.push_back(acc.finalize());
    }
    EXPECT_EQ(m[0].max_red, 1.0);  // RED = 1 at exact == 0
    EXPECT_GT(m[0].error_rate, 0.0);
    EXPECT_LT(m[0].error_rate, 1.0);
    EXPECT_GT(m[1].bias, 0.0);
    EXPECT_EQ(m[2].error_rate, 0.0);
    EXPECT_EQ(m[3].error_rate, 1.0);
    EXPECT_EQ(m[3].bias, 0.0);
    EXPECT_FALSE(std::signbit(m[3].bias));
    EXPECT_LT(m[5].bias, 0.0);
    for (unsigned k = 0; k + 1 < LaneErrorAccumulator::kLanes; ++k) {
        EXPECT_LT(m[k].max_ed, m[7].max_ed);
        EXPECT_LT(m[k].max_red, m[7].max_red);
    }
    // A fused multiply-add would round d * d + 2 once: a different sum_sq
    // after lane 4's third pair.
    const double d = static_cast<double>(kWideError);
    const double sq = d * d;
    EXPECT_NE(std::fma(d, d, 2.0), 2.0 + sq);
}

TEST(LaneErrorAccumulator, PortableBlockEqualsEightAccumulators) {
    expect_lanes_equal_accumulators([](LaneErrorAccumulator& acc, const LaneBlock& blk) {
        acc.add_block_portable(blk.a, blk.b0, blk.approx, blk.pairs);
    });
}

TEST(LaneErrorAccumulator, Avx512BlockEqualsEightAccumulators) {
    LaneErrorAccumulator probe(4);
    const LaneBlock empty;
    if (!probe.add_block_avx512(empty.a, empty.b0, empty.approx, 1)) {
        GTEST_SKIP() << "no AVX-512F/DQ on this CPU: the avx512 lane block was not tested";
    }
    expect_lanes_equal_accumulators([](LaneErrorAccumulator& acc, const LaneBlock& blk) {
        ASSERT_TRUE(acc.add_block_avx512(blk.a, blk.b0, blk.approx, blk.pairs));
    });
}

TEST(LaneErrorAccumulator, DispatchedBlockEqualsEightAccumulators) {
    expect_lanes_equal_accumulators([](LaneErrorAccumulator& acc, const LaneBlock& blk) {
        acc.add_block(blk.a, blk.b0, blk.approx, blk.pairs);
    });
    const std::string name = LaneErrorAccumulator::block_name();
    EXPECT_TRUE(name == "avx512" || name == "portable") << name;
}

TEST(Exhaustive, ExactMultiplierHasNoError) {
    const ErrorMetrics m =
        exhaustive_metrics(6, [](uint64_t a, uint64_t b) { return a * b; });
    EXPECT_EQ(m.samples, 4096u);
    EXPECT_EQ(m.error_rate, 0.0);
    EXPECT_EQ(m.mred, 0.0);
}

TEST(Exhaustive, CountsAllPairs) {
    const ErrorMetrics m =
        exhaustive_metrics(5, [](uint64_t a, uint64_t b) { return a * b; });
    EXPECT_EQ(m.samples, 1024u);
}

TEST(Sampled, DeterministicForSeed) {
    auto approx = [](uint64_t a, uint64_t b) { return a * b - ((a & b) & 1u); };
    const ErrorMetrics m1 = sampled_metrics(8, 10000, 42, approx);
    const ErrorMetrics m2 = sampled_metrics(8, 10000, 42, approx);
    EXPECT_DOUBLE_EQ(m1.mred, m2.mred);
    EXPECT_EQ(m1.samples, 10000u);
}

TEST(Sampled, ApproximatesExhaustive) {
    auto approx = [](uint64_t a, uint64_t b) {
        const uint64_t p = a * b;
        return p - (p & 3u);  // drop two LSBs
    };
    const ErrorMetrics ex = exhaustive_metrics(8, approx);
    const ErrorMetrics sa = sampled_metrics(8, 1u << 20, 7, approx);
    EXPECT_NEAR(sa.mred, ex.mred, ex.mred * 0.05);
    EXPECT_NEAR(sa.error_rate, ex.error_rate, 0.01);
}

TEST(Histogram, BinsByPercentage) {
    RedHistogram h(34);
    h.add(100, 100);  // RED 0 % -> bin 0
    h.add(100, 99);   // 1 % -> bin 1
    h.add(100, 67);   // 33 % -> bin 33
    h.add(100, 50);   // 50 % -> overflow
    h.add(0, 5);      // P=0 convention: 100 % -> overflow
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.count(33), 1u);
    EXPECT_EQ(h.overflow(), 2u);
}

TEST(Histogram, BoundaryFallsIntoUpperBin) {
    RedHistogram h(34);
    h.add(100, 98);  // exactly 2 % -> bin 2
    EXPECT_EQ(h.count(2), 1u);
}

TEST(Histogram, ProbabilitiesSumToOne) {
    RedHistogram h(10);
    for (uint64_t i = 1; i <= 100; ++i) h.add(100, 100 - (i % 13));
    const auto p = h.probabilities();
    double sum = 0.0;
    for (const double v : p) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Histogram, MergeAddsCounts) {
    RedHistogram a(10), b(10);
    a.add(100, 95);
    b.add(100, 95);
    b.add(100, 100);
    a.merge(b);
    EXPECT_EQ(a.total(), 3u);
    EXPECT_EQ(a.count(5), 2u);
    EXPECT_EQ(a.count(0), 1u);
    RedHistogram c(5);
    EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Histogram, RejectsNonPositiveBins) {
    EXPECT_THROW(RedHistogram(0), std::invalid_argument);
}

}  // namespace
}  // namespace sdlc
