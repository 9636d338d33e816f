#include "error/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define SDLC_LANES_X86 1
#endif

namespace sdlc {

ErrorAccumulator::ErrorAccumulator(int width) : width_(width) {
    if (width < 1 || width > 32) {
        throw std::invalid_argument("ErrorAccumulator: width must be in [1,32]");
    }
    const double top = static_cast<double>((uint64_t{1} << width) - 1);
    pmax_ = top * top;
}

void ErrorAccumulator::merge(const ErrorAccumulator& other) noexcept {
    sum_red_ += other.sum_red_;
    sum_ed_ += other.sum_ed_;
    sum_signed_ += other.sum_signed_;
    sum_sq_ += other.sum_sq_;
    max_red_ = std::max(max_red_, other.max_red_);
    max_ed_ = std::max(max_ed_, other.max_ed_);
    errors_ += other.errors_;
    samples_ += other.samples_;
}

ErrorMetrics ErrorAccumulator::finalize() const noexcept {
    ErrorMetrics m;
    m.samples = samples_;
    if (samples_ == 0) return m;
    const double n = static_cast<double>(samples_);
    m.mred = sum_red_ / n;
    m.med = sum_ed_ / n;
    m.nmed = m.med / pmax_;
    m.error_rate = static_cast<double>(errors_) / n;
    m.max_red = max_red_;
    m.max_ed = max_ed_;
    m.bias = sum_signed_ / n;
    m.rmse = std::sqrt(sum_sq_ / n);
    return m;
}

namespace {

using Block = LaneErrorAccumulator::Block;
using Lanes = LaneErrorAccumulator::Lanes;
constexpr unsigned kLanes = LaneErrorAccumulator::kLanes;

#ifdef SDLC_LANES_X86

/// Transposes an 8x8 matrix of doubles held as eight rows: three delta
/// swaps, stage d exchanging the elements whose row and column differ in
/// bit d. Index 8 and up selects the second source.
__attribute__((target("avx512f")))
inline void transpose8x8(__m512d r[8]) noexcept {
    alignas(64) static constexpr long long kIdx[3][2][8] = {
        {{0, 8, 2, 10, 4, 12, 6, 14}, {1, 9, 3, 11, 5, 13, 7, 15}},
        {{0, 1, 8, 9, 4, 5, 12, 13}, {2, 3, 10, 11, 6, 7, 14, 15}},
        {{0, 1, 2, 3, 8, 9, 10, 11}, {4, 5, 6, 7, 12, 13, 14, 15}},
    };
    for (int stage = 0, d = 1; stage < 3; ++stage, d <<= 1) {
        const __m512i lo = _mm512_load_si512(kIdx[stage][0]);
        const __m512i hi = _mm512_load_si512(kIdx[stage][1]);
        for (int k = 0; k < 8; ++k) {
            if (k & d) continue;
            const __m512d x = r[k];
            const __m512d y = r[k | d];
            r[k] = _mm512_permutex2var_pd(x, lo, y);
            r[k | d] = _mm512_permutex2var_pd(x, hi, y);
        }
    }
}

/// std::max(a, b) per lane: b where a < b, else a.
__attribute__((target("avx512f")))
inline __m512d max_pd(__m512d a, __m512d b) noexcept {
    return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(a, b, _CMP_LT_OQ), a, b);
}

/// One block, eight lanes per vector: step i adds pair i of every lane.
__attribute__((target("avx512f,avx512dq")))
void lane_block_avx512(Lanes& s, const uint64_t a[kLanes], uint64_t b0, const Block& approx,
                       unsigned pairs) noexcept {
    const __m512i av = _mm512_loadu_si512(a);
    const __m512d step = _mm512_cvtepu64_pd(av);
    __m512d exact = _mm512_cvtepu64_pd(
        _mm512_mullo_epi64(av, _mm512_set1_epi64(static_cast<long long>(b0))));
    const __m512d zero = _mm512_setzero_pd();
    const __m512d one = _mm512_set1_pd(1.0);
    __m512d sum_red = _mm512_loadu_pd(s.sum_red);
    __m512d sum_ed = _mm512_loadu_pd(s.sum_ed);
    __m512d sum_signed = _mm512_loadu_pd(s.sum_signed);
    __m512d sum_sq = _mm512_loadu_pd(s.sum_sq);
    __m512d max_red = _mm512_loadu_pd(s.max_red);
    __m512d max_ed = _mm512_cvtepu64_pd(_mm512_loadu_si512(s.max_ed));
    __m512d errors = _mm512_cvtepu64_pd(_mm512_loadu_si512(s.errors));
    for (unsigned i0 = 0; i0 < pairs; i0 += 8) {
        // Rows: lane k's next eight products. Columns after the transpose:
        // pair i0 + j of all eight lanes.
        const unsigned n = std::min(8u, pairs - i0);
        const __mmask8 valid = static_cast<__mmask8>((1u << n) - 1);
        __m512d col[8];
        for (unsigned k = 0; k < kLanes; ++k) {
            col[k] = _mm512_cvtepu64_pd(_mm512_maskz_loadu_epi64(valid, &approx[k][i0]));
        }
        transpose8x8(col);
        for (unsigned j = 0; j < n; ++j) {
            const __m512d d = _mm512_sub_pd(col[j], exact);
            const __m512d ed = _mm512_abs_pd(d);
            const __m512d hit =  // [ED != 0]
                _mm512_maskz_mov_pd(_mm512_cmp_pd_mask(ed, zero, _CMP_NEQ_OQ), one);
            const __mmask8 at_zero = _mm512_cmp_pd_mask(exact, zero, _CMP_EQ_OQ);
            const __m512d red = _mm512_div_pd(_mm512_mask_mov_pd(ed, at_zero, hit),
                                              _mm512_mask_mov_pd(exact, at_zero, one));
            sum_red = _mm512_add_pd(sum_red, red);
            max_red = max_pd(max_red, red);
            sum_ed = _mm512_add_pd(sum_ed, ed);
            sum_signed = _mm512_add_pd(sum_signed, d);
            // An explicitly rounded multiply (all lanes): the compiler may
            // fuse a plain d * d into the add, which rounds once, not twice.
            sum_sq = _mm512_add_pd(sum_sq, _mm512_maskz_mul_round_pd(
                                               0xFF, d, d,
                                               _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
            max_ed = max_pd(max_ed, ed);
            errors = _mm512_add_pd(errors, hit);
            exact = _mm512_add_pd(exact, step);
        }
    }
    _mm512_storeu_pd(s.sum_red, sum_red);
    _mm512_storeu_pd(s.sum_ed, sum_ed);
    _mm512_storeu_pd(s.sum_signed, sum_signed);
    _mm512_storeu_pd(s.sum_sq, sum_sq);
    _mm512_storeu_pd(s.max_red, max_red);
    _mm512_storeu_si512(s.max_ed, _mm512_cvtpd_epu64(max_ed));
    _mm512_storeu_si512(s.errors, _mm512_cvtpd_epu64(errors));
    _mm512_storeu_si512(s.samples, _mm512_add_epi64(_mm512_loadu_si512(s.samples),
                                                    _mm512_set1_epi64(pairs)));
}

bool have_avx512_lane_block() {
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
}

const bool kHaveAvx512LaneBlock = have_avx512_lane_block();

#else

constexpr bool kHaveAvx512LaneBlock = false;

#endif  // SDLC_LANES_X86

}  // namespace

LaneErrorAccumulator::LaneErrorAccumulator(int width) : empty_(width) {}

void LaneErrorAccumulator::add_block(const uint64_t a[kLanes], uint64_t b0,
                                     const Block& approx, unsigned pairs) noexcept {
    if (!add_block_avx512(a, b0, approx, pairs)) add_block_portable(a, b0, approx, pairs);
}

void LaneErrorAccumulator::add_block_portable(const uint64_t a[kLanes], uint64_t b0,
                                              const Block& approx, unsigned pairs) noexcept {
    for (unsigned k = 0; k < kLanes; ++k) {
        ErrorAccumulator acc = lane(k);
        uint64_t exact = a[k] * b0;
        for (unsigned i = 0; i < pairs; ++i, exact += a[k]) acc.add(exact, approx[k][i]);
        store(k, acc);
    }
}

bool LaneErrorAccumulator::add_block_avx512([[maybe_unused]] const uint64_t a[kLanes],
                                            [[maybe_unused]] uint64_t b0,
                                            [[maybe_unused]] const Block& approx,
                                            [[maybe_unused]] unsigned pairs) noexcept {
#ifdef SDLC_LANES_X86
    if (kHaveAvx512LaneBlock) {
        lane_block_avx512(lanes_, a, b0, approx, pairs);
        return true;
    }
#endif
    return false;
}

const char* LaneErrorAccumulator::block_name() noexcept {
    return kHaveAvx512LaneBlock ? "avx512" : "portable";
}

ErrorAccumulator LaneErrorAccumulator::lane(unsigned k) const noexcept {
    ErrorAccumulator acc = empty_;
    acc.sum_red_ = lanes_.sum_red[k];
    acc.sum_ed_ = lanes_.sum_ed[k];
    acc.sum_signed_ = lanes_.sum_signed[k];
    acc.sum_sq_ = lanes_.sum_sq[k];
    acc.max_red_ = lanes_.max_red[k];
    acc.max_ed_ = lanes_.max_ed[k];
    acc.errors_ = lanes_.errors[k];
    acc.samples_ = lanes_.samples[k];
    return acc;
}

void LaneErrorAccumulator::store(unsigned k, const ErrorAccumulator& acc) noexcept {
    lanes_.sum_red[k] = acc.sum_red_;
    lanes_.sum_ed[k] = acc.sum_ed_;
    lanes_.sum_signed[k] = acc.sum_signed_;
    lanes_.sum_sq[k] = acc.sum_sq_;
    lanes_.max_red[k] = acc.max_red_;
    lanes_.max_ed[k] = acc.max_ed_;
    lanes_.errors[k] = acc.errors_;
    lanes_.samples[k] = acc.samples_;
}

bool operator==(const ErrorMetrics& a, const ErrorMetrics& b) noexcept {
    return a.mred == b.mred && a.med == b.med && a.nmed == b.nmed &&
           a.error_rate == b.error_rate && a.max_red == b.max_red && a.max_ed == b.max_ed &&
           a.samples == b.samples && a.bias == b.bias && a.rmse == b.rmse;
}

}  // namespace sdlc
