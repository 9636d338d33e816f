#include "core/kernels_sliced.h"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "core/cluster_plan.h"
#include "util/bitops.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define SDLC_SLICED_X86 1
#endif

namespace sdlc {

namespace {

// Aligned-block gate planes: bit l of kLanePattern[j] is bit j of the lane
// index l, i.e. bit j of (b0 + l) when b0 is 64-aligned and j < 6.
constexpr uint64_t kLanePattern[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull,
};

/// planes += val gated by `gate` (full-adder ripple: lanes with the gate
/// bit clear add 0). Also records the OR term: present[j] |= gate for every
/// set bit j of val. `val` must be non-zero.
inline void add_gated(uint64_t* planes, uint64_t* present, uint64_t val,
                      uint64_t gate) noexcept {
    uint64_t carry = 0;
    for (int j = std::countr_zero(val); j < 64 && ((val >> j) != 0 || carry != 0); ++j) {
        const uint64_t add = ((val >> j) & 1u) ? gate : 0u;
        present[j] |= add;
        const uint64_t d = planes[j];
        planes[j] = d ^ add ^ carry;
        carry = (d & add) | (carry & (d | add));
    }
}

/// planes -= sub[lo..hi) (borrow ripple, two's-complement wrap past the
/// top plane just like uint64 subtraction).
inline void sub_planes(uint64_t* planes, const uint64_t* sub, int lo, int hi) noexcept {
    uint64_t borrow = 0;
    for (int j = lo; j < 64 && (j < hi || borrow != 0); ++j) {
        const uint64_t s = j < hi ? sub[j] : 0u;
        const uint64_t d = planes[j];
        planes[j] = d ^ s ^ borrow;
        borrow = (~d & (s | borrow)) | (s & borrow);
    }
}

/// planes -= val gated by `gate`. `val` must be non-zero.
inline void sub_gated(uint64_t* planes, uint64_t val, uint64_t gate) noexcept {
    uint64_t borrow = 0;
    for (int j = std::countr_zero(val); j < 64 && ((val >> j) != 0 || borrow != 0); ++j) {
        const uint64_t s = ((val >> j) & 1u) ? gate : 0u;
        const uint64_t d = planes[j];
        planes[j] = d ^ s ^ borrow;
        borrow = (~d & (s | borrow)) | (s & borrow);
    }
}

void transpose64_scalar(uint64_t* dst, const uint64_t* src) {
    if (dst != src) std::memcpy(dst, src, 64 * sizeof(uint64_t));
    // Hacker's Delight 7-3, widened to 64x64: swap j-strided bit blocks.
    uint64_t mask = 0x00000000FFFFFFFFull;
    for (int j = 32; j != 0; j >>= 1, mask ^= mask << j) {
        for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
            const uint64_t t = ((dst[k] >> j) ^ dst[k | j]) & mask;
            dst[k] ^= t << j;
            dst[k | j] ^= t;
        }
    }
}

#ifdef SDLC_SLICED_X86

/// 64x64 bit transpose in ~50 vector ops. Decomposition: view the matrix as
/// an 8x8 grid of 8x8-bit blocks; a full bit transpose is (1) transpose the
/// block grid and (2) bit-transpose each block. gf2p8affineqb with the data
/// as the *matrix* operand and 0x8040201008040201 as the vector performs the
/// per-block bit transpose (its built-in source-byte reversal is folded into
/// the byte permute that marshals each block into one qword), and
/// permutex2var qword delta-swaps transpose the block grid across registers.
__attribute__((target("avx512f,avx512bw,avx512vbmi,gfni")))
void transpose64_avx512(uint64_t* dst, const uint64_t* src) {
    // Byte permute A: qword c, byte p  <-  qword 7-p, byte c. This gathers
    // block (s, c) into qword c of register s, pre-reversed for gfni.
    alignas(64) static constexpr uint8_t kIdxA[64] = {
        56, 48, 40, 32, 24, 16, 8,  0,  57, 49, 41, 33, 25, 17, 9,  1,
        58, 50, 42, 34, 26, 18, 10, 2,  59, 51, 43, 35, 27, 19, 11, 3,
        60, 52, 44, 36, 28, 20, 12, 4,  61, 53, 45, 37, 29, 21, 13, 5,
        62, 54, 46, 38, 30, 22, 14, 6,  63, 55, 47, 39, 31, 23, 15, 7,
    };
    // Byte permute B: plain 8x8 byte transpose (qword q, byte i <- qword i,
    // byte q), turning gathered block qwords back into row-major rows.
    alignas(64) static constexpr uint8_t kIdxB[64] = {
        0, 8,  16, 24, 32, 40, 48, 56, 1, 9,  17, 25, 33, 41, 49, 57,
        2, 10, 18, 26, 34, 42, 50, 58, 3, 11, 19, 27, 35, 43, 51, 59,
        4, 12, 20, 28, 36, 44, 52, 60, 5, 13, 21, 29, 37, 45, 53, 61,
        6, 14, 22, 30, 38, 46, 54, 62, 7, 15, 23, 31, 39, 47, 55, 63,
    };
    const __m512i idx_a = _mm512_load_si512(kIdxA);
    const __m512i idx_b = _mm512_load_si512(kIdxB);
    const __m512i ident = _mm512_set1_epi64(static_cast<long long>(0x8040201008040201ull));

    __m512i v[8];
    for (int s = 0; s < 8; ++s) {
        const __m512i rows = _mm512_loadu_si512(src + 8 * s);
        v[s] = _mm512_gf2p8affine_epi64_epi8(ident, _mm512_permutexvar_epi8(idx_a, rows), 0);
    }
    // Transpose the 8x8 qword grid (v[s].qword[c] <-> v[c].qword[s]) with
    // three delta-swap stages; qword index >= 8 selects the second source.
    for (int d = 1; d <= 4; d <<= 1) {
        __m512i lo_idx, hi_idx;
        {
            alignas(64) uint64_t lo[8], hi[8];
            for (uint64_t c = 0; c < 8; ++c) {
                const uint64_t cd = c & static_cast<uint64_t>(d);
                lo[c] = cd ? 8 + (c ^ static_cast<uint64_t>(d)) : c;
                hi[c] = cd ? 8 + c : (c | static_cast<uint64_t>(d));
            }
            lo_idx = _mm512_load_si512(lo);
            hi_idx = _mm512_load_si512(hi);
        }
        for (int r = 0; r < 8; ++r) {
            if (r & d) continue;
            const __m512i a = v[r], b = v[r | d];
            v[r] = _mm512_permutex2var_epi64(a, lo_idx, b);
            v[r | d] = _mm512_permutex2var_epi64(a, hi_idx, b);
        }
    }
    for (int k = 0; k < 8; ++k) {
        _mm512_storeu_si512(dst + 8 * k, _mm512_permutexvar_epi8(idx_b, v[k]));
    }
}

bool have_avx512_transpose() {
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vbmi") && __builtin_cpu_supports("gfni");
}

#endif  // SDLC_SLICED_X86

using TransposeFn = void (*)(uint64_t*, const uint64_t*);

TransposeFn pick_transpose() {
#ifdef SDLC_SLICED_X86
    if (have_avx512_transpose()) return &transpose64_avx512;
#endif
    return &transpose64_scalar;
}

const TransposeFn kTransposeFn = pick_transpose();

}  // namespace

void transpose64_to(uint64_t dst[64], const uint64_t src[64]) { kTransposeFn(dst, src); }

void transpose64(uint64_t m[64]) { kTransposeFn(m, m); }

bool SlicedMultiplyKernel::eligible(const MultiplierConfig& config) noexcept {
    if (config.width < 2 || config.width > kMaxWidth) return false;
    if (config.variant == MultiplierVariant::kAccurate) return false;
    // depth 1 compresses nothing; depth > width is unbuildable.
    return config.depth >= 2 && config.depth <= config.width;
}

SlicedMultiplyKernel::SlicedMultiplyKernel(const MultiplierConfig& config)
    : config_(config) {
    if (!eligible(config)) {
        throw std::invalid_argument("SlicedMultiplyKernel: config not eligible");
    }
    const uint64_t side = 1ull << config.width;
    lanes_ = side < 64 ? static_cast<unsigned>(side) : 64u;
    lane_mask_ = lanes_ < 64 ? mask_low(lanes_) : ~0ull;
    for (int r = 0; r < 6; ++r) low_gates_[r] = kLanePattern[r] & lane_mask_;

    const ClusterPlan plan = ClusterPlan::make(config.width, config.depth);
    for (const ClusterGroup& grp : plan.groups()) {
        Group g;
        g.first = static_cast<uint32_t>(rows_.size());
        g.count = static_cast<uint32_t>(grp.rows);
        g.base_row = grp.base_row;
        g.lo = grp.base_row;
        g.hi = grp.base_row + grp.extent + 1;
        const int top_row = grp.base_row + grp.rows - 1;
        g.cls = top_row < 6 ? Cls::kLow : (grp.base_row >= 6 ? Cls::kHigh : Cls::kMixed);
        for (int k = 0; k < grp.rows; ++k) {
            const int window = grp.extent + 1 - k;
            rows_.push_back({grp.base_row + k,
                             window > 0 ? mask_low(static_cast<unsigned>(window)) : 0});
        }
        groups_.push_back(g);
        if (g.cls != Cls::kLow) block_varying_ = true;
        if (g.cls == Cls::kMixed) plane_varying_ = true;
    }
    if (config.variant == MultiplierVariant::kCompensated) {
        comp_ = compensation_terms(plan);
        for (const CompensationTerm& t : comp_) {
            const bool a_low = t.row_a < 6, b_low = t.row_b < 6;
            if (a_low && b_low) {
                comp_low_.push_back(t);
            } else if (!a_low && !b_low) {
                comp_high_.push_back(t);
                block_varying_ = true;
            } else {
                comp_mixed_.push_back(t);
                block_varying_ = true;
                plane_varying_ = true;
            }
        }
    }
}

void SlicedMultiplyKernel::eval_group(uint64_t* planes, const Group& g,
                                      const uint64_t* gates, uint64_t a,
                                      uint64_t* scratch) const noexcept {
    for (int j = g.lo; j < g.hi; ++j) scratch[j] = 0;
    bool any = false;
    for (uint32_t i = 0; i < g.count; ++i) {
        const Row& r = rows_[g.first + i];
        const uint64_t val = (a & r.mask) << r.row;
        const uint64_t gate = gates[i];
        if (val == 0 || gate == 0) continue;
        add_gated(planes, scratch, val, gate);
        any = true;
    }
    // Group error = SUM - OR. Lanes with a single active row cancel here
    // (sum == present), matching the scalar kernel's two-active-rows test.
    if (any) sub_planes(planes, scratch, g.lo, g.hi);
}

uint64_t SlicedMultiplyKernel::high_error(uint64_t a, uint64_t b) const noexcept {
    // Scalar planned identity restricted to the all-uniform groups; on an
    // aligned block every lane shares bits >= 6 of b, so one evaluation
    // covers the whole block.
    uint64_t err = 0;
    for (const Group& g : groups_) {
        if (g.cls != Cls::kHigh) continue;
        uint64_t bb = (b >> g.base_row) & mask_low(g.count);
        if ((bb & (bb - 1)) == 0) continue;
        uint64_t sum = 0, present = 0;
        do {
            const int k = std::countr_zero(bb);
            const uint64_t t = (a & rows_[g.first + static_cast<uint32_t>(k)].mask) << k;
            sum += t;
            present |= t;
            bb &= bb - 1;
        } while (bb != 0);
        err += (sum - present) << g.base_row;
    }
    return err;
}

void SlicedMultiplyKernel::prepare(uint64_t a, Prepared& prep) const noexcept {
    prep.a = a;
    std::memset(prep.low, 0, sizeof prep.low);
    uint64_t scratch[64];
    for (const Group& g : groups_) {
        if (g.cls != Cls::kLow) continue;
        uint64_t gates[64];
        for (uint32_t i = 0; i < g.count; ++i) {
            gates[i] = low_gates_[rows_[g.first + i].row];
        }
        eval_group(prep.low, g, gates, a, scratch);
    }
    for (const CompensationTerm& t : comp_low_) {
        const uint64_t gate = low_gates_[t.row_a] & low_gates_[t.row_b];
        if (gate != 0 && t.value != 0) sub_gated(prep.low, t.value, gate);
    }
}

void SlicedMultiplyKernel::multiply_block_prepared(const Prepared& prep, uint64_t b0,
                                                   uint64_t out[64]) const noexcept {
    // adj = scalar part of (error - compensation), shared by every lane.
    uint64_t adj = 0;
    uint64_t lanes[64];
    if (!plane_varying_) {
        // All block-varying work is scalar (all-uniform groups/terms), so
        // the prepared planes transpose straight into lane space.
        transpose64_to(lanes, prep.low);
        if (block_varying_) {
            adj = high_error(prep.a, b0);
            for (const CompensationTerm& t : comp_high_) {
                if (((b0 >> t.row_a) & (b0 >> t.row_b)) & 1u) adj -= t.value;
            }
        }
    } else {
        uint64_t planes[64];
        std::memcpy(planes, prep.low, sizeof planes);
        adj = high_error(prep.a, b0);
        for (const CompensationTerm& t : comp_high_) {
            if (((b0 >> t.row_a) & (b0 >> t.row_b)) & 1u) adj -= t.value;
        }
        uint64_t scratch[64];
        for (const Group& g : groups_) {
            if (g.cls != Cls::kMixed) continue;
            uint64_t gates[64];
            for (uint32_t i = 0; i < g.count; ++i) {
                const int r = rows_[g.first + i].row;
                gates[i] = r < 6 ? low_gates_[r]
                                 : (((b0 >> r) & 1u) ? lane_mask_ : 0u);
            }
            eval_group(planes, g, gates, prep.a, scratch);
        }
        for (const CompensationTerm& t : comp_mixed_) {
            const int low_row = t.row_a < 6 ? t.row_a : t.row_b;
            const int high_row = t.row_a < 6 ? t.row_b : t.row_a;
            if (((b0 >> high_row) & 1u) && t.value != 0) {
                sub_gated(planes, t.value, low_gates_[low_row]);
            }
        }
        transpose64_to(lanes, planes);
    }
    uint64_t p = prep.a * b0 - adj;
    for (unsigned l = 0; l < lanes_; ++l) {
        out[l] = p - lanes[l];
        p += prep.a;
    }
}

void SlicedMultiplyKernel::multiply_block(uint64_t a, uint64_t b0, unsigned lanes,
                                          uint64_t out[64]) const noexcept {
    const uint64_t active = lanes < 64 ? mask_low(lanes) : ~0ull;
    uint64_t bplane[16];
    if ((b0 & 63u) == 0 && lanes <= 64) {
        for (int j = 0; j < config_.width; ++j) {
            bplane[j] = (j < 6 ? kLanePattern[j] : (((b0 >> j) & 1u) ? ~0ull : 0ull)) & active;
        }
    } else {
        for (int j = 0; j < config_.width; ++j) {
            uint64_t plane = 0;
            for (unsigned l = 0; l < lanes; ++l) {
                plane |= (((b0 + l) >> j) & 1u) << l;
            }
            bplane[j] = plane;
        }
    }

    uint64_t planes[64] = {};
    uint64_t scratch[64];
    uint64_t gates[64];
    for (const Group& g : groups_) {
        for (uint32_t i = 0; i < g.count; ++i) gates[i] = bplane[rows_[g.first + i].row];
        eval_group(planes, g, gates, a, scratch);
    }
    for (const CompensationTerm& t : comp_) {
        const uint64_t gate = bplane[t.row_a] & bplane[t.row_b];
        if (gate != 0 && t.value != 0) sub_gated(planes, t.value, gate);
    }
    transpose64(planes);
    uint64_t p = a * b0;
    for (unsigned l = 0; l < lanes; ++l) {
        out[l] = p - planes[l];
        p += a;
    }
}

}  // namespace sdlc
