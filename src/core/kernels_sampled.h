// Block evaluation of the planned sum-minus-OR path for sampled sweeps:
// the products of up to 64 independent (a, b) pairs per call.
//
// Monte-Carlo sampling draws unrelated pairs, so the sliced kernel's
// aligned-b blocks (core/kernels_sliced.h) do not apply. Instead each lane
// holds one pair's uint64 values and every lane runs the same straight-line
// code, with no branch on the operands:
//
//   - planned error: for each group (base row R) and each of its rows k,
//     t = (a & mask_k & (0 - ((b >> (R + k)) & 1))) << k is added into the
//     lane's SUM and ORed into its OR, and the group's error is
//     (SUM - OR) << R (the identity in core/kernels.h). A row that b leaves
//     clear gives t = 0 and changes neither, so a group with fewer than two
//     active rows adds 0, as the scalar path's early skip does;
//   - compensation: comp(b) = sum over the in-group row pairs of value *
//     [b_r1 AND b_r2] (core/compensation.h) depends on b alone. The rows of
//     b split into 4-row chunks; for each pair of chunks (c <= d) holding
//     at least one term, the constructor tabulates the sum of that chunk
//     pair's terms over all 256 values of chunk_c(b) | chunk_d(b) << 4.
//     comp(b) is the sum of one entry per table: 4-10 tables (at most
//     20 KB) at width 16, at most 36 (72 KB) at width 32.
//
// products[l] = a*b - err + comp in the scalar kernel's uint64 wrap
// arithmetic: bit-identical to MultiplyKernel for every pair (enforced by
// tests/kernels_sampled_test.cpp), at every width 2-32, sdlc depth 2
// included.
//
// The lane body is compiled twice, as portable code and for AVX2, and the
// process picks one at startup (the idiom of LaneErrorAccumulator in
// error/metrics.h). Both bodies compute the same integers.
#ifndef SDLC_CORE_KERNELS_SAMPLED_H
#define SDLC_CORE_KERNELS_SAMPLED_H

#include <cstdint>
#include <vector>

#include "api/approx_multiplier.h"

namespace sdlc {

/// Per-configuration block evaluator for independent operand pairs.
class SampledMultiplyKernel {
public:
    /// Pairs per call, at most.
    static constexpr unsigned kMaxPairs = 64;

    /// Widest operand the kernel evaluates.
    static constexpr int kMaxWidth = 32;

    /// Throws std::invalid_argument when !eligible(config).
    explicit SampledMultiplyKernel(const MultiplierConfig& config);

    /// True when this kernel applies: sdlc or compensated, width in
    /// [2, kMaxWidth], depth in [2, width]. Accurate and depth-1
    /// configurations are exact: their error metrics are all zero without
    /// evaluating any product.
    [[nodiscard]] static bool eligible(const MultiplierConfig& config) noexcept;

    /// out[l] = the approximate product of a[l] and b[l] for l in [0, n),
    /// n <= kMaxPairs, bit-identical to MultiplyKernel. Operands must be
    /// masked to the width. Reads and writes only lanes [0, n).
    void multiply(const uint64_t* a, const uint64_t* b, unsigned n,
                  uint64_t* out) const noexcept;

    /// The two bodies behind multiply(), callable directly so one machine
    /// can test both. multiply_avx2 returns false and writes nothing on a
    /// CPU (or build) without AVX2.
    void multiply_portable(const uint64_t* a, const uint64_t* b, unsigned n,
                           uint64_t* out) const noexcept;
    bool multiply_avx2(const uint64_t* a, const uint64_t* b, unsigned n,
                       uint64_t* out) const noexcept;

    /// "avx2" or "portable": the body multiply() runs on this CPU.
    [[nodiscard]] static const char* body_name() noexcept;

    [[nodiscard]] const MultiplierConfig& config() const noexcept { return config_; }

    /// A group that can lose value: two or more rows with a non-empty
    /// window. Row k's mask is mask_k << k.
    struct Group {
        uint32_t first = 0;  ///< index of row k = 0 in masks_
        uint32_t count = 0;  ///< rows
        int base_row = 0;    ///< R
    };
    /// One chunk-pair compensation table: 256 entries at comp_[offset].
    struct Table {
        int shift_c = 0;  ///< 4c: the low chunk's first row
        int shift_d = 0;  ///< 4d: the high chunk's first row
        uint32_t offset = 0;
    };

private:
    MultiplierConfig config_;
    std::vector<uint64_t> masks_;  ///< mask_k << k of every row, by group
    std::vector<Group> groups_;
    std::vector<Table> tables_;
    std::vector<uint64_t> comp_;  ///< 256 entries per table; empty for plain sdlc
};

}  // namespace sdlc

#endif  // SDLC_CORE_KERNELS_SAMPLED_H
