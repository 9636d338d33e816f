// Block evaluation of the planned sum-minus-OR path for exhaustive sweeps:
// the products of one `a` with 64 consecutive b values per call.
//
// The scalar planned path (core/kernels.h) evaluates one (a, b) pair per
// call. Exhaustive error sweeps, however, iterate b densely for a fixed a,
// in aligned blocks: b0 a multiple of 64, lanes b0 + l for l in [0, 64).
// Inside such a block, bits 0..5 of b are the lane index l and the bits
// >= 6 are b0's, the same in every lane. The planned identity splits along
// that line:
//
//   - rows below bit 6 depend on the lane alone, so prepare(a) evaluates
//     them once per a, one error per lane. It tabulates the SUM S[m] and
//     the OR O[m] of the row values t_r = (a & mask_r) << r over every
//     subset m of rows 0..5 (each entry from the entry for m & (m - 1); a
//     row in no group has t_r = 0). Lane l's error is then
//     S[l] - sum_g O[l & rows_g] over the groups with rows below bit 6;
//   - rows at or above bit 6 are one scalar SUM and OR per group on b0's
//     bits, shared by the block. A group with every row there is the
//     scalar planned identity;
//   - groups are disjoint row ranges, so at most one straddles bit 6.
//     prepare() also keeps its low rows' OR per lane, O[l & rows_mixed],
//     and a block merges it with its high rows' scalar OR through
//     low_or | high_or = low_or + high_or - (low_or & high_or).
//
// A block is therefore a little scalar work on b0 plus one lane loop,
// products[l] = a*b_l - err_l + comp(b_l) in the scalar kernel's uint64 wrap
// arithmetic: bit-identical to MultiplyKernel for every operand pair
// (enforced by exhaustive tests). No code depends on the CPU.
//
// The compensated variant's correction sum_{in-group row pairs} value *
// [b_r1 AND b_r2] (core/compensation.h) depends on b alone: the constructor
// tabulates comp(b) once per b (2^width entries; 32 KB at width 12, 512 KB
// at width 16) and each lane adds its entry.
//
// The engine's first form evaluated these rows in 64-lane bit planes, hence
// the class name and the `sliced` engine key in exports and metrics.
#ifndef SDLC_CORE_KERNELS_SLICED_H
#define SDLC_CORE_KERNELS_SLICED_H

#include <cstdint>
#include <vector>

#include "api/approx_multiplier.h"

namespace sdlc {

/// Per-configuration block evaluator for the planned path.
class SlicedMultiplyKernel {
public:
    /// Precomputed per-a state for multiply_block_prepared(): the rows
    /// below bit 6, per lane of an aligned block.
    struct Prepared {
        uint64_t a = 0;
        uint64_t low[64] = {};       ///< error of the rows below bit 6
        uint64_t mixed_or[64] = {};  ///< OR of the straddling group's rows below bit 6
    };

    /// Widest operand the engine evaluates.
    static constexpr int kMaxWidth = 16;

    /// Throws std::invalid_argument when !eligible(config).
    explicit SlicedMultiplyKernel(const MultiplierConfig& config);

    /// True when this engine applies: width in [2, kMaxWidth] and a non-empty
    /// compression plan (sdlc/compensated with depth in [2, width]).
    /// Accurate and depth-1 configurations are exact: their error metrics
    /// are all zero without evaluating any product.
    [[nodiscard]] static bool eligible(const MultiplierConfig& config) noexcept;

    /// Evaluates the block-invariant rows (below bit 6) for this `a`.
    void prepare(uint64_t a, Prepared& prep) const noexcept;

    /// Products of a * (b0 + l) for l in [0, natural_lanes()), bit-identical
    /// to MultiplyKernel. Requires b0 to be a multiple of natural_lanes().
    void multiply_block_prepared(const Prepared& prep, uint64_t b0,
                                 uint64_t out[64]) const noexcept;

    /// Lanes per block: min(64, 2^width), so a full b-sweep at width < 6 is
    /// a single partial block.
    [[nodiscard]] unsigned natural_lanes() const noexcept { return lanes_; }

    [[nodiscard]] const MultiplierConfig& config() const noexcept { return config_; }
    [[nodiscard]] const char* name() const noexcept { return "sliced"; }

private:
    /// Row-class of a group w.r.t. aligned blocks: all rows below bit 6
    /// (prepared per lane), all rows at or above bit 6 (scalars per block),
    /// or straddling.
    enum class Cls : uint8_t { kLow, kHigh, kMixed };

    struct Group {
        uint32_t first = 0;  ///< index of row k = 0 in row_masks_
        uint32_t count = 0;
        int base_row = 0;
        Cls cls = Cls::kLow;
    };

    [[nodiscard]] uint64_t block_error(uint64_t a, uint64_t b0,
                                       uint64_t& high_or) const noexcept;

    MultiplierConfig config_;
    unsigned lanes_ = 64;
    std::vector<uint64_t> row_masks_;  ///< mask_r of every grouped row, by group
    std::vector<Group> groups_;
    uint64_t low_masks_[6] = {};  ///< mask_r of rows 0..5; 0 for a row in no group
    uint8_t low_group_rows_[3] = {};  ///< rows below bit 6 of each group that has any
    uint8_t mixed_rows_ = 0;  ///< rows below bit 6 of the straddling group
    std::vector<uint64_t> comp_;  ///< comp(b) per b; empty for plain sdlc
};

}  // namespace sdlc

#endif  // SDLC_CORE_KERNELS_SLICED_H
