// Bit-sliced (transposed) evaluation of the planned sum-minus-OR path:
// 64 products per uint64 bitwise operation.
//
// The scalar planned path (core/kernels.h) evaluates one (a, b) pair per
// call. Exhaustive error sweeps, however, iterate b densely for a fixed a,
// and every step of the planned identity is bitwise logic plus integer
// add/subtract — exactly the shape classic bit-parallel logic simulators
// exploit. This engine transposes 64 consecutive b values into bit-plane
// uint64s (plane j holds bit j of each lane's value, one lane per bit) and
// evaluates the identity across all lanes at once:
//
//   - the SUM term  sum_k t_k  becomes a gated carry-ripple add of the
//     constant t_k = (a & mask_k) << row_k into the plane accumulator,
//     where the "gate" plane (which lanes have B bit row_k set) feeds the
//     full-adder instead of a scalar 0/1;
//   - the OR term  OR_k t_k  becomes plain plane ORs;
//   - the group error (SUM - OR) << base_row and the compensated variant's
//     gated constants become borrow-ripple plane subtracts.
//
// A final 64x64 bit-matrix transpose turns the error planes back into one
// uint64 error per lane, and products[l] = a*b_l - err_l (+ compensation)
// reproduces the scalar kernel's uint64 wrap arithmetic exactly — results
// are bit-identical to MultiplyKernel for every operand pair (enforced by
// exhaustive tests).
//
// Two entry points:
//
//   - multiply_block(a, b0, lanes, out): general path, any b0/lane count.
//   - prepare(a) + multiply_block_prepared(prep, b0, out): the sweep fast
//     path for aligned blocks (b0 a multiple of the natural lane count).
//     For aligned blocks the b bit-planes are not data at all: planes 0..5
//     are fixed constants (0xAAAA..., 0xCCCC..., ...) and planes >= 6 are
//     uniform 0/~0 across the block. prepare() therefore folds every group
//     whose rows all sit below bit 6 into a per-a plane image once, and
//     the per-block work collapses to: copy planes, evaluate the few
//     all-uniform groups as scalars on b0, transpose, subtract.
#ifndef SDLC_CORE_KERNELS_SLICED_H
#define SDLC_CORE_KERNELS_SLICED_H

#include <cstdint>
#include <vector>

#include "api/approx_multiplier.h"
#include "core/compensation.h"

namespace sdlc {

/// In-place transpose of a 64x64 bit matrix: afterwards bit j of word l is
/// the former bit l of word j. Exposed for tests.
void transpose64(uint64_t m[64]);

/// Out-of-place variant (dst may alias src). On x86-64 with AVX-512+GFNI a
/// vector implementation is selected at runtime; results are identical.
void transpose64_to(uint64_t dst[64], const uint64_t src[64]);

/// Per-configuration bit-sliced evaluator for the planned path.
class SlicedMultiplyKernel {
public:
    /// Precomputed per-a state for multiply_block_prepared().
    struct Prepared {
        uint64_t a = 0;
        uint64_t low[64] = {};  ///< error planes of all low-row groups/terms
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

    /// Approximate products of a * (b0 + l) for l in [0, lanes), lanes in
    /// [1, 64]. Bit-identical to MultiplyKernel for each pair. General
    /// path: b0 need not be aligned and lanes may be any count (the
    /// lane-misalignment case).
    void multiply_block(uint64_t a, uint64_t b0, unsigned lanes, uint64_t out[64]) const noexcept;

    /// Folds every block-invariant group/term for this `a` into prep.
    void prepare(uint64_t a, Prepared& prep) const noexcept;

    /// Fast path: products of a * (b0 + l) for l in [0, natural_lanes()).
    /// Requires b0 to be a multiple of natural_lanes().
    void multiply_block_prepared(const Prepared& prep, uint64_t b0,
                                 uint64_t out[64]) const noexcept;

    /// Lanes per block on the fast path: min(64, 2^width), so a full
    /// b-sweep at width < 6 is a single partial block.
    [[nodiscard]] unsigned natural_lanes() const noexcept { return lanes_; }

    [[nodiscard]] const MultiplierConfig& config() const noexcept { return config_; }
    [[nodiscard]] const char* name() const noexcept { return "sliced"; }

private:
    /// One partial-product row of a cluster group: value (a & mask) << row,
    /// gated by B bit `row`.
    struct Row {
        int row = 0;
        uint64_t mask = 0;
    };

    /// Row-class of a group w.r.t. aligned blocks: all rows below bit 6
    /// (gate planes are block-invariant constants), all rows at or above
    /// bit 6 (gates uniform per block), or straddling.
    enum class Cls : uint8_t { kLow, kHigh, kMixed };

    struct Group {
        uint32_t first = 0;  ///< index of row k = 0 in rows_
        uint32_t count = 0;
        int base_row = 0;
        int lo = 0;  ///< present-plane span [lo, hi)
        int hi = 0;
        Cls cls = Cls::kLow;
    };

    void eval_group(uint64_t* planes, const Group& g, const uint64_t* gates,
                    uint64_t a, uint64_t* scratch) const noexcept;
    [[nodiscard]] uint64_t high_error(uint64_t a, uint64_t b) const noexcept;

    MultiplierConfig config_;
    unsigned lanes_ = 64;
    uint64_t lane_mask_ = ~0ull;
    uint64_t low_gates_[6] = {};  ///< aligned-block gate planes for rows < 6
    std::vector<Row> rows_;
    std::vector<Group> groups_;
    std::vector<CompensationTerm> comp_;        ///< all terms (general path)
    std::vector<CompensationTerm> comp_low_;    ///< both rows < 6
    std::vector<CompensationTerm> comp_high_;   ///< both rows >= 6
    std::vector<CompensationTerm> comp_mixed_;  ///< one row each side
    bool block_varying_ = false;  ///< any high/mixed group or comp term
    bool plane_varying_ = false;  ///< any mixed group or mixed comp term
};

}  // namespace sdlc

#endif  // SDLC_CORE_KERNELS_SLICED_H
