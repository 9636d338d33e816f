// Fast-path multiply kernels for the error-evaluation engines.
//
// The DSE sweep evaluates billions of products, so the generic
// ClusterPlan interpreter (sdlc_error_distance: three nested loops over
// groups x weights x rows) is far too slow to be the inner loop. This
// module provides two layers on top of it:
//
//  1. A registry of *stateless* specialized kernels with the uniform
//     signature `uint64_t(uint64_t a, uint64_t b)` — the accurate product,
//     the depth-1 (no-compression) identity and the word-parallel depth-2
//     bit-trick path (sdlc_multiply_fast2). find_multiply_kernel() maps a
//     MultiplierConfig to one of these, or returns nullptr when no
//     stateless kernel applies.
//
//  2. MultiplyKernel, a per-configuration evaluation object that always
//     has a fast path: it uses the stateless kernel when one exists and
//     otherwise falls back to a strength-reduced *planned* evaluation that
//     generalizes the depth-2 trick to every cluster depth.
//
// The planned path rests on this identity. Within one cluster group
// (base row R, `rows` rows, window j = 1..extent), let
// bb = the group's active B bits and, for each active row k, let
// t_k = (a & mask_low(extent+1-k)) << k (the row's partial products
// restricted to the compressed window, in relative weight space). Then
//
//     sum_j pc_j * 2^j        = sum_k t_k        (integer addition)
//     sum_j [pc_j >= 1] * 2^j = OR_k  t_k        (bitwise OR)
//
// so the group's error  sum_j max(0, pc_j - 1) * 2^j  is exactly
// (sum_k t_k) - (OR_k t_k), and the j = 0 column (which can never
// collide) cancels between the two terms. This makes every depth
// O(active rows) per group instead of O(extent * rows).
//
// All kernels assume operands already masked to the configured width
// (the evaluation engines guarantee this).
#ifndef SDLC_CORE_KERNELS_H
#define SDLC_CORE_KERNELS_H

#include <cstdint>
#include <vector>

#include "api/approx_multiplier.h"
#include "core/cluster_plan.h"
#include "core/compensation.h"

namespace sdlc {

/// Stateless specialized multiply kernel: approximate product of two
/// width-masked operands.
using MultiplyKernelFn = uint64_t (*)(uint64_t a, uint64_t b);

/// The stateless kernel specialized for `config`, or nullptr when only the
/// planned/interpreter path applies (generic depths >= 3, compensated
/// depths >= 2). Never throws: unbuildable configurations return nullptr.
[[nodiscard]] MultiplyKernelFn find_multiply_kernel(const MultiplierConfig& config) noexcept;

/// Short name of the evaluation path find_multiply_kernel() would pick
/// ("accurate", "sdlc-fast2", "planned", ...). Diagnostic only.
[[nodiscard]] const char* multiply_kernel_name(const MultiplierConfig& config) noexcept;

/// Per-configuration scalar evaluator. Construction is O(plan size); a
/// call is O(rows) for the planned error plus O(terms) for the compensated
/// variant's gated terms (up to 120 terms at width 16, 496 at width 32).
/// Results are bit-identical to ApproxMultiplier::multiply for the same
/// configuration (enforced by exhaustive tests). No engine runs on it: the
/// sweep engines use the block kernels (core/kernels_sliced.h,
/// core/kernels_sampled.h), and MultiplyKernel is the oracle that tests and
/// the paper benches compare them against.
class MultiplyKernel {
public:
    /// Precomputes the dispatch decision and, for planned configurations,
    /// the per-group column masks and compensation table.
    /// Throws std::invalid_argument for unbuildable configurations.
    explicit MultiplyKernel(const MultiplierConfig& config);

    [[nodiscard]] uint64_t operator()(uint64_t a, uint64_t b) const noexcept {
        if (fn_) return fn_(a, b);
        uint64_t p = a * b - planned_error(a, b);
        for (const CompensationTerm& t : comp_) {
            if (((b >> t.row_a) & (b >> t.row_b)) & 1u) p += t.value;
        }
        return p;
    }

    /// True when a stateless registry kernel backs this configuration.
    [[nodiscard]] bool specialized() const noexcept { return fn_ != nullptr; }

    /// Evaluation-path name ("accurate", "sdlc-fast2", "planned", ...).
    [[nodiscard]] const char* name() const noexcept { return name_; }

    [[nodiscard]] const MultiplierConfig& config() const noexcept { return config_; }

private:
    /// One cluster group prepared for the strength-reduced evaluation.
    struct FastGroup {
        int base_row = 0;       ///< R: shift applied to B and to the group error
        uint32_t row_mask = 0;  ///< mask_low(rows)
        uint32_t mask_offset = 0;  ///< first per-row column mask in col_masks_
    };

    [[nodiscard]] uint64_t planned_error(uint64_t a, uint64_t b) const noexcept;

    MultiplierConfig config_;
    MultiplyKernelFn fn_ = nullptr;
    const char* name_ = "planned";
    std::vector<FastGroup> groups_;
    std::vector<uint64_t> col_masks_;  ///< per (group, row k): window mask for A
    std::vector<CompensationTerm> comp_;
};

}  // namespace sdlc

#endif  // SDLC_CORE_KERNELS_H
