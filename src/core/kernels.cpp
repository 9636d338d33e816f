#include "core/kernels.h"

#include <array>
#include <bit>
#include <stdexcept>
#include <utility>

#include "core/functional.h"
#include "util/bitops.h"

namespace sdlc {

namespace {

uint64_t accurate_kernel(uint64_t a, uint64_t b) { return a * b; }

template <int W>
uint64_t sdlc_fast2_kernel(uint64_t a, uint64_t b) {
    return sdlc_multiply_fast2(W, a, b);
}

template <size_t... W>
constexpr std::array<MultiplyKernelFn, sizeof...(W)> fast2_table(std::index_sequence<W...>) {
    return {{&sdlc_fast2_kernel<static_cast<int>(W)>...}};
}

// Indexed by operand width; entries below width 2 are never dispatched.
constexpr auto kFast2Kernels = fast2_table(std::make_index_sequence<33>{});

}  // namespace

MultiplyKernelFn find_multiply_kernel(const MultiplierConfig& config) noexcept {
    if (config.width < 2 || config.width > 32) return nullptr;
    switch (config.variant) {
        case MultiplierVariant::kAccurate:
            return &accurate_kernel;
        case MultiplierVariant::kSdlc:
            if (config.depth == 1) return &accurate_kernel;  // no compression
            if (config.depth == 2) return kFast2Kernels[static_cast<size_t>(config.width)];
            return nullptr;
        case MultiplierVariant::kCompensated:
            // Depth 1 has no compression sites, hence no terms to compensate.
            if (config.depth == 1) return &accurate_kernel;
            return nullptr;
    }
    return nullptr;
}

const char* multiply_kernel_name(const MultiplierConfig& config) noexcept {
    const MultiplyKernelFn fn = find_multiply_kernel(config);
    if (fn == &accurate_kernel) return "accurate";
    if (fn != nullptr) return "sdlc-fast2";
    return "planned";
}

MultiplyKernel::MultiplyKernel(const MultiplierConfig& config) : config_(config) {
    if (config.width < 2 || config.width > 32) {
        throw std::invalid_argument("MultiplyKernel: width must be in [2,32]");
    }
    fn_ = find_multiply_kernel(config);
    name_ = multiply_kernel_name(config);
    if (fn_) return;

    // Planned path: precompute per-group window masks (see header identity)
    // and, for the compensated variant, the gated constant table.
    const ClusterPlan plan = ClusterPlan::make(config.width, config.depth);
    for (const ClusterGroup& grp : plan.groups()) {
        FastGroup fg;
        fg.base_row = grp.base_row;
        fg.row_mask = static_cast<uint32_t>(mask_low(static_cast<unsigned>(grp.rows)));
        fg.mask_offset = static_cast<uint32_t>(col_masks_.size());
        for (int k = 0; k < grp.rows; ++k) {
            const int window = grp.extent + 1 - k;  // columns c <= extent - k
            col_masks_.push_back(window > 0 ? mask_low(static_cast<unsigned>(window)) : 0);
        }
        groups_.push_back(fg);
    }
    if (config.variant == MultiplierVariant::kCompensated) {
        comp_ = compensation_terms(plan);
    }
}

uint64_t MultiplyKernel::planned_error(uint64_t a, uint64_t b) const noexcept {
    uint64_t err = 0;
    for (const FastGroup& g : groups_) {
        uint64_t bb = (b >> g.base_row) & g.row_mask;
        if ((bb & (bb - 1)) == 0) continue;  // fewer than two active rows: exact
        const uint64_t* masks = col_masks_.data() + g.mask_offset;
        uint64_t sum = 0, present = 0;
        do {
            const int k = std::countr_zero(bb);
            const uint64_t t = (a & masks[k]) << k;
            sum += t;
            present |= t;
            bb &= bb - 1;
        } while (bb != 0);
        err += (sum - present) << g.base_row;
    }
    return err;
}

}  // namespace sdlc
