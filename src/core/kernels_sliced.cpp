#include "core/kernels_sliced.h"

#include <bit>
#include <stdexcept>

#include "core/cluster_plan.h"
#include "core/compensation.h"
#include "util/bitops.h"

namespace sdlc {

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

    const ClusterPlan plan = ClusterPlan::make(config.width, config.depth);
    unsigned low_groups = 0;
    for (const ClusterGroup& grp : plan.groups()) {
        Group g;
        g.first = static_cast<uint32_t>(row_masks_.size());
        g.count = static_cast<uint32_t>(grp.rows);
        g.base_row = grp.base_row;
        const int top_row = grp.base_row + grp.rows - 1;
        g.cls = top_row < 6 ? Cls::kLow : (grp.base_row >= 6 ? Cls::kHigh : Cls::kMixed);
        uint8_t low_rows = 0;
        for (int k = 0; k < grp.rows; ++k) {
            const int window = grp.extent + 1 - k;
            const uint64_t mask = window > 0 ? mask_low(static_cast<unsigned>(window)) : 0;
            row_masks_.push_back(mask);
            const int row = grp.base_row + k;
            if (row < 6) {
                low_masks_[row] = mask;
                low_rows |= static_cast<uint8_t>(1u << row);
            }
        }
        // Groups start at multiples of depth >= 2, so at most three (base
        // rows 0, 2, 4) have rows below bit 6.
        if (low_rows != 0) low_group_rows_[low_groups++] = low_rows;
        if (g.cls == Cls::kMixed) mixed_rows_ = low_rows;
        groups_.push_back(g);
    }
    if (config.variant == MultiplierVariant::kCompensated) {
        // comp(b) is the sum of the terms whose two rows are both set in b
        // (in-group pairs, row_a < row_b). Dropping b's lowest set row r
        // drops exactly the terms pairing r with b's other rows:
        // comp(b) = comp(b & (b - 1)) + sum_{r' in b, r' > r} value(r, r').
        uint64_t value[kMaxWidth][kMaxWidth] = {};
        uint64_t partners[kMaxWidth] = {};
        for (const CompensationTerm& t : compensation_terms(plan)) {
            value[t.row_a][t.row_b] += t.value;
            partners[t.row_a] |= uint64_t{1} << t.row_b;
        }
        comp_.assign(side, 0);
        for (uint64_t b = 1; b < side; ++b) {
            const int r = std::countr_zero(b);
            uint64_t c = comp_[b & (b - 1)];
            for (uint64_t m = b & partners[r]; m != 0; m &= m - 1) {
                c += value[r][std::countr_zero(m)];
            }
            comp_[b] = c;
        }
    }
}

uint64_t SlicedMultiplyKernel::block_error(uint64_t a, uint64_t b0,
                                           uint64_t& high_or) const noexcept {
    // Scalar planned identity over the rows >= 6: on an aligned block every
    // lane shares those bits of b0. A high group's error is complete here.
    // For the straddling group this is its high rows' SUM - OR, and
    // high_or returns their OR for the lane loop to merge with the low
    // rows' OR: low_or | high_or = low_or + high_or - (low_or & high_or).
    uint64_t err = 0;
    high_or = 0;
    for (const Group& g : groups_) {
        if (g.cls == Cls::kLow) continue;
        const uint32_t k0 = g.cls == Cls::kMixed ? static_cast<uint32_t>(6 - g.base_row) : 0;
        uint64_t sum = 0, present = 0;
        for (uint64_t bb = (b0 >> (g.base_row + static_cast<int>(k0))) & mask_low(g.count - k0);
             bb != 0; bb &= bb - 1) {
            const uint32_t k = k0 + static_cast<uint32_t>(std::countr_zero(bb));
            const uint64_t t = (a & row_masks_[g.first + k]) << k;
            sum += t;
            present |= t;
        }
        err += (sum - present) << g.base_row;
        if (g.cls == Cls::kMixed) high_or = present << g.base_row;
    }
    return err;
}

void SlicedMultiplyKernel::prepare(uint64_t a, Prepared& prep) const noexcept {
    // In an aligned block, lane l's bits 0..5 of b are l itself: the rows
    // below bit 6 that lane l sets are the subset l of rows 0..5. Tabulate
    // their SUM and OR over every subset, then take each group's OR from
    // its rows in l. Unused entries of low_group_rows_ are 0 and subtract
    // O[0] = 0.
    prep.a = a;
    uint64_t t[6] = {};
    for (int r = 0; r < 6; ++r) t[r] = (a & low_masks_[r]) << r;
    uint64_t sum[64] = {}, ors[64] = {};
    for (unsigned m = 1; m < lanes_; ++m) {
        const uint64_t tr = t[std::countr_zero(m)];
        sum[m] = sum[m & (m - 1)] + tr;
        ors[m] = ors[m & (m - 1)] | tr;
    }
    for (unsigned l = 0; l < lanes_; ++l) {
        prep.low[l] = sum[l] - ors[l & low_group_rows_[0]] - ors[l & low_group_rows_[1]] -
                      ors[l & low_group_rows_[2]];
        prep.mixed_or[l] = ors[l & mixed_rows_];
    }
}

void SlicedMultiplyKernel::multiply_block_prepared(const Prepared& prep, uint64_t b0,
                                                   uint64_t out[64]) const noexcept {
    uint64_t high_or = 0;
    const uint64_t err = block_error(prep.a, b0, high_or);
    // b0 is a multiple of lanes_, which divides 2^width: the block's
    // compensation entries are contiguous and inside the table.
    static constexpr uint64_t kNoComp[64] = {};
    const uint64_t* comp = comp_.empty() ? kNoComp : comp_.data() + (b0 & (comp_.size() - 1));
    uint64_t p = prep.a * b0 - err;
    for (unsigned l = 0; l < lanes_; ++l) {
        out[l] = p - prep.low[l] - (prep.mixed_or[l] & high_or) + comp[l];
        p += prep.a;
    }
}

}  // namespace sdlc
