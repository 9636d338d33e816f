// Sweep coverage for the ClusterPlan::make extent formula across widths
// 4..32 and depths 1..8: extents stay positive and strictly ordered, every
// row is accounted for, and compression_sites() is consistent with the
// groups' extents and with the >= 2-potential-bit site definition.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/cluster_plan.h"

namespace sdlc {
namespace {

constexpr int kMinWidth = 4;
constexpr int kMaxWidth = 32;
constexpr int kMaxDepth = 8;

/// Number of partial-product bits a cluster could place at relative weight j
/// above its base: row k of the cluster spans relative weights [k, k+N-1].
int potential_bits(const ClusterGroup& g, int width, int j) {
    const int lo = std::max(0, j - width + 1);
    const int hi = std::min(g.rows - 1, j);
    return hi >= lo ? hi - lo + 1 : 0;
}

TEST(ClusterPlanExtents, PositiveAndStrictlyDecreasingAcrossGroups) {
    for (int width = kMinWidth; width <= kMaxWidth; ++width) {
        for (int depth = 1; depth <= std::min(width, kMaxDepth); ++depth) {
            const ClusterPlan plan = ClusterPlan::make(width, depth);
            const auto& groups = plan.groups();
            for (size_t g = 0; g < groups.size(); ++g) {
                EXPECT_GE(groups[g].extent, 1)
                    << "width " << width << " depth " << depth << " group " << g;
                if (g > 0) {
                    EXPECT_LT(groups[g].extent, groups[g - 1].extent)
                        << "width " << width << " depth " << depth << " group " << g;
                }
            }
        }
    }
}

TEST(ClusterPlanExtents, ExtentsMonotoneNonDecreasingInWidth) {
    // For a fixed depth and group index, widening the multiplier never
    // shrinks a cluster's compressed span.
    for (int depth = 2; depth <= kMaxDepth; ++depth) {
        for (int width = std::max(kMinWidth, depth); width < kMaxWidth; ++width) {
            const ClusterPlan narrow = ClusterPlan::make(width, depth);
            const ClusterPlan wide = ClusterPlan::make(width + 1, depth);
            const size_t common = std::min(narrow.groups().size(), wide.groups().size());
            for (size_t g = 0; g < common; ++g) {
                EXPECT_GE(wide.groups()[g].extent, narrow.groups()[g].extent)
                    << "depth " << depth << " width " << width << " group " << g;
            }
        }
    }
}

TEST(ClusterPlanExtents, EveryRowCoveredOrLoneTrailing) {
    for (int width = kMinWidth; width <= kMaxWidth; ++width) {
        for (int depth = 2; depth <= std::min(width, kMaxDepth); ++depth) {
            const ClusterPlan plan = ClusterPlan::make(width, depth);
            for (int r = 0; r < width; ++r) {
                int owners = 0;
                for (const ClusterGroup& g : plan.groups()) {
                    if (r >= g.base_row && r < g.base_row + g.rows) ++owners;
                }
                // The only uncovered row is a trailing cluster of a single
                // row, which cannot be compressed.
                const bool lone_trailing = (width % depth == 1) && r == width - 1;
                EXPECT_EQ(owners, lone_trailing ? 0 : 1)
                    << "width " << width << " depth " << depth << " row " << r;
                EXPECT_EQ(plan.group_of_row(r) != nullptr, owners == 1);
            }
        }
    }
}

TEST(ClusterPlanExtents, GroupGeometryMatchesDepthGrid) {
    for (int width = kMinWidth; width <= kMaxWidth; ++width) {
        for (int depth = 2; depth <= std::min(width, kMaxDepth); ++depth) {
            const ClusterPlan plan = ClusterPlan::make(width, depth);
            for (const ClusterGroup& g : plan.groups()) {
                EXPECT_EQ(g.base_row % depth, 0);
                EXPECT_EQ(g.rows, std::min(depth, width - g.base_row));
                EXPECT_GE(g.rows, 2);
                EXPECT_LE(g.extent, width + g.rows - 3)
                    << "extent past the last >=2-bit weight position";
            }
        }
    }
}

TEST(ClusterPlanExtents, CompressionSitesConsistent) {
    for (int width = kMinWidth; width <= kMaxWidth; ++width) {
        for (int depth = 1; depth <= std::min(width, kMaxDepth); ++depth) {
            const ClusterPlan plan = ClusterPlan::make(width, depth);
            int sum_extents = 0;
            int multi_bit_sites = 0;
            for (const ClusterGroup& g : plan.groups()) {
                sum_extents += g.extent;
                for (int j = 1; j <= g.extent; ++j) {
                    // Every compressed position must be a real OR site.
                    EXPECT_GE(potential_bits(g, width, j), 2)
                        << "width " << width << " depth " << depth << " base " << g.base_row
                        << " j " << j;
                    ++multi_bit_sites;
                }
            }
            EXPECT_EQ(plan.compression_sites(), sum_extents);
            EXPECT_EQ(plan.compression_sites(), multi_bit_sites);
            if (depth == 1) {
                EXPECT_EQ(plan.compression_sites(), 0);
            }
        }
    }
}

}  // namespace
}  // namespace sdlc
