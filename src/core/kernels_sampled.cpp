#include "core/kernels_sampled.h"

#include <cstring>
#include <stdexcept>

#include "core/cluster_plan.h"
#include "core/compensation.h"
#include "util/bitops.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define SDLC_SAMPLED_X86 1
#endif

namespace sdlc {

namespace {

/// Four lanes of uint64: one ymm register in the AVX2 body, two xmm
/// registers in the portable one.
typedef uint64_t Lanes4 __attribute__((vector_size(32)));
constexpr unsigned kLanes4 = 4;

/// The kernel's tables, as the lane body reads them.
struct Body {
    const uint64_t* masks;
    const SampledMultiplyKernel::Group* groups;
    const SampledMultiplyKernel::Group* groups_end;
    const SampledMultiplyKernel::Table* tables;
    const SampledMultiplyKernel::Table* tables_end;
    const uint64_t* comp;
};

Body body_of(const std::vector<uint64_t>& masks,
             const std::vector<SampledMultiplyKernel::Group>& groups,
             const std::vector<SampledMultiplyKernel::Table>& tables,
             const std::vector<uint64_t>& comp) noexcept {
    return {masks.data(),  groups.data(),        groups.data() + groups.size(),
            tables.data(), tables.data() + tables.size(), comp.data()};
}

/// The lane body, four pairs per step. Inlined into both bodies, so each
/// compiles it for its own instruction set. A short last step pads its
/// unused lanes with zero operands and stores only the drawn lanes.
[[gnu::always_inline]] inline void lane_body(const Body& k, const uint64_t* a,
                                             const uint64_t* b, unsigned n,
                                             uint64_t* out) noexcept {
    for (unsigned l0 = 0; l0 < n; l0 += kLanes4) {
        const unsigned m = n - l0 < kLanes4 ? n - l0 : kLanes4;
        Lanes4 va = {}, vb = {};
        if (m == kLanes4) {
            std::memcpy(&va, a + l0, sizeof va);
            std::memcpy(&vb, b + l0, sizeof vb);
        } else {
            for (unsigned j = 0; j < m; ++j) {
                va[j] = a[l0 + j];
                vb[j] = b[l0 + j];
            }
        }
        Lanes4 err = {};
        for (const SampledMultiplyKernel::Group* g = k.groups; g != k.groups_end; ++g) {
            // Row k of the group: t = (a << k) & (mask_k << k), kept when
            // bit R + k of b is set. a << k and b >> (R + k) advance one
            // row per step.
            Lanes4 sum = {}, ors = {};
            Lanes4 shifted_a = va;
            Lanes4 bits = vb >> g->base_row;
            const uint64_t* masks = k.masks + g->first;
            for (uint32_t row = 0; row < g->count; ++row) {
                const Lanes4 t = shifted_a & masks[row] & (0 - (bits & 1));
                sum += t;
                ors |= t;
                shifted_a += shifted_a;
                bits >>= 1;
            }
            err += (sum - ors) << g->base_row;
        }
        Lanes4 p = va * vb - err;
        for (const SampledMultiplyKernel::Table* t = k.tables; t != k.tables_end; ++t) {
            const Lanes4 idx = ((vb >> t->shift_c) & 15) | ((vb >> t->shift_d) & 15) << 4;
            const uint64_t* entries = k.comp + t->offset;
            p += Lanes4{entries[idx[0]], entries[idx[1]], entries[idx[2]], entries[idx[3]]};
        }
        if (m == kLanes4) {
            std::memcpy(out + l0, &p, sizeof p);
        } else {
            for (unsigned j = 0; j < m; ++j) out[l0 + j] = p[j];
        }
    }
}

#ifdef SDLC_SAMPLED_X86

__attribute__((target("avx2")))
void lane_body_avx2(const Body& k, const uint64_t* a, const uint64_t* b, unsigned n,
                    uint64_t* out) noexcept {
    lane_body(k, a, b, n, out);
}

const bool kHaveAvx2 = __builtin_cpu_supports("avx2");

#else

constexpr bool kHaveAvx2 = false;

#endif  // SDLC_SAMPLED_X86

}  // namespace

bool SampledMultiplyKernel::eligible(const MultiplierConfig& config) noexcept {
    if (config.width < 2 || config.width > kMaxWidth) return false;
    if (config.variant == MultiplierVariant::kAccurate) return false;
    // depth 1 compresses nothing; depth > width is unbuildable.
    return config.depth >= 2 && config.depth <= config.width;
}

SampledMultiplyKernel::SampledMultiplyKernel(const MultiplierConfig& config)
    : config_(config) {
    if (!eligible(config)) {
        throw std::invalid_argument("SampledMultiplyKernel: config not eligible");
    }
    const ClusterPlan plan = ClusterPlan::make(config.width, config.depth);
    for (const ClusterGroup& grp : plan.groups()) {
        Group g;
        g.first = static_cast<uint32_t>(masks_.size());
        g.base_row = grp.base_row;
        int live = 0;  // rows with a non-empty window
        for (int k = 0; k < grp.rows; ++k) {
            const int window = grp.extent + 1 - k;  // columns c <= extent - k
            const uint64_t mask = window > 0 ? mask_low(static_cast<unsigned>(window)) : 0;
            masks_.push_back(mask << k);
            live += mask != 0;
        }
        g.count = static_cast<uint32_t>(grp.rows);
        // A group with fewer than two live rows has SUM == OR for every
        // pair: it never loses value.
        if (live >= 2) {
            groups_.push_back(g);
        } else {
            masks_.resize(g.first);
        }
    }
    if (config.variant != MultiplierVariant::kCompensated) return;

    // A term's rows lie in chunks c = row_a / 4 <= d = row_b / 4, and each
    // chunk pair holding a term gets a table. Entry i | j << 4 sums the
    // pair's terms whose row_a is set in i (chunk c of b) and whose row_b
    // is set in j (chunk d of b); a table with c == d is read at i == j.
    constexpr int kChunks = (kMaxWidth + 3) / 4;
    int slot[kChunks][kChunks];
    for (auto& row : slot) {
        for (int& s : row) s = -1;
    }
    for (const CompensationTerm& term : compensation_terms(plan)) {
        const int c = term.row_a / 4;
        const int d = term.row_b / 4;
        if (slot[c][d] < 0) {
            slot[c][d] = static_cast<int>(tables_.size());
            tables_.push_back({4 * c, 4 * d, static_cast<uint32_t>(comp_.size())});
            comp_.resize(comp_.size() + 256, 0);
        }
        const unsigned both = (1u << (term.row_a - 4 * c)) | (1u << (4 + term.row_b - 4 * d));
        uint64_t* entries = comp_.data() + tables_[static_cast<size_t>(slot[c][d])].offset;
        for (unsigned idx = 0; idx < 256; ++idx) {
            if ((idx & both) == both) entries[idx] += term.value;
        }
    }
}

void SampledMultiplyKernel::multiply(const uint64_t* a, const uint64_t* b, unsigned n,
                                     uint64_t* out) const noexcept {
    if (!multiply_avx2(a, b, n, out)) multiply_portable(a, b, n, out);
}

void SampledMultiplyKernel::multiply_portable(const uint64_t* a, const uint64_t* b, unsigned n,
                                              uint64_t* out) const noexcept {
    lane_body(body_of(masks_, groups_, tables_, comp_), a, b, n, out);
}

bool SampledMultiplyKernel::multiply_avx2([[maybe_unused]] const uint64_t* a,
                                          [[maybe_unused]] const uint64_t* b,
                                          [[maybe_unused]] unsigned n,
                                          [[maybe_unused]] uint64_t* out) const noexcept {
#ifdef SDLC_SAMPLED_X86
    if (kHaveAvx2) {
        lane_body_avx2(body_of(masks_, groups_, tables_, comp_), a, b, n, out);
        return true;
    }
#endif
    return false;
}

const char* SampledMultiplyKernel::body_name() noexcept {
    return kHaveAvx2 ? "avx2" : "portable";
}

}  // namespace sdlc
