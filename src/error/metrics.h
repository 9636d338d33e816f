// Error metrics for approximate arithmetic (paper Section III).
//
//   ED   = |P - P'|                       error distance
//   RED  = ED / P                         relative error distance
//   MRED = mean RED over all inputs
//   MED  = mean ED
//   NMED = MED / Pmax,  Pmax = (2^N - 1)^2
//   ER   = fraction of inputs with P' != P
//
// Convention for P = 0 (needed by baselines such as ETM that can err at
// zero): RED = 0 when P' == 0, RED = 1 otherwise. SDLC itself is always
// exact at P = 0. This convention reproduces the paper's quoted numbers.
//
// The sums are doubles, so a result depends on the order its pairs were
// added in. The exhaustive engines fix that order: each shard adds its own
// pairs in its own order, and shards merge in index order. The sliced
// engine runs eight shards in one vector (LaneErrorAccumulator, one shard
// per lane), which keeps every shard's order and so every bit.
#ifndef SDLC_ERROR_METRICS_H
#define SDLC_ERROR_METRICS_H

#include <algorithm>
#include <cstdint>

namespace sdlc {

/// Final error statistics over a set of (exact, approximate) pairs.
struct ErrorMetrics {
    double mred = 0.0;       ///< mean relative error distance (ratio, not %)
    double med = 0.0;        ///< mean error distance
    double nmed = 0.0;       ///< MED normalized by Pmax
    double error_rate = 0.0; ///< fraction of erroneous outputs
    double max_red = 0.0;    ///< maximum RED (ratio)
    uint64_t max_ed = 0;     ///< maximum ED
    uint64_t samples = 0;    ///< number of evaluated pairs
    double bias = 0.0;       ///< mean signed error (approx - exact); <= 0 for plain SDLC
    double rmse = 0.0;       ///< root-mean-square error distance
};

/// Bit-exact equality of every metric. Error evaluation is deterministic
/// for a given configuration and seed, so re-evaluating must reproduce the
/// metrics exactly; the DSE repeat guard and the serve determinism tests
/// rely on this.
[[nodiscard]] bool operator==(const ErrorMetrics& a, const ErrorMetrics& b) noexcept;
[[nodiscard]] inline bool operator!=(const ErrorMetrics& a, const ErrorMetrics& b) noexcept {
    return !(a == b);
}

/// Streaming accumulator for ErrorMetrics; mergeable for parallel sweeps.
class ErrorAccumulator {
public:
    /// `width` is the operand bit-width N; sets Pmax = (2^N - 1)^2.
    explicit ErrorAccumulator(int width);

    /// Adds one (exact, approximate) product pair. Defined inline: this is
    /// the innermost statement of every exhaustive sweep (2^32 calls at
    /// 16 bits), and an exact sample must cost no more than a compare and a
    /// counter bump.
    void add(uint64_t exact, uint64_t approx) noexcept {
        ++samples_;
        const uint64_t ed = exact > approx ? exact - approx : approx - exact;
        if (ed == 0) return;  // fast path: exact product, only the count moves
        ++errors_;
        sum_ed_ += static_cast<double>(ed);
        sum_signed_ += approx > exact ? static_cast<double>(ed) : -static_cast<double>(ed);
        sum_sq_ += static_cast<double>(ed) * static_cast<double>(ed);
        max_ed_ = std::max(max_ed_, ed);
        const double red =
            exact == 0 ? 1.0 : static_cast<double>(ed) / static_cast<double>(exact);
        sum_red_ += red;
        max_red_ = std::max(max_red_, red);
    }

    /// Adds the statistics gathered by another accumulator of equal width.
    void merge(const ErrorAccumulator& other) noexcept;

    /// Finalizes the metrics gathered so far.
    [[nodiscard]] ErrorMetrics finalize() const noexcept;

    [[nodiscard]] int width() const noexcept { return width_; }

    /// Same width, sums, maxima and counts. Two accumulators that saw the
    /// same pairs in the same order compare equal.
    [[nodiscard]] friend bool operator==(const ErrorAccumulator&,
                                         const ErrorAccumulator&) noexcept = default;

private:
    friend class LaneErrorAccumulator;

    int width_;
    double pmax_;
    double sum_red_ = 0.0;
    double sum_ed_ = 0.0;
    double sum_signed_ = 0.0;
    double sum_sq_ = 0.0;
    double max_red_ = 0.0;
    uint64_t max_ed_ = 0;
    uint64_t errors_ = 0;
    uint64_t samples_ = 0;
};

/// Eight ErrorAccumulators in lockstep, one per SIMD lane. Lane k holds the
/// state of an ErrorAccumulator that has seen exactly lane k's pairs, in
/// lane k's order, so lane(k) has the same bits as that accumulator.
///
/// add_block runs AVX-512F/DQ code when the CPU has it (chosen once per
/// process) and otherwise a portable block that calls add() on each lane
/// in turn. The vector block computes each
/// pair branch-free in doubles, d = approx - exact and ED = |d|, and adds
/// d, ED, d*d and RED to every sum: an exact pair adds +0.0, which leaves a
/// sum unchanged because no sum is ever -0.0. RED is
/// (exact == 0 ? [ED != 0] : ED) / (exact == 0 ? 1 : exact), the P = 0
/// convention above. d*d is rounded before it is added, as add() does: a
/// fused multiply-add would round differently once |d| > 2^26.5. Every
/// step is exact, and so equal to add(), while products stay below 2^53;
/// at width <= 16 they stay below 2^34.
class LaneErrorAccumulator {
public:
    static constexpr unsigned kLanes = 8;
    static constexpr unsigned kMaxPairs = 64;
    /// approx[k][i]: lane k's i-th approximate product.
    using Block = uint64_t[kLanes][kMaxPairs];

    /// `width` as for ErrorAccumulator.
    explicit LaneErrorAccumulator(int width);

    /// Adds `pairs` (at most kMaxPairs) pairs to each lane: lane k adds
    /// (a[k] * (b0 + i), approx[k][i]) for i = 0, 1, ..., pairs - 1, in that
    /// order. Every exact and approximate product must be below 2^53.
    void add_block(const uint64_t a[kLanes], uint64_t b0, const Block& approx,
                   unsigned pairs) noexcept;

    /// The two blocks behind add_block, callable directly so one machine can
    /// test both. add_block_avx512 returns false and adds nothing on a CPU
    /// (or build) without AVX-512F/DQ.
    void add_block_portable(const uint64_t a[kLanes], uint64_t b0, const Block& approx,
                            unsigned pairs) noexcept;
    bool add_block_avx512(const uint64_t a[kLanes], uint64_t b0, const Block& approx,
                          unsigned pairs) noexcept;

    /// "avx512" or "portable": the block add_block runs on this CPU.
    [[nodiscard]] static const char* block_name() noexcept;

    /// Lane k as the ErrorAccumulator that added lane k's pairs.
    [[nodiscard]] ErrorAccumulator lane(unsigned k) const noexcept;

    /// Per-lane state, ErrorAccumulator's fields one lane per slot.
    struct Lanes {
        double sum_red[kLanes] = {};
        double sum_ed[kLanes] = {};
        double sum_signed[kLanes] = {};
        double sum_sq[kLanes] = {};
        double max_red[kLanes] = {};
        uint64_t max_ed[kLanes] = {};
        uint64_t errors[kLanes] = {};
        uint64_t samples[kLanes] = {};
    };

private:
    void store(unsigned k, const ErrorAccumulator& acc) noexcept;

    ErrorAccumulator empty_;  ///< width and Pmax for lane()
    Lanes lanes_;
};

}  // namespace sdlc

#endif  // SDLC_ERROR_METRICS_H
