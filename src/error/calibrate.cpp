#include "error/calibrate.h"

#include <algorithm>
#include <chrono>

#include "core/kernels.h"
#include "core/kernels_sliced.h"
#include "error/evaluate.h"
#include "error/evaluate_sliced.h"

namespace sdlc {

namespace {

/// ns/op of one exhaustive sweep at `width` (best of two runs, so a
/// scheduler hiccup in the first pass doesn't skew the cutoff).
template <typename SweepFn>
double time_sweep_ns(int width, SweepFn&& sweep) {
    const double pairs = static_cast<double>((uint64_t{1} << width) * (uint64_t{1} << width));
    double best = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        sweep();
        const double ns =
            std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
                .count() /
            pairs;
        if (rep == 0 || ns < best) best = ns;
    }
    return best;
}

double time_scalar_ns(const MultiplierConfig& config) {
    const MultiplyKernel kernel(config);
    volatile uint64_t sink = 0;
    const double ns = time_sweep_ns(config.width, [&] {
        const ErrorMetrics m = exhaustive_metrics(
            config.width, [&](uint64_t a, uint64_t b) { return kernel(a, b); });
        sink = sink + m.samples;
    });
    return ns;
}

}  // namespace

EngineCalibration measure_engine_calibration() {
    EngineCalibration cal;
    // Width 8 (65536 pairs) is big enough to be accumulator-dominated like
    // a real sweep and small enough to keep the whole calibration in the
    // tens of milliseconds.
    cal.accurate_ns = time_scalar_ns({8, 1, MultiplierVariant::kAccurate});
    cal.fast2_ns = time_scalar_ns({8, 2, MultiplierVariant::kSdlc});
    cal.planned_ns = time_scalar_ns({8, 3, MultiplierVariant::kSdlc});
    // The sliced engine amortizes per-a preparation over side/64 blocks, so
    // measure at width 10 where the amortization resembles the widths the
    // cutoff actually gates.
    const SlicedMultiplyKernel sliced({10, 3, MultiplierVariant::kSdlc});
    volatile uint64_t sink = 0;
    cal.sliced_ns = time_sweep_ns(10, [&] {
        const ErrorMetrics m = exhaustive_metrics_sliced(sliced);
        sink = sink + m.samples;
    });
    return cal;
}

const EngineCalibration& engine_calibration() {
    static const EngineCalibration cal = measure_engine_calibration();
    return cal;
}

namespace {

int budget_width(double ns_per_op, int floor_width, double budget_ms) {
    int w = floor_width;
    for (int cand = floor_width + 1; cand <= kMaxExhaustiveWidth; ++cand) {
        const double pairs = static_cast<double>((uint64_t{1} << cand) * (uint64_t{1} << cand));
        if (ns_per_op <= 0.0 || pairs * ns_per_op > budget_ms * 1e6) break;
        w = cand;
    }
    return w;
}

}  // namespace

ExhaustiveCutoffs resolve_exhaustive_cutoffs(const EngineCalibration& cal, int floor_width,
                                             double budget_ms) {
    ExhaustiveCutoffs c;
    c.accurate = budget_width(cal.accurate_ns, floor_width, budget_ms);
    c.fast2 = budget_width(cal.fast2_ns, floor_width, budget_ms);
    c.planned = budget_width(cal.planned_ns, floor_width, budget_ms);
    c.sliced = budget_width(cal.sliced_ns, floor_width, budget_ms);
    return c;
}

}  // namespace sdlc
