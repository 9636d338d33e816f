#include "error/calibrate.h"

#include <chrono>

#include "error/evaluate_sliced.h"

namespace sdlc {

EngineCalibration measure_engine_calibration() {
    // The sliced engine amortizes per-a preparation over side/64 blocks, so
    // measure at width 10 where the amortization resembles the widths the
    // cutoff actually gates. Best of two runs, so a scheduler hiccup in the
    // first pass doesn't skew the cutoff.
    constexpr int kWidth = 10;
    const SlicedMultiplyKernel sliced({kWidth, 3, MultiplierVariant::kSdlc});
    const double pairs = static_cast<double>((uint64_t{1} << kWidth) * (uint64_t{1} << kWidth));
    EngineCalibration cal;
    volatile uint64_t sink = 0;
    for (int rep = 0; rep < 2; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        sink = sink + exhaustive_metrics_sliced(sliced).samples;
        const double ns =
            std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
                .count() /
            pairs;
        if (rep == 0 || ns < cal.sliced_ns) cal.sliced_ns = ns;
    }
    return cal;
}

const EngineCalibration& engine_calibration() {
    static const EngineCalibration cal = measure_engine_calibration();
    return cal;
}

int resolve_exhaustive_cutoff(const EngineCalibration& cal, int floor_width, double budget_ms) {
    int w = floor_width;
    for (int cand = floor_width + 1; cand <= kMaxExhaustiveWidth; ++cand) {
        const double pairs = static_cast<double>((uint64_t{1} << cand) * (uint64_t{1} << cand));
        if (cal.sliced_ns <= 0.0 || pairs * cal.sliced_ns > budget_ms * 1e6) break;
        w = cand;
    }
    return w;
}

}  // namespace sdlc
