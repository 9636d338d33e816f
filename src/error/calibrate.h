// Per-process calibration of the exhaustive error engine, feeding the
// exhaustive-vs-sampled cutoff.
//
// A fixed cutoff samples widths whose full sweep would cost only
// milliseconds. Instead the sliced engine (the one exhaustive engine) is
// timed once per process (one small exhaustive sweep, ~10 ms) and the
// cutoff is the largest width whose full sweep fits a per-point time
// budget. Resolution is a pure function of (calibration, floor, budget) —
// the measured rate varies per machine, so callers that need
// reproducibility across processes (the serve protocol, distributed
// sweeps) resolve once at the edge and ship the resolved width.
#ifndef SDLC_ERROR_CALIBRATE_H
#define SDLC_ERROR_CALIBRATE_H

#include "core/kernels_sliced.h"

namespace sdlc {

/// Measured exhaustive-evaluation cost per operand pair.
struct EngineCalibration {
    double sliced_ns = 0.0;  ///< sliced engine: kernel and accumulator, per pair
};

/// Times a small exhaustive sweep on the sliced engine and returns its
/// ns/op. Costs ~10 ms; call once and reuse (see engine_calibration()).
[[nodiscard]] EngineCalibration measure_engine_calibration();

/// The process-wide calibration, measured lazily on first use.
[[nodiscard]] const EngineCalibration& engine_calibration();

/// Widest exhaustive cutoff, the clamp of resolve_exhaustive_cutoff: the
/// widest operand the sliced engine evaluates, so the tool and protocol
/// edges reject any wider cutoff. One exhaustive point at this width is
/// 2^32 operand pairs; cancel and deadline stop it within one step of 8
/// stripes.
inline constexpr int kMaxExhaustiveWidth = SlicedMultiplyKernel::kMaxWidth;

/// Per-point time budget the tools and the service resolve the cutoff
/// against.
inline constexpr double kExhaustiveBudgetMs = 2000.0;

/// Largest width whose full 4^width-pair sweep fits `budget_ms` at the
/// calibrated rate, clamped to [floor_width, kMaxExhaustiveWidth]. Never
/// demotes below the floor (the fixed cutoff), so auto resolution only
/// ever promotes configs that the fixed cutoff would have sampled. Pure:
/// same inputs, same result.
[[nodiscard]] int resolve_exhaustive_cutoff(const EngineCalibration& cal, int floor_width,
                                            double budget_ms);

}  // namespace sdlc

#endif  // SDLC_ERROR_CALIBRATE_H
