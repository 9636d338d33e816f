// Per-process calibration of the error-engine throughput, feeding the
// exhaustive-vs-sampled cutoff heuristic.
//
// The old cutoff was one hard-coded width regardless of kernel path, so an
// accurate/depth-1 config (~3 ns/op) sampled at width 11 even though its
// full 2^22-pair sweep costs milliseconds. Instead we measure each engine's
// ns/op once per process (a few small exhaustive sweeps, ~10-30 ms total)
// and pick, per path, the largest width whose full sweep fits a time
// budget. Resolution is a pure function of (calibration, floor, budget) —
// the measured numbers vary per machine, so callers that need
// reproducibility across processes (the serve protocol, distributed
// sweeps) resolve once at the edge and ship the resolved widths.
#ifndef SDLC_ERROR_CALIBRATE_H
#define SDLC_ERROR_CALIBRATE_H

#include <string>

#include "core/kernels_sliced.h"

namespace sdlc {

/// Measured exhaustive-evaluation cost per operand pair, by kernel path.
struct EngineCalibration {
    double accurate_ns = 0.0;  ///< accurate / depth-1 bit-trick kernel
    double fast2_ns = 0.0;     ///< sdlc depth-2 closed-form kernel
    double planned_ns = 0.0;   ///< strength-reduced planned path (scalar)
    double sliced_ns = 0.0;    ///< bit-sliced engine (64 lanes per op)
};

/// Times small exhaustive sweeps on each path and returns ns/op figures.
/// Costs ~10-30 ms; call once and reuse (see engine_calibration()).
[[nodiscard]] EngineCalibration measure_engine_calibration();

/// The process-wide calibration, measured lazily on first use.
[[nodiscard]] const EngineCalibration& engine_calibration();

/// Widest exhaustive cutoff, the clamp of resolve_exhaustive_cutoffs: the
/// widest operand the sliced engine evaluates. One exhaustive point at this
/// width is 2^32 operand pairs; cancel and deadline cannot interrupt a
/// point, so the tool and protocol edges reject any wider cutoff.
inline constexpr int kMaxExhaustiveWidth = SlicedMultiplyKernel::kMaxWidth;

/// Exhaustive cutoff widths per kernel path: exhaustive evaluation runs at
/// or below the path's width, Monte-Carlo sampling above it.
struct ExhaustiveCutoffs {
    int accurate = 0;
    int fast2 = 0;
    int planned = 0;
    int sliced = 0;
};

/// Largest width per path whose full 4^width-pair sweep fits `budget_ms`,
/// clamped to [floor_width, kMaxExhaustiveWidth]. Never demotes below the
/// floor (the historical fixed cutoff), so auto resolution only ever
/// promotes configs that the fixed cutoff would have sampled. Pure: same
/// inputs, same result.
[[nodiscard]] ExhaustiveCutoffs resolve_exhaustive_cutoffs(const EngineCalibration& cal,
                                                           int floor_width,
                                                           double budget_ms);

}  // namespace sdlc

#endif  // SDLC_ERROR_CALIBRATE_H
