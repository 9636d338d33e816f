// Two no-ops kept for perfbench/replay.cpp, which still calls them: the
// exhaustive cutoff is EvalOptions::exhaustive_max_width alone
// (dse/evaluator.h) and nothing is timed. Delete this header together with
// those calls in the next change to perfbench/.
#ifndef SDLC_ERROR_CALIBRATE_H
#define SDLC_ERROR_CALIBRATE_H

namespace sdlc {

struct EvalOptions;
struct SweepSpec;

/// No-op: nothing is timed any more.
inline void measure_engine_calibration() {}

/// No-op: the cutoff in `opts` is already the one the sweep uses.
inline void apply_auto_exhaustive(EvalOptions& /*opts*/, const SweepSpec& /*spec*/,
                                  double /*budget_ms*/) {}

}  // namespace sdlc

#endif  // SDLC_ERROR_CALIBRATE_H
