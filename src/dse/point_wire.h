// Bit-exact wire encoding of an evaluated DesignPoint.
//
// A sharded sweep streams evaluated points between processes; the merged
// export must be byte-identical to a single-node run, and the standard
// point events render doubles with "%.12g" — readable, but lossy. So a
// shard response carries each point's exact payload out of band: every
// field crosses the wire as fixed-width IEEE-754 / integer bit patterns,
// and the receiver reconstructs a DesignPoint that is indistinguishable
// from one evaluated locally.
//
// Format: "v1:" followed by 18 concatenated 16-hex-digit groups (one u64
// each, fixed layout, no separators):
//
//   [0]     config: width<<48 | depth<<32 | variant<<16 | scheme
//   [1..5]  error: mred, med, nmed, error_rate, max_red (double bits)
//   [6..7]  error: max_ed, samples
//   [8..9]  error: bias, rmse (double bits)
//   [10]    hw: cells
//   [11..12] hw: area_um2, delay_ps (double bits)
//   [13]    hw: depth
//   [14..17] hw: dynamic_energy_fj, dynamic_power_uw, leakage_nw,
//            energy_fj (double bits)
//
// Parsing is strict: exact length, lowercase hex only, and the config
// fields must name a real variant/scheme — a corrupted blob is rejected,
// never half-decoded.
#ifndef SDLC_DSE_POINT_WIRE_H
#define SDLC_DSE_POINT_WIRE_H

#include <string>

#include "dse/evaluator.h"

namespace sdlc {

/// `point` as the fixed-layout hex blob described in the file comment.
[[nodiscard]] std::string design_point_bits(const DesignPoint& point);

/// Decodes design_point_bits() output. Returns false (with a message in
/// *error when non-null) on anything malformed; `out` is untouched then.
[[nodiscard]] bool parse_design_point_bits(const std::string& blob, DesignPoint& out,
                                           std::string* error = nullptr);

}  // namespace sdlc

#endif  // SDLC_DSE_POINT_WIRE_H
