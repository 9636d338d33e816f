// Result export for DSE sweeps: CSV (one row per point) and JSON (an array
// of point objects). Numeric formatting is fixed ("%.12g") so that two runs
// producing bit-identical doubles also produce byte-identical files — the
// property the determinism tests and the CLI's --threads invariance rely on.
#ifndef SDLC_DSE_EXPORT_H
#define SDLC_DSE_EXPORT_H

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "dse/evaluator.h"

namespace sdlc {

/// CSV header used by write_dse_csv, exposed for tests and consumers.
[[nodiscard]] std::vector<std::string> dse_csv_header();

/// One point as CSV cells, in dse_csv_header() order. `rank` < 0 prints as
/// an empty cell (rank unknown / not computed).
[[nodiscard]] std::vector<std::string> dse_csv_row(const DesignPoint& p, int rank);

/// Writes header + one row per point. `ranks` may be empty (no rank column
/// values) or must match points.size(). Throws std::runtime_error on I/O
/// failure, std::invalid_argument on a size mismatch.
void write_dse_csv(const std::string& path, const std::vector<DesignPoint>& points,
                   const std::vector<int>& ranks = {});

/// One point as a single-line JSON object {"config": ..., "rank": ...,
/// "error": ..., "hw": ...} (rank < 0 emits null). The serve protocol's
/// `point` events embed exactly this string and dse_to_json() emits one per
/// array row, so a streamed point and its exported row are byte-identical.
[[nodiscard]] std::string dse_point_json(const DesignPoint& p, int rank);

/// Renders points as a JSON array string (same rank convention as CSV;
/// rank < 0 is emitted as null).
[[nodiscard]] std::string dse_to_json(const std::vector<DesignPoint>& points,
                                      const std::vector<int>& ranks = {});

/// With sweep stats: renders an object {"summary": {...}, "points": [...]}
/// whose summary carries the point count, the frontier objective set the
/// ranks were computed over, whether the hardware cache was on, and the
/// error-engine tally with its cutoff policy. Everything in it is a pure
/// function of the request: wall time and cache hit/miss counts are left
/// out, so two identical sweeps produce byte-identical files however warm
/// the cache was.
[[nodiscard]] std::string dse_to_json(const std::vector<DesignPoint>& points,
                                      const std::vector<int>& ranks, const SweepStats& stats,
                                      const ObjectiveSet& objectives = default_objectives());

/// Streams the summary-wrapped export in syntactic pieces (summary header,
/// one piece per point row, closing brackets), in order, to `emit`.
/// Concatenating every piece yields byte-for-byte the dse_to_json()
/// overload above — that overload is implemented on top of this one — but
/// the caller never needs the whole document in memory at once: peak
/// transient is one row, which is what lets the serve layer chunk a
/// width-12+ export with O(chunk) buffering. Throws std::invalid_argument
/// on a ranks/points size mismatch.
void dse_json_stream(const std::vector<DesignPoint>& points, const std::vector<int>& ranks,
                     const SweepStats& stats, const ObjectiveSet& objectives,
                     const std::function<void(std::string_view)>& emit);

/// Writes dse_to_json() to `path`. Throws std::runtime_error on I/O failure.
void write_dse_json(const std::string& path, const std::vector<DesignPoint>& points,
                    const std::vector<int>& ranks = {});

/// Writes the summary-wrapped form to `path`.
void write_dse_json(const std::string& path, const std::vector<DesignPoint>& points,
                    const std::vector<int>& ranks, const SweepStats& stats,
                    const ObjectiveSet& objectives = default_objectives());

}  // namespace sdlc

#endif  // SDLC_DSE_EXPORT_H
