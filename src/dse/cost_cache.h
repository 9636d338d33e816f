// Content-keyed synthesis cache for design-space sweeps.
//
// Virtual synthesis (optimize -> STA -> power) is deterministic: the report
// is a pure function of the netlist structure, the cell library and the
// synthesis options. CostCache memoizes that function under the 64-bit
// content key structural_hash(netlist) combined with
// synthesis_fingerprint(library, options), so design points that lower to
// the same hardware — and repeated sweeps over the same space (warm
// service loops, thread-scaling benches, --repeat runs) — pay for synthesis
// once.
//
// Thread safety: lookups and inserts are mutex-protected; the synthesis
// itself runs outside the lock. Two workers racing on the same key may
// both synthesize, but they produce the identical report (determinism
// above), so the second insert is a no-op and results never depend on
// scheduling. The raw hit/miss counters *can* depend on scheduling for the
// same reason, so they are metrics (service stats, Prometheus, tool
// summaries) and never part of a sweep's export.
#ifndef SDLC_DSE_COST_CACHE_H
#define SDLC_DSE_COST_CACHE_H

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "netlist/netlist.h"
#include "tech/cell_library.h"
#include "tech/synthesis.h"

namespace sdlc {

/// Thread-safe memo from content key to SynthesisReport.
class CostCache {
public:
    CostCache() = default;
    CostCache(const CostCache&) = delete;
    CostCache& operator=(const CostCache&) = delete;

    /// The content key get_or_synthesize() uses for this request.
    [[nodiscard]] static uint64_t content_key(const Netlist& net, const CellLibrary& lib,
                                              const SynthesisOptions& opts) noexcept;

    /// Returns the cached report for the request's content key, or runs
    /// synthesize() and memoizes the result. Either way the report is
    /// bit-identical to synthesize(net, lib, opts).
    [[nodiscard]] SynthesisReport get_or_synthesize(const Netlist& net, const CellLibrary& lib,
                                                    const SynthesisOptions& opts);

    /// Raw access counters (see file comment for their determinism caveat).
    struct Stats {
        uint64_t hits = 0;
        uint64_t misses = 0;
    };
    [[nodiscard]] Stats stats() const;

    /// Number of distinct memoized designs.
    [[nodiscard]] size_t size() const;

    /// Drops all entries and zeroes the counters.
    void clear();

private:
    mutable std::mutex mutex_;
    std::unordered_map<uint64_t, SynthesisReport> reports_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

}  // namespace sdlc

#endif  // SDLC_DSE_COST_CACHE_H
