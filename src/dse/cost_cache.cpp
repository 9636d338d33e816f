#include "dse/cost_cache.h"

#include "obs/trace.h"

namespace sdlc {

uint64_t CostCache::content_key(const Netlist& net, const CellLibrary& lib,
                                const SynthesisOptions& opts) noexcept {
    // Rotate-xor combine: the two halves are independently avalanched
    // hashes, so a cheap combiner keeps the full 64 bits of spread.
    const uint64_t a = net.structural_hash();
    const uint64_t b = synthesis_fingerprint(lib, opts);
    return a ^ (b << 1 | b >> 63);
}

SynthesisReport CostCache::get_or_synthesize(const Netlist& net, const CellLibrary& lib,
                                             const SynthesisOptions& opts) {
    // Spans ride the thread-local trace binding installed by the eval
    // worker: the shared cache never needs a recorder in its interface.
    const obs::TraceBinding& tb = obs::current_binding();
    const uint64_t key = content_key(net, lib, opts);
    {
        obs::ScopedSpan lookup_span(tb.recorder, tb.ctx, "cache_lookup_local");
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = reports_.find(key);
        if (it != reports_.end()) {
            ++hits_;
            return it->second;
        }
        ++misses_;
    }
    // Synthesize outside the lock: concurrent misses on the same key do
    // redundant work but produce the identical (deterministic) report.
    obs::ScopedSpan synth_span(tb.recorder, tb.ctx, "synthesize");
    const SynthesisReport report = synthesize(net, lib, opts);
    synth_span.stop();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        reports_.emplace(key, report);
    }
    return report;
}

CostCache::Stats CostCache::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {hits_, misses_};
}

size_t CostCache::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return reports_.size();
}

void CostCache::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    reports_.clear();
    hits_ = 0;
    misses_ = 0;
}

}  // namespace sdlc
