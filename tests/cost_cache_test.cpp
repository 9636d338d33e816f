// Tests for the content-keyed synthesis cache: structural hashing, memo
// behavior, and the determinism contract of cached sweeps (identical
// results cache on/off, cold/warm, at any thread count). Cache hit/miss
// counts are metrics read from CostCache::stats(); sweep exports never
// carry them, so a warm export equals the cold one byte for byte.
#include <gtest/gtest.h>

#include "api/approx_multiplier.h"
#include "dse/cost_cache.h"
#include "dse/evaluator.h"
#include "dse/export.h"
#include "dse/sweep.h"

namespace sdlc {
namespace {

Netlist build_net(const MultiplierConfig& cfg) {
    return ApproxMultiplier(cfg).build_netlist().net;
}

SweepSpec small_spec() {
    SweepSpec spec = SweepSpec::for_width(5);
    spec.schemes = {AccumulationScheme::kRowRipple, AccumulationScheme::kDadda};
    return spec;
}

void expect_same_hw(const std::vector<DesignPoint>& a, const std::vector<DesignPoint>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].hw == b[i].hw) << i << ": " << a[i].describe();
        EXPECT_EQ(a[i].error.nmed, b[i].error.nmed) << i;
    }
}

// --------------------------------------------------------- structural hash ----

TEST(StructuralHash, DeterministicForIdenticalConstruction) {
    const MultiplierConfig cfg{6, 2, MultiplierVariant::kSdlc};
    EXPECT_EQ(build_net(cfg).structural_hash(), build_net(cfg).structural_hash());
}

TEST(StructuralHash, DistinguishesConfigurations) {
    const uint64_t d2 = build_net({6, 2, MultiplierVariant::kSdlc}).structural_hash();
    const uint64_t d3 = build_net({6, 3, MultiplierVariant::kSdlc}).structural_hash();
    const uint64_t wallace =
        build_net({6, 2, MultiplierVariant::kSdlc, AccumulationScheme::kWallace})
            .structural_hash();
    EXPECT_NE(d2, d3);
    EXPECT_NE(d2, wallace);
}

TEST(StructuralHash, SensitiveToOutputsAndGates) {
    Netlist a;
    const NetId ia = a.input("x");
    a.mark_output(a.not_gate(ia), "y");
    Netlist b;
    const NetId ib = b.input("x");
    b.mark_output(b.buf_gate(ib), "y");
    EXPECT_NE(a.structural_hash(), b.structural_hash());
}

// --------------------------------------------------------------- CostCache ----

TEST(CostCache, SecondLookupIsAHit) {
    const Netlist net = build_net({5, 2, MultiplierVariant::kSdlc});
    const CellLibrary lib = CellLibrary::generic_90nm();
    const SynthesisOptions opts;
    CostCache cache;
    const SynthesisReport first = cache.get_or_synthesize(net, lib, opts);
    const SynthesisReport second = cache.get_or_synthesize(net, lib, opts);
    EXPECT_TRUE(first == second);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(CostCache, KeyDependsOnLibraryAndOptions) {
    const Netlist net = build_net({5, 2, MultiplierVariant::kSdlc});
    const CellLibrary lib = CellLibrary::generic_90nm();
    SynthesisOptions opts;
    const uint64_t base = CostCache::content_key(net, lib, opts);
    opts.clock_mhz *= 2;
    EXPECT_NE(CostCache::content_key(net, lib, opts), base);
    opts = SynthesisOptions{};
    EXPECT_NE(CostCache::content_key(net, lib.scaled(2.0, 1.0, 1.0), opts), base);
    EXPECT_EQ(CostCache::content_key(net, lib, opts), base);
}

TEST(CostCache, MatchesDirectSynthesis) {
    const Netlist net = build_net({5, 3, MultiplierVariant::kSdlc});
    const CellLibrary lib = CellLibrary::generic_90nm();
    const SynthesisOptions opts;
    CostCache cache;
    EXPECT_TRUE(cache.get_or_synthesize(net, lib, opts) == synthesize(net, lib, opts));
}

// ------------------------------------------------------------ cached sweeps ----

TEST(CachedSweep, CacheOnAndOffProduceIdenticalReports) {
    CostCache on_cache;
    CostCache off_cache;
    EvalOptions cached;
    cached.hw_cache = &on_cache;
    EvalOptions uncached;
    uncached.hw_cache = &off_cache;
    uncached.use_hw_cache = false;  // wins over a provided cache
    SweepStats cached_stats, uncached_stats;
    const auto a = evaluate_sweep(small_spec(), cached, &cached_stats);
    const auto b = evaluate_sweep(small_spec(), uncached, &uncached_stats);
    expect_same_hw(a, b);
    EXPECT_TRUE(cached_stats.hw_cache_enabled);
    EXPECT_FALSE(uncached_stats.hw_cache_enabled);
    EXPECT_EQ(on_cache.stats().hits + on_cache.stats().misses, a.size());
    EXPECT_EQ(off_cache.stats().hits + off_cache.stats().misses, 0u);
    EXPECT_EQ(off_cache.size(), 0u);
}

TEST(CachedSweep, WarmRunHitsForEveryPointAndReproduces) {
    CostCache cache;
    EvalOptions opts;
    opts.hw_cache = &cache;
    SweepStats cold, warm;
    const auto first = evaluate_sweep(small_spec(), opts, &cold);
    const CostCache::Stats after_cold = cache.stats();
    const auto second = evaluate_sweep(small_spec(), opts, &warm);
    const CostCache::Stats after_warm = cache.stats();
    expect_same_hw(first, second);
    // Two workers racing on one key may both miss, so a cold run can count
    // more misses than it memoizes — but never fewer.
    EXPECT_EQ(after_cold.hits + after_cold.misses, first.size());
    EXPECT_GE(after_cold.misses, cache.size());
    EXPECT_EQ(after_warm.hits - after_cold.hits, second.size()) << "warm run must be all hits";
    EXPECT_EQ(after_warm.misses, after_cold.misses);
    // The export is a pure function of the request: cache warmth shows up
    // in the raw counters above, never in the bytes.
    EXPECT_EQ(dse_to_json(first, {}, cold), dse_to_json(second, {}, warm));
}

TEST(CachedSweep, StatsAreThreadCountIndependent) {
    EvalOptions one;
    one.threads = 1;
    EvalOptions many;
    many.threads = 4;
    SweepStats s1, s4;
    const auto a = evaluate_sweep(small_spec(), one, &s1);
    const auto b = evaluate_sweep(small_spec(), many, &s4);
    EXPECT_EQ(s1.points, s4.points);
    EXPECT_EQ(dse_to_json(a, {}, s1), dse_to_json(b, {}, s4));
}

TEST(CachedSweep, ErrorOnlySweepCountsNoCacheTraffic) {
    CostCache cache;
    EvalOptions opts;
    opts.hw_cache = &cache;
    opts.evaluate_hardware = false;
    SweepStats stats;
    (void)evaluate_sweep(small_spec(), opts, &stats);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_EQ(cache.size(), 0u);
}

// ------------------------------------------------------------ JSON summary ----

TEST(ExportSummary, JsonCarriesCacheFlagButNoCounters) {
    SweepStats stats;
    const auto points = evaluate_sweep(small_spec(), EvalOptions{}, &stats);
    const std::string json = dse_to_json(points, {}, stats);
    EXPECT_NE(json.find("\"summary\""), std::string::npos);
    EXPECT_NE(json.find("\"hw_cache\": {\"enabled\": true}"), std::string::npos);
    EXPECT_NE(json.find("\"error_engines\""), std::string::npos);
    EXPECT_EQ(json.find("\"hits\""), std::string::npos);
    EXPECT_EQ(json.find("\"misses\""), std::string::npos);
    EXPECT_NE(json.find("\"points\""), std::string::npos);
}

}  // namespace
}  // namespace sdlc
