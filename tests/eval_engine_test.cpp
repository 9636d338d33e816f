// Error-engine policy and threading-contract tests.
//
// Two regressions pinned here, both fixed in the same change as the
// bit-sliced engine:
//
//   1. Thread explosion: exhaustive_metrics() used to spawn
//      hardware_concurrency() raw std::threads on EVERY call. A resident
//      service evaluating hundreds of exhaustive points per request
//      multiplied that into hundreds of short-lived threads, all fighting
//      the service's own ThreadPool. The contract now: default calls run
//      inline, a provided ThreadPool is sharded over, and dedicated
//      threads appear only for an explicit max_threads > 1.
//
//   2. The hard-coded exhaustive-vs-sampled cutoff: one width whatever
//      the engine costs, so points whose full sweep takes milliseconds
//      were sampled. The cutoff is now resolved from the sliced engine's
//      measured rate under a time budget; resolution is pure, only ever
//      promotes, and pinned requests (a resolved width, 0 included)
//      bypass it entirely.
//
// The policy functions (select_error_engine, resolve_exhaustive_cutoff,
// describe_exhaustive_cutoffs, apply_auto_exhaustive, tally_error_engines)
// are pure, so they are tested with injected calibrations — no timing
// dependence. The sliced engine is the only exhaustive engine
// evaluate_sweep runs, so every default grid at widths 2..8 and 10 is
// also checked against the scalar exhaustive_metrics reference bit for
// bit.
//
// The last section pins that each error function is evaluated once:
// evaluate_sweep groups a sweep's points by (width, variant, depth) for
// the exhaustive engines, one group per sampled point, and the grouping
// changes nothing observable — every point equals a per-point
// evaluate_point bit for bit (design_point_bits) at any thread count or
// shard slice, and the stream stays a strict prefix under cancellation.
// Exact kernels skip evaluation with the metrics the engines would give.
// Cancel and deadline also stop a single exhaustive point mid-flight.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/approx_multiplier.h"
#include "core/kernels.h"
#include "core/kernels_sliced.h"
#include "dse/evaluator.h"
#include "dse/point_wire.h"
#include "dse/sweep.h"
#include "error/calibrate.h"
#include "error/evaluate.h"
#include "error/evaluate_sliced.h"
#include "serve/service.h"
#include "serve/sink.h"
#include "util/thread_pool.h"

namespace sdlc {
namespace {

// ---------------------------------------------------- threading contract ----

/// Current thread count of this process (Linux: /proc/self/status).
unsigned count_threads() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0) {
            return static_cast<unsigned>(std::stoul(line.substr(8)));
        }
    }
    ADD_FAILURE() << "could not read Threads: from /proc/self/status";
    return 0;
}

MultiplierConfig sdlc_config(int width, int depth) {
    MultiplierConfig cfg;
    cfg.width = width;
    cfg.depth = depth;
    cfg.variant = MultiplierVariant::kSdlc;
    return cfg;
}

TEST(EvalThreading, DefaultCallsSpawnNoThreads) {
    // The regression: a default (max_threads = 0) exhaustive evaluation
    // must run inline. Run a batch of them on a single pool worker while
    // the main thread samples the process thread count — under the old
    // per-call std::thread spawning the count visibly exceeds the
    // baseline; under the contract it can never move.
    const MultiplierConfig config = sdlc_config(8, 3);
    const MultiplyKernel scalar(config);
    const SlicedMultiplyKernel sliced(config);

    ThreadPool pool(1);
    const unsigned baseline = count_threads();
    std::atomic<bool> running{true};
    pool.submit([&] {
        for (int i = 0; i < 50; ++i) {
            (void)exhaustive_metrics(config.width,
                                     [&](uint64_t a, uint64_t b) { return scalar(a, b); });
            (void)exhaustive_metrics_sliced(sliced);
        }
        running.store(false);
    });
    unsigned max_seen = 0;
    while (running.load()) max_seen = std::max(max_seen, count_threads());
    pool.wait_idle();
    EXPECT_LE(max_seen, baseline) << "default exhaustive evaluation spawned threads";
    EXPECT_EQ(count_threads(), baseline);
}

TEST(EvalThreading, PoolShardingIdenticalAndExplicitThreadsStillWork) {
    const MultiplierConfig config = sdlc_config(7, 2);
    const MultiplyKernel kernel(config);
    const auto f = [&kernel](uint64_t a, uint64_t b) { return kernel(a, b); };

    const ErrorMetrics inline_m = exhaustive_metrics(config.width, f);
    ThreadPool pool(3);
    EXPECT_EQ(exhaustive_metrics(config.width, f, 0, &pool), inline_m);
    // Explicit worker counts are the CLI escape hatch; still bit-identical.
    EXPECT_EQ(exhaustive_metrics(config.width, f, 4), inline_m);
    EXPECT_EQ(exhaustive_metrics(config.width, f, 1), inline_m);
}

TEST(EvalThreading, ServiceThreadCountBoundedUnderConcurrentRequests) {
    // Service level: total threads = request workers + pool workers, fixed
    // at construction; concurrent exhaustive sweep requests must not grow
    // it. With the old per-call spawning, every one of the ~30 exhaustive
    // points below would briefly add threads.
    using serve::ResponseSink;
    class DoneSink final : public ResponseSink {
    public:
        void write_line(const std::string& line) override {
            if (line.find("\"event\": \"done\"") != std::string::npos) done.store(true);
        }
        std::atomic<bool> done{false};
    };

    serve::ServiceOptions opts;
    opts.eval_threads = 2;
    opts.request_workers = 2;
    serve::SweepService service(opts);
    const unsigned baseline = count_threads();

    std::vector<std::shared_ptr<DoneSink>> sinks;
    for (int i = 0; i < 6; ++i) {
        auto sink = std::make_shared<DoneSink>();
        std::ostringstream line;
        line << "{\"id\": \"t" << i
             << "\", \"spec\": {\"width\": 6, \"variants\": [\"sdlc\"], "
                "\"schemes\": [\"ripple\"]}}";
        ASSERT_TRUE(service.submit_line(line.str(), sink));
        sinks.push_back(std::move(sink));
    }
    unsigned max_seen = 0;
    auto all_done = [&] {
        for (const auto& sink : sinks) {
            if (!sink->done.load()) return false;
        }
        return true;
    };
    while (!all_done()) max_seen = std::max(max_seen, count_threads());
    EXPECT_LE(max_seen, baseline) << "service spawned per-request threads";
    service.shutdown();
}

// ------------------------------------------------------ cutoff resolution ----

TEST(CutoffResolution, BudgetWidthFromTheSlicedRate) {
    // Injected calibration, 1 s budget: cutoff = largest width whose full
    // 4^w-pair sweep fits the budget at the measured rate.
    EngineCalibration cal;
    cal.sliced_ns = 0.25;  // 4^15 fits 4e9 ops, 4^16 does not
    EXPECT_EQ(resolve_exhaustive_cutoff(cal, 10, 1000.0), 15);
    cal.sliced_ns = 1.0;  // 4^14 = 2.7e8 ops fits 1e9 ns, 4^15 does not
    EXPECT_EQ(resolve_exhaustive_cutoff(cal, 10, 1000.0), 14);
    cal.sliced_ns = 4.0;  // 4^13 fits a 2.5e8-op budget
    EXPECT_EQ(resolve_exhaustive_cutoff(cal, 10, 1000.0), 13);
    // The floor is where promotion starts: a floor above the budget width
    // stays put.
    EXPECT_EQ(resolve_exhaustive_cutoff(cal, 14, 1000.0), 14);

    // Pure: same inputs, same result.
    EXPECT_EQ(resolve_exhaustive_cutoff(cal, 10, 1000.0),
              resolve_exhaustive_cutoff(cal, 10, 1000.0));
}

TEST(CutoffResolution, NeverDemotesAndClampsTo16) {
    EngineCalibration cal;
    cal.sliced_ns = 1e9;  // absurdly slow: stays at the floor
    EXPECT_EQ(resolve_exhaustive_cutoff(cal, 10, 2000.0), 10);
    cal.sliced_ns = 1e-9;  // absurdly fast: clamps at width 16
    EXPECT_EQ(resolve_exhaustive_cutoff(cal, 10, 2000.0), kMaxExhaustiveWidth);
    EXPECT_EQ(kMaxExhaustiveWidth, 16);
    cal.sliced_ns = 0.0;  // unmeasured: stays at the floor
    EXPECT_EQ(resolve_exhaustive_cutoff(cal, 10, 2000.0), 10);
    cal.sliced_ns = -1.0;  // nonsense: stays at the floor
    EXPECT_EQ(resolve_exhaustive_cutoff(cal, 10, 2000.0), 10);

    // A zero budget cannot demote below the floor either, 0 included.
    cal.sliced_ns = 1.0;
    EXPECT_EQ(resolve_exhaustive_cutoff(cal, 12, 0.0), 12);
    EXPECT_EQ(resolve_exhaustive_cutoff(cal, 0, 0.0), 0);
}

TEST(CutoffResolution, MeasuredCalibrationIsSane) {
    // The real measurement: a positive rate of a few ns per pair (64 lanes
    // per bitwise op); 1 us per pair would mean a broken measurement.
    const EngineCalibration& cal = engine_calibration();
    EXPECT_GT(cal.sliced_ns, 0.0);
    EXPECT_LT(cal.sliced_ns, 1000.0);
    // Lazy singleton: same object, no re-measurement.
    EXPECT_EQ(&engine_calibration(), &cal);
}

// -------------------------------------------------------- engine selection ----

MultiplierConfig make_config(int width, int depth, MultiplierVariant variant) {
    MultiplierConfig cfg;
    cfg.width = width;
    cfg.depth = depth;
    cfg.variant = variant;
    return cfg;
}

TEST(EngineSelection, DefaultsFollowFixedCutoff) {
    const EvalOptions opts;  // exhaustive_max_width = 10, unresolved
    EXPECT_EQ(opts.exhaustive_cutoff(), 10);
    EXPECT_EQ(select_error_engine(make_config(8, 3, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kExhaustiveSliced);
    EXPECT_EQ(select_error_engine(make_config(10, 2, MultiplierVariant::kCompensated), opts),
              ErrorEngine::kExhaustiveSliced);
    // Not sliced-eligible: an exact config, answered without an engine.
    EXPECT_EQ(select_error_engine(make_config(8, 2, MultiplierVariant::kAccurate), opts),
              ErrorEngine::kExhaustiveScalar);
    EXPECT_EQ(select_error_engine(make_config(8, 1, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kExhaustiveScalar);
    // Above the cutoff: sampled, exact or not.
    EXPECT_EQ(select_error_engine(make_config(12, 3, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kSampled);
    EXPECT_EQ(select_error_engine(make_config(12, 2, MultiplierVariant::kAccurate), opts),
              ErrorEngine::kSampled);
}

TEST(EngineSelection, ResolvedCutoffReplacesTheFixedOne) {
    EvalOptions opts;
    opts.resolved_exhaustive_width = 14;
    EXPECT_EQ(opts.exhaustive_cutoff(), 14);
    EXPECT_EQ(select_error_engine(make_config(14, 2, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kExhaustiveSliced);
    EXPECT_EQ(select_error_engine(make_config(14, 5, MultiplierVariant::kCompensated), opts),
              ErrorEngine::kExhaustiveSliced);
    EXPECT_EQ(select_error_engine(make_config(14, 2, MultiplierVariant::kAccurate), opts),
              ErrorEngine::kExhaustiveScalar);
    EXPECT_EQ(select_error_engine(make_config(15, 3, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kSampled);
    EXPECT_EQ(select_error_engine(make_config(15, 2, MultiplierVariant::kAccurate), opts),
              ErrorEngine::kSampled);

    // A resolved 0 is a width, not "unresolved": it pins sampling for
    // every point, below the fixed cutoff too.
    opts.resolved_exhaustive_width = 0;
    EXPECT_EQ(opts.exhaustive_cutoff(), 0);
    EXPECT_EQ(select_error_engine(make_config(2, 2, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kSampled);
    EXPECT_EQ(select_error_engine(make_config(6, 1, MultiplierVariant::kAccurate), opts),
              ErrorEngine::kSampled);

    // Unresolving falls back to the fixed cutoff.
    opts.resolved_exhaustive_width = -1;
    opts.exhaustive_max_width = 6;
    EXPECT_EQ(select_error_engine(make_config(6, 3, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kExhaustiveSliced);
    EXPECT_EQ(select_error_engine(make_config(7, 3, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kSampled);
}

TEST(EngineSelection, UnbuildableConfigStillThrows) {
    // depth > width is neither exact nor sliced-eligible: no engine can
    // evaluate it, and evaluation says so instead of returning metrics.
    EvalOptions opts;
    opts.evaluate_hardware = false;
    const MultiplierConfig config = make_config(4, 6, MultiplierVariant::kSdlc);
    EXPECT_EQ(select_error_engine(config, opts), ErrorEngine::kExhaustiveScalar);
    EXPECT_THROW((void)evaluate_point(config, opts), std::invalid_argument);
    opts.exhaustive_max_width = 2;  // above the cutoff: the sampled path
    EXPECT_THROW((void)evaluate_point(config, opts), std::invalid_argument);
}

TEST(EngineSelection, DescribeCutoffs) {
    EvalOptions opts;
    EXPECT_EQ(describe_exhaustive_cutoffs(opts), "fixed(10)");
    opts.exhaustive_max_width = 8;
    EXPECT_EQ(describe_exhaustive_cutoffs(opts), "fixed(8)");
    opts.exhaustive_max_width = 0;
    EXPECT_EQ(describe_exhaustive_cutoffs(opts), "fixed(0)");
    opts.resolved_exhaustive_width = 13;
    EXPECT_EQ(describe_exhaustive_cutoffs(opts), "auto(13)");
    opts.resolved_exhaustive_width = 0;
    EXPECT_EQ(describe_exhaustive_cutoffs(opts), "auto(0)");
}

TEST(EngineSelection, ApplyAutoExhaustiveGating) {
    // Pinned requests (a resolved width, 0 included) are left untouched:
    // the submitter already resolved or fixed the cutoff.
    SweepSpec wide;
    wide.widths = {12};
    for (const int width : {11, 0}) {
        EvalOptions pinned;
        pinned.resolved_exhaustive_width = width;
        apply_auto_exhaustive(pinned, wide, 2000.0);
        EXPECT_EQ(pinned.resolved_exhaustive_width, width);
        EXPECT_EQ(describe_exhaustive_cutoffs(pinned), "auto(" + std::to_string(width) + ")");
    }

    // Sweeps entirely at or below the fixed cutoff: no-op (and no
    // calibration cost) — promotion could not change any engine choice.
    SweepSpec small;
    small.widths = {4, 8};
    EvalOptions untouched;
    apply_auto_exhaustive(untouched, small, 2000.0);
    EXPECT_EQ(untouched.resolved_exhaustive_width, -1);
    EXPECT_EQ(describe_exhaustive_cutoffs(untouched), "fixed(10)");

    // A sweep above the cutoff resolves from the process calibration;
    // never below the floor (auto only promotes), never above 16.
    EvalOptions resolved;
    apply_auto_exhaustive(resolved, wide, 1000.0);
    EXPECT_EQ(resolved.resolved_exhaustive_width,
              resolve_exhaustive_cutoff(engine_calibration(), 10, 1000.0));
    EXPECT_GE(resolved.resolved_exhaustive_width, resolved.exhaustive_max_width);
    EXPECT_LE(resolved.resolved_exhaustive_width, kMaxExhaustiveWidth);
    EXPECT_EQ(describe_exhaustive_cutoffs(resolved),
              "auto(" + std::to_string(resolved.resolved_exhaustive_width) + ")");
}

TEST(EngineSelection, TallyMatchesSelection) {
    SweepSpec spec;
    spec.widths = {6};
    const std::vector<MultiplierConfig> configs = spec.enumerate();
    const EvalOptions opts;
    const ErrorEngineTally tally = tally_error_engines(configs, opts);
    size_t sliced = 0, scalar = 0, sampled = 0;
    for (const MultiplierConfig& c : configs) {
        switch (select_error_engine(c, opts)) {
            case ErrorEngine::kExhaustiveSliced: ++sliced; break;
            case ErrorEngine::kExhaustiveScalar: ++scalar; break;
            case ErrorEngine::kSampled: ++sampled; break;
        }
    }
    EXPECT_EQ(tally.sliced, sliced);
    EXPECT_EQ(tally.scalar, scalar);
    EXPECT_EQ(tally.sampled, sampled);
    EXPECT_EQ(tally.sliced + tally.scalar + tally.sampled, configs.size());
    // Width-6 grid: every approximate config is sliced, every accurate
    // one scalar, nothing sampled.
    EXPECT_EQ(tally.sampled, 0u);
    EXPECT_EQ(tally.scalar, 4u);  // accurate x 4 schemes

    EXPECT_STREQ(error_engine_name(ErrorEngine::kExhaustiveSliced), "sliced");
    EXPECT_STREQ(error_engine_name(ErrorEngine::kExhaustiveScalar), "scalar");
    EXPECT_STREQ(error_engine_name(ErrorEngine::kSampled), "sampled");
}

// ---------------------------------------------- each error function once ----

/// The bit-exact rendering of an error result (every double by its bits).
std::string error_bits(const MultiplierConfig& config, const ErrorMetrics& error) {
    DesignPoint point;
    point.config = config;
    point.error = error;
    return design_point_bits(point);
}

/// evaluate_point on every config, rendered bit-exactly: the reference.
std::vector<std::string> per_point_bits(const SweepSpec& spec, const EvalOptions& opts) {
    std::vector<std::string> out;
    for (const MultiplierConfig& config : spec.enumerate()) {
        out.push_back(design_point_bits(evaluate_point(config, opts)));
    }
    return out;
}

/// Options that sample every width-9 point (the cutoff is pinned below it).
EvalOptions pinned_sampled() {
    EvalOptions opts;
    opts.exhaustive_max_width = 6;
    opts.samples = 2048;
    return opts;
}

TEST(ExactKernelShortcut, EqualsTheExhaustiveEngineBitForBit) {
    // The accurate kernel compares a*b against a*b: its metrics are what
    // the accumulator finalizes for an all-exact stream. Depth-1
    // compression dispatches to the same kernel.
    EvalOptions opts;
    opts.evaluate_hardware = false;
    opts.exhaustive_max_width = 12;
    for (int w = 2; w <= 12; ++w) {
        for (const MultiplierConfig config :
             {MultiplierConfig{w, 1, MultiplierVariant::kAccurate, AccumulationScheme::kWallace},
              MultiplierConfig{w, 1, MultiplierVariant::kSdlc, AccumulationScheme::kDadda}}) {
            ASSERT_EQ(select_error_engine(config, opts), ErrorEngine::kExhaustiveScalar);
            const MultiplyKernel kernel(config);
            const ErrorMetrics engine = exhaustive_metrics(
                w, [&kernel](uint64_t a, uint64_t b) { return kernel(a, b); });
            EXPECT_EQ(error_bits(config, evaluate_point(config, opts).error),
                      error_bits(config, engine))
                << ApproxMultiplier(config).describe();
            EXPECT_EQ(engine.samples, uint64_t{1} << (2 * w));
        }
    }
}

TEST(ExactKernelShortcut, EqualsTheSampledEngineBitForBit) {
    EvalOptions opts;
    opts.evaluate_hardware = false;
    opts.exhaustive_max_width = 8;  // pins width 12 to sampling
    opts.samples = 5000;
    const MultiplierConfig config{12, 1, MultiplierVariant::kAccurate,
                                  AccumulationScheme::kRowRipple};
    ASSERT_EQ(select_error_engine(config, opts), ErrorEngine::kSampled);
    const MultiplyKernel kernel(config);
    const ErrorMetrics engine = sampled_metrics(
        12, opts.samples, 0x1234, [&kernel](uint64_t a, uint64_t b) { return kernel(a, b); });
    for (const OperandDistribution dist : {OperandDistribution::kUniform,
                                           OperandDistribution::kGaussian,
                                           OperandDistribution::kSparse}) {
        opts.distribution = dist;
        EXPECT_EQ(error_bits(config, evaluate_point(config, opts).error),
                  error_bits(config, engine))
            << operand_distribution_name(dist);
    }
}

TEST(ExhaustiveEngine, SweepEqualsTheScalarReferenceBitForBit) {
    // End to end through evaluate_sweep: the sliced engine is the only
    // exhaustive engine, so every default grid at widths 2..8 and 10 is
    // compared with the scalar exhaustive_metrics reference over
    // MultiplyKernel, approximate and exact points alike. Width 10 puts up
    // to 4 rows at or above bit 6 in the group that straddles it (widths
    // 2..8 reach 2), each with a compensated twin. Hardware evaluation off
    // keeps this a pure error-path test.
    EvalOptions opts;
    opts.threads = 2;
    opts.evaluate_hardware = false;
    for (const int w : {2, 3, 4, 5, 6, 7, 8, 10}) {
        const SweepSpec spec = SweepSpec::for_width(w);
        SweepStats stats;
        const std::vector<DesignPoint> points = evaluate_sweep(spec, opts, &stats);
        ASSERT_EQ(points.size(), spec.count());
        // One reference per error function: the scheme never changes a
        // product.
        std::map<std::pair<MultiplierVariant, int>, ErrorMetrics> references;
        for (const DesignPoint& point : points) {
            const auto key = std::make_pair(point.config.variant, point.config.depth);
            auto it = references.find(key);
            if (it == references.end()) {
                const MultiplyKernel kernel(point.config);
                it = references
                         .emplace(key, exhaustive_metrics(w, [&kernel](uint64_t a, uint64_t b) {
                                      return kernel(a, b);
                                  }))
                         .first;
            }
            EXPECT_EQ(error_bits(point.config, point.error), error_bits(point.config, it->second))
                << point.describe();
        }
        EXPECT_GT(stats.engines.sliced, 0u);
        EXPECT_EQ(stats.engines.sliced + stats.engines.scalar, points.size());
        EXPECT_EQ(stats.engines.sampled, 0u);
        EXPECT_EQ(stats.cutoff_desc, "fixed(10)");
    }
}

TEST(ExhaustiveEngine, ShardGroupsInAnyOrderGiveTheEngineBits) {
    // evaluate_sweep runs a function's shard groups as separate pool tasks,
    // finished in whatever order the workers get to them.
    EXPECT_EQ(SlicedExhaustiveRun::groups(2), 1u);
    EXPECT_EQ(SlicedExhaustiveRun::groups(5), 4u);
    EXPECT_EQ(SlicedExhaustiveRun::groups(6), 8u);
    EXPECT_EQ(SlicedExhaustiveRun::groups(16), 8u);
    for (const int w : {2, 5, 9}) {
        MultiplierConfig config = sdlc_config(w, 2);
        config.variant = MultiplierVariant::kCompensated;
        const SlicedMultiplyKernel kernel(config);
        SlicedExhaustiveRun run(kernel);
        ASSERT_EQ(run.groups(), SlicedExhaustiveRun::groups(w));
        for (unsigned g = run.groups(); g-- > 0;) ASSERT_TRUE(run.run_group(g, EvalStop{}));
        EXPECT_EQ(run.result(), *exhaustive_metrics_sliced(kernel)) << "width " << w;
    }
}

TEST(GroupedSweep, EqualsPerPointEvaluationAtAnyThreadCount) {
    // Every default grid at widths 2..8 (exhaustive), a pinned-sampled
    // width-9 grid, and two width-11 functions, which the sweep splits
    // into shard-group tasks.
    std::vector<std::pair<SweepSpec, EvalOptions>> cases;
    for (int w = 2; w <= 8; ++w) cases.emplace_back(SweepSpec::for_width(w), EvalOptions{});
    cases.emplace_back(SweepSpec::for_width(9), pinned_sampled());
    SweepSpec split;
    split.widths = {11};
    split.min_depth = split.max_depth = 2;
    split.variants = {MultiplierVariant::kSdlc, MultiplierVariant::kCompensated};
    EvalOptions split_opts;
    split_opts.exhaustive_max_width = 11;
    cases.emplace_back(split, split_opts);
    for (const auto& [spec, base] : cases) {
        const std::vector<std::string> expected = per_point_bits(spec, base);
        for (const unsigned threads : {1u, 4u}) {
            EvalOptions opts = base;
            opts.threads = threads;
            std::vector<std::string> streamed;
            opts.on_point = [&](size_t index, const DesignPoint& point) {
                EXPECT_EQ(index, streamed.size());
                streamed.push_back(design_point_bits(point));
            };
            const std::vector<DesignPoint> points = evaluate_sweep(spec, opts);
            ASSERT_EQ(points.size(), expected.size());
            for (size_t i = 0; i < points.size(); ++i) {
                EXPECT_EQ(design_point_bits(points[i]), expected[i])
                    << "width " << spec.widths[0] << " threads " << threads << " point " << i;
            }
            EXPECT_EQ(streamed, expected) << "width " << spec.widths[0] << " threads " << threads;
        }
    }
}

TEST(GroupedSweep, ShardSlicesThroughAGroupMatchTheWholeSweep) {
    // Width 6: [0, 4) accurate, then sdlc d2 at [4, 8), d3 at [8, 12), ...
    // Every slice below starts or ends inside a group.
    const SweepSpec spec = SweepSpec::for_width(6);
    const std::vector<std::string> expected = per_point_bits(spec, EvalOptions{});
    const std::pair<size_t, size_t> slices[] = {{1, 7}, {5, 6}, {6, 23}, {3, 4}, {42, 44}};
    for (const unsigned threads : {1u, 4u}) {
        for (const auto& [lo, hi] : slices) {
            EvalOptions opts;
            opts.threads = threads;
            opts.shard_lo = lo;
            opts.shard_hi = hi;
            std::vector<size_t> indices;
            opts.on_point = [&](size_t index, const DesignPoint&) { indices.push_back(index); };
            const std::vector<DesignPoint> points = evaluate_sweep(spec, opts);
            ASSERT_EQ(points.size(), hi - lo);
            for (size_t i = 0; i < points.size(); ++i) {
                EXPECT_EQ(design_point_bits(points[i]), expected[lo + i])
                    << "slice [" << lo << ", " << hi << ") threads " << threads;
                EXPECT_EQ(indices[i], lo + i);
            }
        }
    }
}

TEST(GroupedSweep, EvaluatesEachErrorFunctionOnce) {
    EvalOptions opts;
    opts.threads = 4;
    opts.evaluate_hardware = false;
    SweepStats stats;
    // Width 8: 60 points, 15 functions — accurate, and sdlc and
    // compensated at depths 2..8 — each shared by the four schemes.
    (void)evaluate_sweep(SweepSpec::for_width(8), opts, &stats);
    EXPECT_EQ(stats.points, 60u);
    EXPECT_EQ(stats.error_evaluations, 15u);

    // A slice through two groups evaluates each of them once.
    opts.shard_lo = 1;
    opts.shard_hi = 7;
    (void)evaluate_sweep(SweepSpec::for_width(6), opts, &stats);
    EXPECT_EQ(stats.error_evaluations, 2u);

    // A sampled point folds its scheme into its seed: no sharing. Mixed
    // widths 6 and 9: 11 width-6 functions plus every width-9 point.
    opts = pinned_sampled();
    opts.evaluate_hardware = false;
    SweepSpec spec;
    spec.widths = {9};
    (void)evaluate_sweep(spec, opts, &stats);
    const size_t sampled_points = stats.points;
    EXPECT_EQ(stats.engines.sampled, sampled_points);
    EXPECT_EQ(stats.error_evaluations, sampled_points);
    spec.widths = {6, 9};
    (void)evaluate_sweep(spec, opts, &stats);
    EXPECT_EQ(stats.error_evaluations, 11u + sampled_points);
}

TEST(GroupedSweep, CancelInsideAGroupLeavesAStrictPrefix) {
    // sdlc + compensated at width 8: points [0, 4) are sdlc d2, one group
    // on one worker. Cancelling while point 1 streams stops that group
    // before point 2, so points 2 and 3 are never evaluated and the stream
    // is exactly the prefix 0..1 at any thread count.
    SweepSpec spec = SweepSpec::for_width(8);
    spec.variants = {MultiplierVariant::kSdlc, MultiplierVariant::kCompensated};
    const std::vector<std::string> expected = per_point_bits(spec, EvalOptions{});
    for (const unsigned threads : {1u, 4u}) {
        std::atomic<bool> cancel{false};
        EvalOptions opts;
        opts.threads = threads;
        opts.cancel = &cancel;
        std::vector<std::string> streamed;
        opts.on_point = [&](size_t index, const DesignPoint& point) {
            EXPECT_EQ(index, streamed.size());
            streamed.push_back(design_point_bits(point));
            if (index == 1) cancel.store(true);
        };
        EXPECT_THROW((void)evaluate_sweep(spec, opts), SweepCancelled);
        ASSERT_EQ(streamed.size(), 2u) << "threads " << threads;
        EXPECT_EQ(streamed[0], expected[0]);
        EXPECT_EQ(streamed[1], expected[1]);
    }
}

// ------------------------------------------- stop inside one point ----

TEST(StopInsideAPoint, CancelAndDeadlineInterruptOneExhaustivePoint) {
    // One width-14 exhaustive point is 2^28 pairs, a single engine call.
    // Cancel and deadline must stop it mid-flight, not after it: the
    // shard groups poll them once per step of 8 stripes. The bound is a
    // quarter of the same point's uncancelled time, so it holds under the
    // sanitizers too. The point never completes, so nothing streams.
    using Clock = std::chrono::steady_clock;
    SweepSpec spec = SweepSpec::for_width(14);
    spec.min_depth = spec.max_depth = 2;
    spec.variants = {MultiplierVariant::kSdlc};
    spec.schemes = {AccumulationScheme::kRowRipple};
    ASSERT_EQ(spec.count(), 1u);
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        EvalOptions opts;
        opts.threads = threads;
        opts.resolved_exhaustive_width = 14;
        opts.evaluate_hardware = false;
        SweepStats stats;
        auto t0 = Clock::now();
        ASSERT_EQ(evaluate_sweep(spec, opts, &stats).size(), 1u);
        const Clock::duration full = Clock::now() - t0;
        ASSERT_EQ(stats.engines.sliced, 1u);
        const Clock::duration fire_after =
            std::min<Clock::duration>(std::chrono::milliseconds(20), full / 4);

        size_t streamed = 0;
        opts.on_point = [&streamed](size_t, const DesignPoint&) { ++streamed; };
        std::atomic<bool> cancel{false};
        opts.cancel = &cancel;
        Clock::time_point fired;
        std::thread canceller([&] {
            std::this_thread::sleep_for(fire_after);
            fired = Clock::now();
            cancel.store(true);
        });
        EXPECT_THROW((void)evaluate_sweep(spec, opts), SweepCancelled);
        const Clock::time_point cancelled = Clock::now();
        canceller.join();
        EXPECT_LT(cancelled - fired, full / 4)
            << "cancel took " << std::chrono::duration<double>(cancelled - fired).count()
            << " s; the whole point takes " << std::chrono::duration<double>(full).count()
            << " s";

        opts.cancel = nullptr;
        opts.deadline = Clock::now() + fire_after;
        EXPECT_THROW((void)evaluate_sweep(spec, opts), SweepDeadlineExceeded);
        const Clock::time_point expired = Clock::now();
        EXPECT_LT(expired - opts.deadline, full / 4)
            << "deadline overshot by "
            << std::chrono::duration<double>(expired - opts.deadline).count()
            << " s; the whole point takes " << std::chrono::duration<double>(full).count()
            << " s";
        EXPECT_EQ(streamed, 0u);
    }
}

/// Sink that lets a test block until a request's done event.
class RecordingSink final : public serve::ResponseSink {
public:
    void write_line(const std::string& line) override {
        std::lock_guard<std::mutex> lock(mutex_);
        lines_.push_back(line);
        if (line.find("\"event\": \"done\"") != std::string::npos) done_ = true;
        cv_.notify_all();
    }

    std::vector<std::string> wait_done() {
        std::unique_lock<std::mutex> lock(mutex_);
        EXPECT_TRUE(cv_.wait_for(lock, std::chrono::seconds(120), [&] { return done_; }));
        return lines_;
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::string> lines_;
    bool done_ = false;
};

TEST(GroupedSweep, ConcurrentIdenticalServiceRequestsStreamIdenticalEvents) {
    // Four request workers share one pool, each running its groups on it;
    // every stream must carry the same bytes. hw_cache is off so the
    // summary does not depend on which request warmed the synthesis cache
    // first.
    serve::ServiceOptions options;
    options.request_workers = 4;
    options.eval_threads = 4;
    serve::SweepService service(options);
    const std::string line =
        "{\"id\": \"w7\", \"spec\": {\"width\": 7}, \"eval\": {\"hw_cache\": false},"
        " \"export\": true}";
    std::vector<std::shared_ptr<RecordingSink>> sinks;
    for (int i = 0; i < 4; ++i) {
        sinks.push_back(std::make_shared<RecordingSink>());
        ASSERT_TRUE(service.submit_line(line, sinks.back()));
    }
    const std::vector<std::string> first = sinks[0]->wait_done();
    ASSERT_GT(first.size(), 50u);
    EXPECT_NE(first.back().find("\"ok\": true"), std::string::npos) << first.back();
    for (int i = 1; i < 4; ++i) EXPECT_EQ(sinks[i]->wait_done(), first) << "request " << i;
}

}  // namespace
}  // namespace sdlc
