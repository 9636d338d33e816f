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
//   2. The hard-coded exhaustive-vs-sampled cutoff: one width for every
//      kernel path, so a ~3 ns/op accurate config was sampled at width 11
//      while a ~30 ns/op planned config ran exhaustive at width 10. The
//      cutoff is now resolved per path from measured calibration under a
//      time budget; resolution is pure, only ever promotes, and pinned
//      requests bypass it entirely.
//
// The policy functions (select_error_engine, resolve_exhaustive_cutoffs,
// describe_exhaustive_cutoffs, apply_auto_exhaustive, tally_error_engines)
// are pure, so they are tested with injected calibrations — no timing
// dependence.
//
// The last section pins that each error function is evaluated once:
// evaluate_sweep groups a sweep's points by (width, variant, depth) for
// the exhaustive engines, one group per sampled point, and the grouping
// changes nothing observable — every point equals a per-point
// evaluate_point bit for bit (design_point_bits) at any thread count or
// shard slice, and the stream stays a strict prefix under cancellation.
// Exact kernels skip evaluation with the metrics the engines would give.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
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
    opts.auto_exhaustive = false;  // no calibration cost in this test
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

TEST(CutoffResolution, BudgetWidthsPerPath) {
    // Injected calibration, 1 s budget: cutoff = largest width whose full
    // 4^w-pair sweep fits the budget at the measured rate.
    EngineCalibration cal;
    cal.accurate_ns = 1.0;  // 4^14 = 2.7e8 ops fits 1e9 ns, 4^15 does not
    cal.fast2_ns = 4.0;     // 4^13 fits 2.5e8-op budget
    cal.planned_ns = 16.0;  // 4^12 fits 6.25e7
    cal.sliced_ns = 0.25;   // 4^15 fits 4e9, 4^16 does not
    const ExhaustiveCutoffs cut = resolve_exhaustive_cutoffs(cal, 10, 1000.0);
    EXPECT_EQ(cut.accurate, 14);
    EXPECT_EQ(cut.fast2, 13);
    EXPECT_EQ(cut.planned, 12);
    EXPECT_EQ(cut.sliced, 15);

    // Pure: same inputs, same result.
    const ExhaustiveCutoffs again = resolve_exhaustive_cutoffs(cal, 10, 1000.0);
    EXPECT_EQ(again.accurate, cut.accurate);
    EXPECT_EQ(again.sliced, cut.sliced);
}

TEST(CutoffResolution, NeverDemotesAndClampsTo16) {
    EngineCalibration cal;
    cal.accurate_ns = 1e9;  // absurdly slow: stays at the floor
    cal.fast2_ns = 1e-9;    // absurdly fast: clamps at width 16
    cal.planned_ns = 0.0;   // unmeasured: stays at the floor
    cal.sliced_ns = -1.0;   // nonsense: stays at the floor
    const ExhaustiveCutoffs cut = resolve_exhaustive_cutoffs(cal, 10, 2000.0);
    EXPECT_EQ(cut.accurate, 10);
    EXPECT_EQ(cut.fast2, 16);
    EXPECT_EQ(cut.planned, 10);
    EXPECT_EQ(cut.sliced, 10);

    // A zero budget cannot demote below the floor either.
    const ExhaustiveCutoffs zero = resolve_exhaustive_cutoffs(cal, 12, 0.0);
    EXPECT_EQ(zero.accurate, 12);
    EXPECT_EQ(zero.fast2, 12);
}

TEST(CutoffResolution, MeasuredCalibrationIsSane) {
    // The real measurement: positive rates, and the sliced engine beats
    // the scalar planned path on any machine this runs on (64 lanes per
    // bitwise op vs one product per call).
    const EngineCalibration& cal = engine_calibration();
    EXPECT_GT(cal.accurate_ns, 0.0);
    EXPECT_GT(cal.fast2_ns, 0.0);
    EXPECT_GT(cal.planned_ns, 0.0);
    EXPECT_GT(cal.sliced_ns, 0.0);
    EXPECT_LT(cal.sliced_ns, cal.planned_ns);
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
    const EvalOptions opts;  // exhaustive_max_width = 10, use_sliced = true
    EXPECT_EQ(select_error_engine(make_config(8, 3, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kExhaustiveSliced);
    EXPECT_EQ(select_error_engine(make_config(10, 2, MultiplierVariant::kCompensated), opts),
              ErrorEngine::kExhaustiveSliced);
    // Not sliced-eligible: exact config runs the scalar accurate kernel.
    EXPECT_EQ(select_error_engine(make_config(8, 2, MultiplierVariant::kAccurate), opts),
              ErrorEngine::kExhaustiveScalar);
    // Above the cutoff: sampled, for every path.
    EXPECT_EQ(select_error_engine(make_config(12, 3, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kSampled);
    EXPECT_EQ(select_error_engine(make_config(12, 2, MultiplierVariant::kAccurate), opts),
              ErrorEngine::kSampled);
}

TEST(EngineSelection, NoSlicedFallsBackToScalar) {
    EvalOptions opts;
    opts.use_sliced = false;
    EXPECT_EQ(select_error_engine(make_config(8, 3, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kExhaustiveScalar);
    EXPECT_EQ(select_error_engine(make_config(12, 3, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kSampled);
}

TEST(EngineSelection, PerPathCutoffsPromoteIndependently) {
    EvalOptions opts;
    opts.exhaustive_width_accurate = 14;
    opts.exhaustive_width_fast2 = 13;
    opts.exhaustive_width_planned = 11;
    opts.exhaustive_width_sliced = 14;
    // Accurate path follows its own cutoff.
    EXPECT_EQ(select_error_engine(make_config(14, 2, MultiplierVariant::kAccurate), opts),
              ErrorEngine::kExhaustiveScalar);
    EXPECT_EQ(select_error_engine(make_config(15, 2, MultiplierVariant::kAccurate), opts),
              ErrorEngine::kSampled);
    // Sliced-eligible configs follow the sliced cutoff.
    EXPECT_EQ(select_error_engine(make_config(14, 3, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kExhaustiveSliced);
    EXPECT_EQ(select_error_engine(make_config(15, 3, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kSampled);
    // fast2 (sdlc depth 2) is also sliced-eligible, so the sliced engine
    // carries it up to max(sliced, fast2) = 14.
    EXPECT_EQ(select_error_engine(make_config(14, 2, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kExhaustiveSliced);

    // With sliced disabled, a width inside the scalar-path cutoff must
    // still run scalar exhaustive — never demoted to sampling.
    opts.use_sliced = false;
    EXPECT_EQ(select_error_engine(make_config(13, 2, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kExhaustiveScalar);
    opts.use_sliced = true;

    // Conversely, a scalar cutoff above the sliced one promotes the
    // sliced engine too: the choice of engine never makes a point
    // *sampled* that the scalar path would have run exhaustive.
    EvalOptions wide;
    wide.exhaustive_width_planned = 12;
    wide.exhaustive_width_sliced = 10;
    EXPECT_EQ(select_error_engine(make_config(12, 4, MultiplierVariant::kSdlc), wide),
              ErrorEngine::kExhaustiveSliced);
}

TEST(EngineSelection, DescribeCutoffs) {
    EvalOptions opts;
    EXPECT_EQ(describe_exhaustive_cutoffs(opts), "fixed(10)");
    opts.exhaustive_max_width = 8;
    EXPECT_EQ(describe_exhaustive_cutoffs(opts), "fixed(8)");
    opts.exhaustive_width_accurate = 14;
    opts.exhaustive_width_fast2 = 13;
    opts.exhaustive_width_planned = 12;
    opts.exhaustive_width_sliced = 14;
    EXPECT_EQ(describe_exhaustive_cutoffs(opts),
              "auto(accurate=14,fast2=13,planned=12,sliced=14)");
    // Unset fields fall back to the fixed cutoff in the description, same
    // as in selection.
    opts.exhaustive_width_planned = 0;
    EXPECT_EQ(describe_exhaustive_cutoffs(opts),
              "auto(accurate=14,fast2=13,planned=8,sliced=14)");
}

TEST(EngineSelection, ApplyAutoExhaustiveGating) {
    // Pinned requests (any per-path width set) are left untouched: the
    // submitter already resolved or fixed the cutoffs.
    SweepSpec wide;
    wide.widths = {12};
    EvalOptions pinned;
    pinned.exhaustive_width_sliced = 11;
    apply_auto_exhaustive(pinned, wide, 2000.0);
    EXPECT_EQ(pinned.exhaustive_width_accurate, 0);
    EXPECT_EQ(pinned.exhaustive_width_sliced, 11);

    // Sweeps entirely at or below the fixed cutoff: no-op (and no
    // calibration cost) — promotion could not change any engine choice.
    SweepSpec small;
    small.widths = {4, 8};
    EvalOptions untouched;
    apply_auto_exhaustive(untouched, small, 2000.0);
    EXPECT_EQ(untouched.exhaustive_width_accurate, 0);
    EXPECT_EQ(untouched.exhaustive_width_sliced, 0);
    EXPECT_EQ(describe_exhaustive_cutoffs(untouched), "fixed(10)");

    // A sweep above the cutoff resolves all four paths; never below the
    // floor (auto only promotes).
    EvalOptions resolved;
    apply_auto_exhaustive(resolved, wide, 1000.0);
    EXPECT_GE(resolved.exhaustive_width_accurate, resolved.exhaustive_max_width);
    EXPECT_GE(resolved.exhaustive_width_fast2, resolved.exhaustive_max_width);
    EXPECT_GE(resolved.exhaustive_width_planned, resolved.exhaustive_max_width);
    EXPECT_GE(resolved.exhaustive_width_sliced, resolved.exhaustive_max_width);
    EXPECT_EQ(describe_exhaustive_cutoffs(resolved).rfind("auto(", 0), 0u);
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

TEST(EngineSelection, SweepResultsIdenticalWithAndWithoutSliced) {
    // End to end through evaluate_sweep: the engine knob changes speed
    // only. Hardware evaluation off keeps this a pure error-path test.
    SweepSpec spec;
    spec.widths = {5};
    EvalOptions opts;
    opts.threads = 2;
    opts.evaluate_hardware = false;
    SweepStats with_stats;
    const std::vector<DesignPoint> with_sliced = evaluate_sweep(spec, opts, &with_stats);
    opts.use_sliced = false;
    SweepStats without_stats;
    const std::vector<DesignPoint> without_sliced = evaluate_sweep(spec, opts, &without_stats);

    ASSERT_EQ(with_sliced.size(), without_sliced.size());
    for (size_t i = 0; i < with_sliced.size(); ++i) {
        EXPECT_EQ(with_sliced[i].error, without_sliced[i].error) << i;
    }
    EXPECT_GT(with_stats.engines.sliced, 0u);
    EXPECT_EQ(without_stats.engines.sliced, 0u);
    EXPECT_EQ(with_stats.engines.sliced + with_stats.engines.scalar,
              without_stats.engines.scalar);
    EXPECT_EQ(with_stats.cutoff_desc, "fixed(10)");
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

TEST(GroupedSweep, EqualsPerPointEvaluationAtAnyThreadCount) {
    // Every default grid at widths 2..8 (exhaustive) and a pinned-sampled
    // width-9 grid.
    std::vector<std::pair<SweepSpec, EvalOptions>> cases;
    for (int w = 2; w <= 8; ++w) cases.emplace_back(SweepSpec::for_width(w), EvalOptions{});
    cases.emplace_back(SweepSpec::for_width(9), pinned_sampled());
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
