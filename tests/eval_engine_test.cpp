// Error-engine policy and threading-contract tests.
//
// Thread explosion: exhaustive_metrics() used to spawn
// hardware_concurrency() raw std::threads on EVERY call. A resident service
// evaluating hundreds of exhaustive points per request multiplied that into
// hundreds of short-lived threads, all fighting the service's own
// ThreadPool. Both exhaustive engines now run on the calling thread; a
// sweep spreads work only over its pool.
//
// The cutoff: one width, EvalOptions::exhaustive_max_width (default 14),
// decides exhaustive against sampled, so the engine of every point is a
// function of the request. The policy functions (select_error_engine,
// describe_exhaustive_cutoffs, tally_error_engines) are pure. The sliced
// engine is the only exhaustive engine evaluate_sweep runs, so every
// default grid at widths 2..8 and 10 is also checked against the scalar
// exhaustive_metrics reference bit for bit.
//
// The last section pins that each error function is evaluated once:
// evaluate_sweep groups a sweep's points by (width, variant, depth),
// exhaustive and sampled alike, and the grouping changes nothing
// observable — every point equals a per-point evaluate_point bit for bit
// (design_point_bits) at any thread count or shard slice, and the stream
// stays a strict prefix under cancellation. Exact kernels skip evaluation
// with the metrics the engines would give. Cancel and deadline also stop a
// single exhaustive or sampled point mid-flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "api/approx_multiplier.h"
#include "core/kernels.h"
#include "core/kernels_sampled.h"
#include "core/kernels_sliced.h"
#include "dse/evaluator.h"
#include "dse/point_wire.h"
#include "dse/sweep.h"
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
    // The regression: an exhaustive evaluation must run inline. Run a
    // batch of them on a single pool worker while the main thread samples
    // the process thread count — under the old per-call std::thread
    // spawning the count visibly exceeds the baseline; under the contract
    // it can never move.
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

// -------------------------------------------------------- engine selection ----

MultiplierConfig make_config(int width, int depth, MultiplierVariant variant) {
    MultiplierConfig cfg;
    cfg.width = width;
    cfg.depth = depth;
    cfg.variant = variant;
    return cfg;
}

TEST(EngineSelection, DefaultsFollowFixedCutoff) {
    const EvalOptions opts;
    EXPECT_EQ(opts.exhaustive_max_width, 14);
    EXPECT_EQ(select_error_engine(make_config(8, 3, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kExhaustiveSliced);
    EXPECT_EQ(select_error_engine(make_config(14, 2, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kExhaustiveSliced);
    EXPECT_EQ(select_error_engine(make_config(14, 5, MultiplierVariant::kCompensated), opts),
              ErrorEngine::kExhaustiveSliced);
    // Not sliced-eligible: an exact config, answered without an engine.
    EXPECT_EQ(select_error_engine(make_config(8, 2, MultiplierVariant::kAccurate), opts),
              ErrorEngine::kExhaustiveScalar);
    EXPECT_EQ(select_error_engine(make_config(8, 1, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kExhaustiveScalar);
    EXPECT_EQ(select_error_engine(make_config(14, 2, MultiplierVariant::kAccurate), opts),
              ErrorEngine::kExhaustiveScalar);
    // Above the cutoff: sampled, exact or not.
    EXPECT_EQ(select_error_engine(make_config(15, 3, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kSampled);
    EXPECT_EQ(select_error_engine(make_config(15, 2, MultiplierVariant::kAccurate), opts),
              ErrorEngine::kSampled);
}

TEST(EngineSelection, ZeroAndNarrowCutoffs) {
    // 0 is a width like any other: it samples every point.
    EvalOptions opts;
    opts.exhaustive_max_width = 0;
    EXPECT_EQ(select_error_engine(make_config(2, 2, MultiplierVariant::kSdlc), opts),
              ErrorEngine::kSampled);
    EXPECT_EQ(select_error_engine(make_config(6, 1, MultiplierVariant::kAccurate), opts),
              ErrorEngine::kSampled);

    // The cutoff width itself is exhaustive, the next one sampled.
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
    EXPECT_EQ(describe_exhaustive_cutoffs(opts), "fixed(14)");
    opts.exhaustive_max_width = 8;
    EXPECT_EQ(describe_exhaustive_cutoffs(opts), "fixed(8)");
    opts.exhaustive_max_width = 0;
    EXPECT_EQ(describe_exhaustive_cutoffs(opts), "fixed(0)");
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

TEST(SampledEngine, EqualsThePairAtATimeReferenceBitForBit) {
    // The block engine draws, multiplies and accumulates in the order of a
    // pair-at-a-time loop, so with uniform draws it equals sampled_metrics
    // over MultiplyKernel in every bit of every sum, not just in an
    // export's 12 digits. Sample counts: a lone pair, a short block, a
    // poll boundary crossed by one pair (4097 = 64 * 64 + 1), and the
    // goldens' 5000 = 78 * 64 + 8.
    for (const int width : {3, 9, 16, 17, 32}) {
        for (const MultiplierVariant variant :
             {MultiplierVariant::kSdlc, MultiplierVariant::kCompensated}) {
            for (const int depth : {2, (width + 1) / 2, width}) {
                const MultiplierConfig config{width, depth, variant,
                                              AccumulationScheme::kRowRipple};
                const SampledMultiplyKernel kernel(config);
                const MultiplyKernel scalar(config);
                for (const uint64_t samples : {1u, 63u, 4097u, 5000u}) {
                    const uint64_t seed = 0x5eed0000u + samples;
                    const std::optional<ErrorMetrics> engine = sampled_error_metrics(
                        kernel, samples, seed, OperandDistribution::kUniform);
                    ASSERT_TRUE(engine.has_value());
                    const ErrorMetrics reference = sampled_metrics(
                        width, samples, seed,
                        [&scalar](uint64_t a, uint64_t b) { return scalar(a, b); });
                    EXPECT_EQ(error_bits(config, *engine), error_bits(config, reference))
                        << ApproxMultiplier(config).describe() << ", " << samples << " samples";
                }
            }
        }
    }
}

TEST(SampledEngine, ReturnsNoResultOnceCancelled) {
    const SampledMultiplyKernel kernel(
        MultiplierConfig{16, 4, MultiplierVariant::kCompensated, AccumulationScheme::kRowRipple});
    const std::atomic<bool> cancelled{true};
    EvalStop stop;
    stop.cancel = &cancelled;
    EXPECT_FALSE(
        sampled_error_metrics(kernel, 1u << 18, 1, OperandDistribution::kUniform, stop));
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
        EXPECT_EQ(stats.cutoff_desc, "fixed(14)");
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

    // Sampled functions are shared too: the seed leaves the scheme out.
    // Width 9 has 17 functions (accurate, and sdlc and compensated at
    // depths 2..9); mixed widths 6 and 9 add the 11 width-6 ones.
    const EvalOptions sampled = pinned_sampled();
    SweepSpec spec;
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        opts = sampled;
        opts.threads = threads;
        opts.evaluate_hardware = false;
        spec.widths = {9};
        (void)evaluate_sweep(spec, opts, &stats);
        EXPECT_EQ(stats.engines.sampled, stats.points);
        EXPECT_EQ(stats.error_evaluations, 17u);
        spec.widths = {6, 9};
        const std::vector<DesignPoint> points = evaluate_sweep(spec, opts, &stats);
        EXPECT_EQ(stats.error_evaluations, 11u + 17u);

        // Every scheme's point carries its function's one result, bit for
        // bit, and that is what evaluate_point gives each scheme alone.
        std::map<std::tuple<int, MultiplierVariant, int>, std::string> function_bits;
        for (const DesignPoint& point : points) {
            const MultiplierConfig& c = point.config;
            MultiplierConfig function = c;
            function.scheme = AccumulationScheme::kRowRipple;
            const std::string bits = error_bits(function, point.error);
            const auto key = std::make_tuple(c.width, c.variant, c.depth);
            EXPECT_EQ(function_bits.emplace(key, bits).first->second, bits) << point.describe();
            EXPECT_EQ(error_bits(function, evaluate_point(c, opts).error), bits)
                << point.describe();
        }
        EXPECT_EQ(function_bits.size(), 11u + 17u);
    }
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

/// Runs the one point of `spec` whole, taking time T, then under a cancel
/// and then under a deadline, each firing after min(20 ms, T/4). Both must
/// stop the point mid-flight, within T/4, at 1 and 4 threads. The bound
/// holds under the sanitizers too. The point never completes, so nothing
/// streams.
void expect_stops_inside_the_point(const SweepSpec& spec, const EvalOptions& base) {
    using Clock = std::chrono::steady_clock;
    ASSERT_EQ(spec.count(), 1u);
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        EvalOptions opts = base;
        opts.threads = threads;
        opts.evaluate_hardware = false;
        auto t0 = Clock::now();
        ASSERT_EQ(evaluate_sweep(spec, opts).size(), 1u);
        const Clock::duration full = Clock::now() - t0;
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

TEST(StopInsideAPoint, CancelAndDeadlineInterruptOneExhaustivePoint) {
    // One width-14 exhaustive point is 2^28 pairs, a single engine call.
    // The shard groups poll cancel and deadline once per step of 8 stripes.
    SweepSpec spec = SweepSpec::for_width(14);
    spec.min_depth = spec.max_depth = 2;
    spec.variants = {MultiplierVariant::kSdlc};
    spec.schemes = {AccumulationScheme::kRowRipple};
    EvalOptions opts;
    opts.exhaustive_max_width = 14;
    ASSERT_EQ(select_error_engine(spec.enumerate().front(), opts),
              ErrorEngine::kExhaustiveSliced);
    expect_stops_inside_the_point(spec, opts);
}

TEST(StopInsideAPoint, CancelAndDeadlineInterruptOneSampledPoint) {
    // One width-16 compensated depth-16 point above a cutoff pinned at 10
    // is a single draw, which polls cancel and deadline every 4096 pairs.
    // A short probe sizes the draw to take about 0.6 s.
    using Clock = std::chrono::steady_clock;
    SweepSpec spec = SweepSpec::for_width(16);
    spec.min_depth = spec.max_depth = 16;
    spec.variants = {MultiplierVariant::kCompensated};
    spec.schemes = {AccumulationScheme::kRowRipple};
    EvalOptions opts;
    opts.exhaustive_max_width = 10;
    opts.evaluate_hardware = false;
    const MultiplierConfig config = spec.enumerate().front();
    ASSERT_EQ(select_error_engine(config, opts), ErrorEngine::kSampled);
    opts.samples = uint64_t{1} << 16;
    const auto t0 = Clock::now();
    (void)evaluate_point(config, opts);
    const double probe_s = std::chrono::duration<double>(Clock::now() - t0).count();
    opts.samples = std::max(opts.samples,
                            static_cast<uint64_t>(static_cast<double>(opts.samples) * 0.6 /
                                                  std::max(probe_s, 1e-6)));
    expect_stops_inside_the_point(spec, opts);
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
