#include "dse/evaluator.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <unordered_map>

#include <algorithm>
#include <cstring>

#include "api/approx_multiplier.h"
#include "core/kernels.h"
#include "core/kernels_sampled.h"
#include "core/kernels_sliced.h"
#include "error/evaluate_sliced.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sdlc {

namespace {

/// Folds the error function (width, variant, depth) into the base seed, so
/// each function gets its own reproducible random stream, independent of
/// evaluation order. The scheme is left out: it never changes a product, so
/// the schemes of one function draw the same pairs.
uint64_t point_seed(uint64_t base, const MultiplierConfig& c) {
    SplitMix64 sm(base);
    uint64_t s = sm.next() ^ (static_cast<uint64_t>(c.width) << 40);
    s ^= static_cast<uint64_t>(c.depth) << 24;
    s ^= static_cast<uint64_t>(static_cast<int>(c.variant)) << 16;
    return SplitMix64(s).next();
}

/// Narrowest sliced function evaluate_sweep splits into shard-group tasks.
/// A width-10 shard group is ~0.3 ms of work on one core, and each worker
/// it lands on first pulls the kernel's tables (2^width entries for the
/// compensated variant) into its cache: split there, a default width-8 or
/// width-10 sweep spent 3-5% more CPU for no gain in wall time. From width
/// 11 the split costs no measurable CPU, and at width 12 it cut a sweep's
/// wall time by 6-8%.
constexpr int kSplitWidth = 11;

/// The error function a configuration computes: (width, variant, depth).
/// The scheme is left out — it changes the adder tree, never the product.
uint64_t error_function_key(const MultiplierConfig& c) {
    return static_cast<uint64_t>(static_cast<uint16_t>(c.width)) << 48 |
           static_cast<uint64_t>(static_cast<uint16_t>(c.depth)) << 32 |
           static_cast<uint64_t>(static_cast<uint16_t>(c.variant)) << 16;
}

uint64_t draw_operand(Xoshiro256& rng, uint64_t mask, OperandDistribution dist) {
    switch (dist) {
        case OperandDistribution::kUniform:
            return rng.next() & mask;
        case OperandDistribution::kGaussian: {
            uint64_t sum = 0;
            for (int i = 0; i < 4; ++i) sum += rng.next() & mask;
            return sum >> 2;
        }
        case OperandDistribution::kSparse:
            return rng.next() & rng.next() & mask;
    }
    return rng.next() & mask;
}

/// Pairs a sampled evaluation draws between two polls of its stop, a
/// multiple of the kernel's block: ~0.1 ms for the slowest width-16
/// function on one core.
constexpr uint64_t kSampledPollPairs = 4096;
static_assert(kSampledPollPairs % SampledMultiplyKernel::kMaxPairs == 0);

}  // namespace

std::optional<ErrorMetrics> sampled_error_metrics(const SampledMultiplyKernel& kernel,
                                                  uint64_t samples, uint64_t seed,
                                                  OperandDistribution dist, const EvalStop& stop) {
    constexpr unsigned kBlock = SampledMultiplyKernel::kMaxPairs;
    const int width = kernel.config().width;
    ErrorAccumulator acc(width);
    Xoshiro256 rng(seed);
    const uint64_t mask = (uint64_t{1} << width) - 1;
    uint64_t a[kBlock], b[kBlock], approx[kBlock];
    for (uint64_t done = 0; done < samples; done += kSampledPollPairs) {
        if (stop.cancelled() || stop.expired()) return std::nullopt;
        const uint64_t end = std::min(samples, done + kSampledPollPairs);
        for (uint64_t i = done; i < end; i += kBlock) {
            const unsigned n = static_cast<unsigned>(std::min<uint64_t>(kBlock, end - i));
            for (unsigned l = 0; l < n; ++l) {
                a[l] = draw_operand(rng, mask, dist);
                b[l] = draw_operand(rng, mask, dist);
            }
            kernel.multiply(a, b, n, approx);
            for (unsigned l = 0; l < n; ++l) acc.add(a[l] * b[l], approx[l]);
        }
    }
    return acc.finalize();
}

const char* error_engine_name(ErrorEngine e) noexcept {
    switch (e) {
        case ErrorEngine::kExhaustiveSliced: return "sliced";
        case ErrorEngine::kExhaustiveScalar: return "scalar";
        case ErrorEngine::kSampled: return "sampled";
    }
    return "?";
}

ErrorEngine select_error_engine(const MultiplierConfig& config,
                                const EvalOptions& opts) noexcept {
    if (config.width > opts.exhaustive_max_width) return ErrorEngine::kSampled;
    return SlicedMultiplyKernel::eligible(config) ? ErrorEngine::kExhaustiveSliced
                                                  : ErrorEngine::kExhaustiveScalar;
}

std::string describe_exhaustive_cutoffs(const EvalOptions& opts) {
    return "fixed(" + std::to_string(opts.exhaustive_max_width) + ")";
}

ErrorEngineTally tally_error_engines(const std::vector<MultiplierConfig>& configs,
                                     const EvalOptions& opts) noexcept {
    ErrorEngineTally t;
    for (const MultiplierConfig& c : configs) {
        switch (select_error_engine(c, opts)) {
            case ErrorEngine::kExhaustiveSliced: ++t.sliced; break;
            case ErrorEngine::kExhaustiveScalar: ++t.scalar; break;
            case ErrorEngine::kSampled: ++t.sampled; break;
        }
    }
    return t;
}

const char* operand_distribution_name(OperandDistribution d) noexcept {
    switch (d) {
        case OperandDistribution::kUniform: return "uniform";
        case OperandDistribution::kGaussian: return "gaussian";
        case OperandDistribution::kSparse: return "sparse";
    }
    return "?";
}

bool parse_operand_distribution(std::string_view name, OperandDistribution& out) noexcept {
    if (name == "uniform") out = OperandDistribution::kUniform;
    else if (name == "gaussian") out = OperandDistribution::kGaussian;
    else if (name == "sparse") out = OperandDistribution::kSparse;
    else return false;
    return true;
}

std::string DesignPoint::describe() const {
    return ApproxMultiplier(config).describe();
}

namespace {

/// Error step: one configuration's metrics. An exact kernel (the accurate
/// variant, depth-1 compression) compares a*b against a*b, so it returns
/// what the accumulator finalizes for an all-exact stream without running
/// an engine: every metric zero, `samples` pairs counted. evaluate_sweep
/// calls it for every group it does not split into shard-group tasks. No
/// result when `stop` fired inside the exhaustive or the sampled engine.
std::optional<ErrorMetrics> evaluate_error(const MultiplierConfig& config,
                                           const EvalOptions& opts, const EvalStop& stop) {
    const ErrorEngine engine = select_error_engine(config, opts);
    if (std::strcmp(multiply_kernel_name(config), "accurate") == 0) {
        ErrorMetrics exact;
        const uint64_t side = uint64_t{1} << config.width;
        exact.samples = engine == ErrorEngine::kSampled ? opts.samples : side * side;
        return exact;
    }
    if (engine == ErrorEngine::kSampled) {
        // Every non-exact config the sampled kernel rejects cannot be
        // built; its constructor throws std::invalid_argument for them.
        const SampledMultiplyKernel kernel(config);
        return sampled_error_metrics(kernel, opts.samples, point_seed(opts.seed, config),
                                     opts.distribution, stop);
    }
    // 64 products per block, bit-identical to the scalar
    // exhaustive_metrics reference (enforced by exhaustive tests). The
    // only non-exact configs the sliced engine rejects cannot be built;
    // its constructor throws std::invalid_argument for them.
    const SlicedMultiplyKernel kernel(config);
    return exhaustive_metrics_sliced(kernel, stop);
}

/// Hardware step: builds and synthesizes one configuration.
/// use_hw_cache=false wins over a provided cache (the documented
/// --no-hw-cache escape hatch).
SynthesisReport evaluate_hardware(const MultiplierConfig& config, const EvalOptions& opts) {
    const Netlist net = ApproxMultiplier(config).build_netlist().net;
    if (opts.use_hw_cache && opts.hw_cache != nullptr) {
        return opts.hw_cache->get_or_synthesize(net, opts.library, opts.synthesis);
    }
    const obs::TraceBinding& tb = obs::current_binding();
    obs::ScopedSpan span(tb.recorder, tb.ctx, "synthesize");
    return synthesize(net, opts.library, opts.synthesis);
}

}  // namespace

DesignPoint evaluate_point(const MultiplierConfig& config, const EvalOptions& opts) {
    DesignPoint point;
    point.config = config;
    point.error = *evaluate_error(config, opts, EvalStop{});
    if (opts.evaluate_hardware) point.hw = evaluate_hardware(config, opts);
    return point;
}

std::vector<DesignPoint> evaluate_sweep(const SweepSpec& spec, const EvalOptions& opts,
                                        SweepStats* stats) {
    const auto t0 = std::chrono::steady_clock::now();
    obs::ScopedSpan enumerate_span(opts.recorder, opts.trace, "enumerate");
    std::vector<MultiplierConfig> configs = spec.enumerate();
    enumerate_span.stop();
    // Shard restriction: keep only [shard_lo, shard_hi), remembering the
    // offset so on_point still reports global enumeration indices.
    size_t base = 0;
    if (opts.shard_lo != 0 || opts.shard_hi != 0) {
        if (opts.shard_lo >= opts.shard_hi || opts.shard_hi > configs.size()) {
            throw std::invalid_argument(
                "sweep shard range [" + std::to_string(opts.shard_lo) + ", " +
                std::to_string(opts.shard_hi) + ") is invalid for " +
                std::to_string(configs.size()) + " points");
        }
        configs = std::vector<MultiplierConfig>(configs.begin() + opts.shard_lo,
                                                configs.begin() + opts.shard_hi);
        base = opts.shard_lo;
    }
    std::vector<DesignPoint> points(configs.size());

    // Resolve the cache: caller-provided, sweep-local, or none.
    CostCache local_cache;
    EvalOptions point_opts = opts;
    if (point_opts.hw_cache == nullptr && point_opts.use_hw_cache) {
        point_opts.hw_cache = &local_cache;
    }
    if (!point_opts.use_hw_cache) point_opts.hw_cache = nullptr;

    // Group the points by error function, in order of first appearance.
    // The points of one (width, variant, depth) share their error whatever
    // the scheme — a sampled one too, since point_seed leaves the scheme
    // out — so the group evaluates it once.
    std::vector<std::vector<size_t>> groups;
    {
        std::unordered_map<uint64_t, size_t> group_of;
        for (size_t i = 0; i < configs.size(); ++i) {
            const auto [it, fresh] =
                group_of.emplace(error_function_key(configs[i]), groups.size());
            if (fresh) groups.emplace_back();
            groups[it->second].push_back(i);
        }
    }

    // Run on the caller's pool when provided (service loops reuse one pool
    // across requests); otherwise spin up a sweep-local one.
    std::optional<ThreadPool> local_pool;
    ThreadPool* pool = opts.pool;
    if (pool == nullptr) {
        local_pool.emplace(opts.threads);
        pool = &*local_pool;
    }
    // Tasks: one per group, except that a function on the sliced engine
    // from kSplitWidth up, or the only function of a sweep, is one task per
    // shard group of its run (SlicedExhaustiveRun). So the workers share
    // out a sweep's last functions instead of each finishing one while the
    // others idle, and one function keeps every worker busy. The first
    // task of a function to start builds its kernel; the one that finishes
    // its last shard group merges the result, frees the kernel and takes
    // the function's points.
    struct SlicedFunction {
        std::once_flag built;
        std::optional<SlicedMultiplyKernel> kernel;
        std::optional<SlicedExhaustiveRun> run;
        std::atomic<unsigned> left{0};
    };
    std::vector<SlicedFunction> sliced(groups.size());
    std::vector<std::pair<size_t, unsigned>> tasks;  // (group, shard group)
    for (size_t g = 0; g < groups.size(); ++g) {
        const MultiplierConfig& config = configs[groups[g].front()];
        unsigned parts = 1;
        if ((config.width >= kSplitWidth || groups.size() == 1) &&
            select_error_engine(config, point_opts) == ErrorEngine::kExhaustiveSliced) {
            parts = SlicedExhaustiveRun::groups(config.width);
            sliced[g].left.store(parts, std::memory_order_relaxed);
        }
        for (unsigned part = 0; part < parts; ++part) tasks.emplace_back(g, part);
    }

    // Ordered streaming: a worker finishing point i marks it ready, then
    // drains the contiguous ready prefix. Exactly one worker holds the
    // emission lock at a time, so on_point sees points strictly in
    // enumeration order regardless of completion order.
    std::mutex emit_mutex;
    size_t next_emit = 0;
    std::vector<uint8_t> ready(configs.size(), 0);

    // Checked before every task and point and, through the exhaustive and
    // sampled engines, inside one.
    const EvalStop stop{opts.cancel, opts.deadline};
    const auto throw_stopped = [&stop] {
        // The cancel flag and the deadline cannot un-fire.
        if (stop.cancelled()) throw SweepCancelled();
        throw SweepDeadlineExceeded();
    };
    const auto throw_if_stopped = [&] {
        if (stop.cancelled() || stop.expired()) throw_stopped();
    };
    std::atomic<size_t> error_evaluations{0};
    parallel_for(*pool, tasks.size(), [&](size_t t) {
        const auto [g, part] = tasks[t];
        throw_if_stopped();
        ErrorMetrics error;
        SlicedFunction& function = sliced[g];
        const bool on_sliced = function.left.load(std::memory_order_relaxed) != 0;
        if (on_sliced) {
            std::call_once(function.built, [&] {
                function.kernel.emplace(configs[groups[g].front()]);
                function.run.emplace(*function.kernel);
            });
            if (!function.run->run_group(part, stop)) throw_stopped();
            if (function.left.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
            error = function.run->result();
            function.run.reset();
            function.kernel.reset();
            error_evaluations.fetch_add(1, std::memory_order_relaxed);
        }
        for (const size_t i : groups[g]) {
            throw_if_stopped();
            obs::ScopedSpan eval_span(opts.recorder, opts.trace, "kernel_eval");
            obs::ScopedBinding binding(opts.recorder, eval_span.context());
            if (!on_sliced && i == groups[g].front()) {
                const std::optional<ErrorMetrics> evaluated =
                    evaluate_error(configs[i], point_opts, stop);
                if (!evaluated) throw_stopped();
                error = *evaluated;
                error_evaluations.fetch_add(1, std::memory_order_relaxed);
            }
            points[i].config = configs[i];
            points[i].error = error;
            if (point_opts.evaluate_hardware) {
                points[i].hw = evaluate_hardware(configs[i], point_opts);
            }
            if (opts.on_point) {
                std::lock_guard<std::mutex> lock(emit_mutex);
                ready[i] = 1;
                while (next_emit < ready.size() && ready[next_emit] != 0) {
                    opts.on_point(base + next_emit, points[next_emit]);
                    ++next_emit;
                }
            }
        }
    });

    if (stats != nullptr) {
        *stats = SweepStats{};
        stats->points = points.size();
        stats->hw_cache_enabled = point_opts.hw_cache != nullptr;
        stats->engines = tally_error_engines(configs, point_opts);
        stats->cutoff_desc = describe_exhaustive_cutoffs(point_opts);
        stats->error_evaluations = error_evaluations.load(std::memory_order_relaxed);
        stats->wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    }
    return points;
}

std::vector<ObjectiveVector> objective_matrix(const std::vector<DesignPoint>& points,
                                              const ObjectiveSet& set) {
    std::vector<ObjectiveVector> m;
    m.reserve(points.size());
    for (const DesignPoint& p : points) m.push_back(p.objectives(set));
    return m;
}

}  // namespace sdlc
