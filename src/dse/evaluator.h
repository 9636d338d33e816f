// Parallel evaluation of design points: software error + hardware cost.
//
// For each MultiplierConfig the evaluator computes error metrics with the
// bit-exact software model (exhaustive up to a width threshold, seeded
// Monte-Carlo above it) and hardware cost by generating the netlist and
// running the virtual-synthesis flow (optimize -> STA -> power). Every
// per-point computation is seeded from the configuration itself, so results
// are bit-identical regardless of the thread count or scheduling order.
//
// Each error function is evaluated once. An error result depends only on
// (width, variant, depth) — the accumulation scheme changes the adder tree,
// not the product, and a sampled function's seed leaves the scheme out too —
// so evaluate_sweep groups a sweep's points by that key and distributes the
// groups over a ThreadPool: a group evaluates its error once, exhaustive or
// sampled, then builds and synthesizes each member. A group on the sliced
// engine is split further, into one task per shard group of its exhaustive
// run: the worker that finishes the last one merges the error and goes on to
// the members, and a sweep's last functions are shared out among the
// workers instead of one worker finishing each while the rest idle. Exact
// kernels (the accurate variant, depth-1 compression) skip error
// evaluation: their metrics are all zero.
// Nothing is kept across sweeps, so every sweep (and every `dse_tool
// --repeat` run) re-evaluates each function and rechecks the engines.
//
// Exhaustive error evaluation runs on the sliced block engine
// (core/kernels_sliced.h), sampling on the sampled block kernel
// (core/kernels_sampled.h, 64 drawn pairs per call), and hardware cost is
// memoized in a content-keyed CostCache shared across the sweep; all
// produce results bit-identical to the direct ApproxMultiplier /
// synthesize() path, so the cache changes speed only (see
// EvalOptions::use_hw_cache).
#ifndef SDLC_DSE_EVALUATOR_H
#define SDLC_DSE_EVALUATOR_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/kernels_sampled.h"
#include "core/kernels_sliced.h"
#include "dse/cost_cache.h"
#include "dse/pareto.h"
#include "dse/sweep.h"
#include "error/evaluate_sliced.h"
#include "error/metrics.h"
#include "obs/trace.h"
#include "tech/cell_library.h"
#include "tech/synthesis.h"

namespace sdlc {

class ThreadPool;
struct DesignPoint;

/// Widest exhaustive cutoff: the widest operand the sliced engine
/// evaluates, so the tool and protocol edges reject any wider cutoff. One
/// exhaustive point at this width is 2^32 operand pairs; cancel and
/// deadline stop it within one step of 8 stripes.
inline constexpr int kMaxExhaustiveWidth = SlicedMultiplyKernel::kMaxWidth;

/// Operand distribution for Monte-Carlo error sampling. Exhaustive
/// evaluation always covers the full uniform operand space.
enum class OperandDistribution {
    kUniform,   ///< i.i.d. uniform over [0, 2^N)
    kGaussian,  ///< mean of four uniforms (central-limit bell around mid-range)
    kSparse,    ///< AND of two uniforms: few set bits, models sparse data
};

/// Short lowercase name ("uniform", "gaussian", "sparse").
[[nodiscard]] const char* operand_distribution_name(OperandDistribution d) noexcept;

/// Parses a distribution name into `out`. Returns false (leaving `out`
/// untouched) for unknown names.
[[nodiscard]] bool parse_operand_distribution(std::string_view name,
                                              OperandDistribution& out) noexcept;

/// Evaluation knobs.
struct EvalOptions {
    unsigned threads = 0;  ///< worker threads; 0 = hardware concurrency
    /// The exhaustive cutoff, in [0, kMaxExhaustiveWidth]: exhaustive error
    /// evaluation at or below this width, sampling above it. A function of
    /// the request alone, so every process and replica picks the same
    /// engine for a point.
    int exhaustive_max_width = 14;
    uint64_t samples = uint64_t{1} << 18;  ///< Monte-Carlo samples above it
    /// Base seed. Each sampled error function (width, variant, depth)
    /// derives its own seed from it, shared by all of its schemes.
    uint64_t seed = 0x5d1c5eed;
    OperandDistribution distribution = OperandDistribution::kUniform;
    bool evaluate_hardware = true;  ///< synthesize netlists for cost metrics
    SynthesisOptions synthesis;     ///< virtual-synthesis knobs
    CellLibrary library = CellLibrary::generic_90nm();
    /// Memoize synthesis by netlist content key for the duration of a sweep.
    /// Results are identical either way; off means every point re-runs the
    /// full flow (the `dse_tool --no-hw-cache` escape hatch).
    bool use_hw_cache = true;
    /// Optional externally owned cache to share across sweeps (service
    /// loops, repeated runs). When null and use_hw_cache is set,
    /// evaluate_sweep creates a sweep-local cache. The cache returns
    /// reports bit-identical to synthesize(), so this knob changes speed
    /// only.
    CostCache* hw_cache = nullptr;
    /// Optional externally owned worker pool. When null, evaluate_sweep
    /// spins up a sweep-local pool of `threads` workers; a long-lived
    /// service passes its own pool so every request reuses one set of
    /// threads (`threads` is then ignored).
    ThreadPool* pool = nullptr;
    /// Streaming hook: called once per design point, in enumeration order
    /// (point i is reported only once every point j < i has been reported).
    /// Points stream through a ShardMerger (dse/shard_merge.h), the merge a
    /// distributed sweep streams its replicas' points through too: the
    /// thread whose point completes the ready prefix reports it, under the
    /// merger's lock. An exception thrown by the hook ends the stream,
    /// aborts the sweep and propagates out of evaluate_sweep.
    std::function<void(size_t index, const DesignPoint& point)> on_point;
    /// Cooperative cancellation: when non-null and set, workers stop
    /// claiming points and evaluate_sweep throws SweepCancelled.
    const std::atomic<bool>* cancel = nullptr;
    /// Cooperative wall-clock budget: when set (non-epoch), workers stop
    /// claiming points once the deadline passes and evaluate_sweep throws
    /// SweepDeadlineExceeded. Checked at the same granularity as `cancel`:
    /// before every design point, inside an exhaustive point once per step
    /// of 8 stripes (error/evaluate_sliced.h) and inside a sampled one
    /// every 4096 pairs, so one point overshoots by at most a step (~2 ms
    /// at width 16 on one core) or 4096 pairs (~0.1 ms). evaluate_point
    /// ignores both. Points already reported through on_point stay
    /// reported: the partial stream is always a strict prefix of the full
    /// enumeration-order stream.
    std::chrono::steady_clock::time_point deadline{};
    /// Optional enumeration-index restriction: evaluate only the points at
    /// indices [shard_lo, shard_hi) of SweepSpec::enumerate() order — the
    /// unit a distributed sweep hands one worker. Both zero (the default)
    /// means the whole space. Indices reported through on_point stay
    /// *global* enumeration indices and the returned vector holds exactly
    /// the shard's points, so sharding changes which points are evaluated,
    /// never what any point's value or index is. A range with
    /// shard_lo >= shard_hi or shard_hi > count() throws
    /// std::invalid_argument (see sweep_shard_range).
    size_t shard_lo = 0;
    size_t shard_hi = 0;
    /// Optional tracing (see obs/trace.h): with a non-null recorder and a
    /// valid trace context, evaluate_sweep records `enumerate` and
    /// per-point `kernel_eval` spans under `trace`, and binds the context
    /// on each eval worker so the synthesis cache records its
    /// lookup/synthesize spans for the right request. A function on the
    /// sliced engine runs its shard groups as tasks of their own before
    /// its points, outside any span. Untraced sweeps pay one branch per
    /// point; results are bit-identical either way.
    obs::SpanRecorder* recorder = nullptr;
    obs::TraceContext trace;
};

/// Thrown by evaluate_sweep when EvalOptions::cancel fires mid-sweep.
struct SweepCancelled : std::runtime_error {
    SweepCancelled() : std::runtime_error("sweep cancelled") {}
};

/// Thrown by evaluate_sweep when EvalOptions::deadline passes mid-sweep.
struct SweepDeadlineExceeded : std::runtime_error {
    SweepDeadlineExceeded() : std::runtime_error("sweep deadline exceeded") {}
};

/// Which error engine evaluate_point runs for one configuration.
enum class ErrorEngine {
    kExhaustiveSliced,  ///< sliced exhaustive (core/kernels_sliced.h)
    kExhaustiveScalar,  ///< exact kernel at or below the cutoff: no engine runs
    kSampled,           ///< seeded Monte-Carlo (width above the cutoff)
};

/// "sliced", "scalar", or "sampled".
[[nodiscard]] const char* error_engine_name(ErrorEngine e) noexcept;

/// Pure engine choice for one configuration: sampling above the cutoff
/// (EvalOptions::exhaustive_max_width); otherwise the sliced engine when
/// the config is eligible, else kExhaustiveScalar — an exact kernel
/// (accurate, depth 1), whose all-zero metrics need no engine.
/// Deterministic given (config, opts) — the coordinator replays it to
/// reproduce replica engine tallies.
[[nodiscard]] ErrorEngine select_error_engine(const MultiplierConfig& config,
                                              const EvalOptions& opts) noexcept;

/// Human-readable cutoff summary for logs and the export summary, e.g.
/// "fixed(14)".
[[nodiscard]] std::string describe_exhaustive_cutoffs(const EvalOptions& opts);

/// Per-engine point counts for a config list — a pure replay of
/// select_error_engine, so every replica and the coordinator derive the
/// same tallies from the same wire-level options.
struct ErrorEngineTally {
    size_t sliced = 0;
    size_t scalar = 0;
    size_t sampled = 0;
};
[[nodiscard]] ErrorEngineTally tally_error_engines(const std::vector<MultiplierConfig>& configs,
                                                   const EvalOptions& opts) noexcept;

/// Per-sweep bookkeeping reported by evaluate_sweep. Everything but the
/// wall time is a pure function of the request — never of cache warmth or
/// scheduling — so the JSON export summary can carry it. Cache hit/miss
/// counts are metrics: read them from CostCache::stats().
struct SweepStats {
    size_t points = 0;              ///< evaluated design points
    double wall_seconds = 0.0;      ///< end-to-end sweep wall time
    bool hw_cache_enabled = false;  ///< EvalOptions::use_hw_cache of the sweep
    /// Which error engine evaluated how many points, and the cutoff policy
    /// that decided it. Pure replay of select_error_engine over the sweep's
    /// configs (deterministic; safe for the JSON export summary).
    ErrorEngineTally engines;
    std::string cutoff_desc;
    /// Error evaluations run: one per error function, exhaustive or
    /// sampled, however many schemes share it (see the file comment).
    /// Deterministic for a completed sweep.
    size_t error_evaluations = 0;
};

/// The enumeration indices [lo, hi) a sweep of `count` points covers under
/// opts' shard restriction: [0, count) when shard_lo and shard_hi are both
/// zero. Throws std::invalid_argument for shard_lo >= shard_hi or
/// shard_hi > count. evaluate_sweep and cluster::distributed_sweep both
/// cut their range here.
[[nodiscard]] std::pair<size_t, size_t> sweep_shard_range(const EvalOptions& opts,
                                                          size_t count);

/// The request-pure part of SweepStats for a sweep of `configs` (its
/// points, shard-restricted) under `opts`: the point count,
/// hw_cache_enabled, the engine tally and the cutoff. evaluate_sweep adds
/// its error evaluations and wall time, cluster::distributed_sweep its
/// wall time, so both report the same bookkeeping for the same request.
[[nodiscard]] SweepStats pure_sweep_stats(const std::vector<MultiplierConfig>& configs,
                                          const EvalOptions& opts);

/// One fully evaluated configuration.
struct DesignPoint {
    MultiplierConfig config;
    ErrorMetrics error;
    SynthesisReport hw;

    /// The value of one objective axis.
    [[nodiscard]] double objective(Objective o) const noexcept {
        switch (o) {
            case Objective::kError: return error.nmed;
            case Objective::kArea: return hw.area_um2;
            case Objective::kPower: return hw.dynamic_power_uw;
            case Objective::kDelay: return hw.delay_ps;
            case Objective::kEnergy: return hw.energy_fj;
            case Objective::kMaxRed: return error.max_red;
        }
        return 0.0;
    }

    /// Objective values for `set`, in set order (default: NMED, area, power,
    /// delay).
    [[nodiscard]] ObjectiveVector objectives(const ObjectiveSet& set = default_objectives()) const {
        ObjectiveVector v;
        v.reserve(set.size());
        for (const Objective o : set) v.push_back(objective(o));
        return v;
    }

    /// e.g. "sdlc 8x8 d2 / row-ripple".
    [[nodiscard]] std::string describe() const;
};

/// Evaluates one configuration (single-threaded; deterministic for a given
/// EvalOptions regardless of the caller's threading).
[[nodiscard]] DesignPoint evaluate_point(const MultiplierConfig& config,
                                         const EvalOptions& opts = {});

/// The sampled engine: seeded Monte-Carlo metrics of `kernel`'s
/// configuration over `samples` pairs drawn from `dist` by one Xoshiro256
/// seeded with `seed`, a before b. It draws 64 pairs, evaluates them in one
/// kernel call and adds them to one ErrorAccumulator in draw order, so the
/// metrics do not depend on the block size: with kUniform (a draw is
/// `rng.next() & mask`) they equal error/evaluate.h's sampled_metrics over
/// MultiplyKernel bit for bit. evaluate_point runs it above the cutoff with
/// the function's own seed. Polls `stop` every 4096 pairs and, once it
/// fires, returns no result.
[[nodiscard]] std::optional<ErrorMetrics> sampled_error_metrics(
    const SampledMultiplyKernel& kernel, uint64_t samples, uint64_t seed,
    OperandDistribution dist, const EvalStop& stop = {});

/// Evaluates every point of the sweep in parallel, one error evaluation per
/// error function (see the file comment), and collects the points through a
/// ShardMerger over the sweep's range. The result order matches
/// SweepSpec::enumerate() and the values are bit-identical to evaluate_point
/// on each config, for any opts.threads, shard range or hardware cache.
/// When `stats` is non-null it receives the sweep's wall time and
/// bookkeeping (see SweepStats).
[[nodiscard]] std::vector<DesignPoint> evaluate_sweep(const SweepSpec& spec,
                                                      const EvalOptions& opts = {},
                                                      SweepStats* stats = nullptr);

/// Objective vectors of `points`, in order (input to pareto_analysis()).
/// Every row uses the same objective `set`, so ranks computed from the
/// matrix are ranks over exactly those axes.
[[nodiscard]] std::vector<ObjectiveVector> objective_matrix(
    const std::vector<DesignPoint>& points, const ObjectiveSet& set = default_objectives());

}  // namespace sdlc

#endif  // SDLC_DSE_EVALUATOR_H
