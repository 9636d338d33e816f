// perfbench_replay — re-runs a workload's sweeps in-process and times every
// layer's public entry points from outside the program.
//
//   perfbench_replay --requests FILE [--mode check|replay] [--spans FILE]
//                    [--trace-out FILE]
//
// FILE holds NDJSON sweep request lines exactly as the benchmark sent them
// to serve_tool. Each line goes through serve::parse_request and the same
// cutoff resolution the service applies (apply_auto_exhaustive with the
// default 2000 ms budget). The evaluated points are printed on stdout, one
// dse_point_json rendering and one point_wire blob per point, so the caller
// can compare them with what the server streamed. Evaluation runs on a
// ThreadPool of hardware_concurrency() threads.
//
//   --mode check   evaluate_sweep per request (hardware on, one shared
//                  CostCache and pool): the reference for requests whose
//                  fresh seeds make a cached dse_tool export useless.
//   --mode replay  the per-layer split. Every call is timed separately, in
//                  the evaluator's order: SweepSpec::enumerate;
//                  select_error_engine + evaluate_point with hardware off;
//                  kernel-only passes of SlicedMultiplyKernel /
//                  MultiplyKernel over the same operands;
//                  ApproxMultiplier::build_netlist;
//                  CostCache::get_or_synthesize; pareto_analysis;
//                  dse_to_json; point_event; parse_request. The totals come
//                  back as a "layers" object. --spans merges span trees
//                  recorded by other tiers (the benchmark client, the
//                  server's traced requests) with the replay's own spans and
//                  writes them with obs::chrome_trace_json to --trace-out.
//                  cluster.split_functions counts the error functions that
//                  straddle a shard boundary of plan_shards with the
//                  coordinator's default shard count (ClusterOptions).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "api/approx_multiplier.h"
#include "cluster/coordinator.h"
#include "cluster/shard_plan.h"
#include "core/kernels.h"
#include "core/kernels_sliced.h"
#include "dse/cost_cache.h"
#include "dse/evaluator.h"
#include "dse/export.h"
#include "dse/pareto.h"
#include "dse/point_wire.h"
#include "error/calibrate.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "util/json_parse.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace sdlc;
using Clock = std::chrono::steady_clock;

/// The service's default per-point budget for the auto cutoff resolution.
constexpr double kServeBudgetMs = 2000.0;

[[noreturn]] void fail(const std::string& message) {
    std::cerr << "perfbench_replay: " << message << "\n";
    std::exit(2);
}

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) fail("cannot open " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

struct Parsed {
    std::string line;
    serve::SweepRequest request;
    EvalOptions eval;  ///< request.eval with the service's cutoff resolution
};

std::vector<Parsed> read_requests(const std::string& path) {
    std::vector<Parsed> out;
    std::istringstream lines(read_file(path));
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty()) continue;
        Parsed p;
        p.line = line;
        serve::RequestError err;
        if (!serve::parse_request(line, serve::kDefaultMaxRequestBytes, p.request, err) ||
            p.request.type != serve::RequestType::kSweep) {
            fail("not a sweep request: " + line + " (" + err.message + ")");
        }
        p.eval = p.request.eval;
        apply_auto_exhaustive(p.eval, p.request.spec, kServeBudgetMs);
        out.push_back(std::move(p));
    }
    return out;
}

// The sampled engine's operand stream, mirrored from dse/evaluator.cpp
// (private there) so the kernel-only pass draws the very pairs the
// evaluator draws.
uint64_t point_seed(uint64_t base, const MultiplierConfig& c) {
    SplitMix64 sm(base);
    uint64_t s = sm.next() ^ (static_cast<uint64_t>(c.width) << 40);
    s ^= static_cast<uint64_t>(c.depth) << 24;
    s ^= static_cast<uint64_t>(static_cast<int>(c.variant)) << 16;
    s ^= static_cast<uint64_t>(static_cast<int>(c.scheme));
    return SplitMix64(s).next();
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

/// Operand pairs the engine visits for this point.
uint64_t engine_pairs(const MultiplierConfig& c, ErrorEngine engine, const EvalOptions& opts) {
    return engine == ErrorEngine::kSampled ? opts.samples : uint64_t{1} << (2 * c.width);
}

/// Products only, no accumulator: the kernel share of the error engine.
/// Returns a checksum so the products cannot be optimized away.
uint64_t kernel_only(const MultiplierConfig& c, ErrorEngine engine, const EvalOptions& opts) {
    const uint64_t side = uint64_t{1} << c.width;
    uint64_t sink = 0;
    switch (engine) {
        case ErrorEngine::kExhaustiveSliced: {
            const SlicedMultiplyKernel kernel(c);
            SlicedMultiplyKernel::Prepared prep;
            uint64_t out[64];
            const unsigned lanes = kernel.natural_lanes();
            for (uint64_t a = 0; a < side; ++a) {
                kernel.prepare(a, prep);
                for (uint64_t b0 = 0; b0 < side; b0 += lanes) {
                    kernel.multiply_block_prepared(prep, b0, out);
                    for (unsigned l = 0; l < lanes; ++l) sink += out[l];
                }
            }
            break;
        }
        case ErrorEngine::kExhaustiveScalar: {
            const MultiplyKernel kernel(c);
            for (uint64_t a = 0; a < side; ++a) {
                for (uint64_t b = 0; b < side; ++b) sink += kernel(a, b);
            }
            break;
        }
        case ErrorEngine::kSampled: {
            const MultiplyKernel kernel(c);
            Xoshiro256 rng(point_seed(opts.seed, c));
            const uint64_t mask = side - 1;
            for (uint64_t i = 0; i < opts.samples; ++i) {
                const uint64_t a = draw_operand(rng, mask, opts.distribution);
                const uint64_t b = draw_operand(rng, mask, opts.distribution);
                sink += kernel(a, b);
            }
            break;
        }
    }
    return sink;
}

/// Identity of the error function a point evaluates: the scheme only
/// matters to the sampled engine, whose seed folds it in.
using FunctionKey = std::tuple<int, int, int, int, int, uint64_t>;

FunctionKey function_key(const MultiplierConfig& c, ErrorEngine engine,
                         const EvalOptions& opts) {
    const int depth = c.variant == MultiplierVariant::kAccurate ? 0 : c.depth;
    const bool sampled = engine == ErrorEngine::kSampled;
    return {c.width, static_cast<int>(c.variant), depth, static_cast<int>(engine),
            sampled ? static_cast<int>(c.scheme) : -1, sampled ? point_seed(opts.seed, c) : 0};
}

/// Per-layer totals over every replayed request.
struct Layers {
    double engine_s[3] = {0, 0, 0};  ///< evaluate_point by ErrorEngine
    size_t engine_points[3] = {0, 0, 0};
    uint64_t pairs = 0;
    double kernel_s = 0;
    size_t points = 0;
    size_t functions = 0;
    double calibrate_s = 0;
    double netlist_s = 0;
    double synth_s = 0;
    double enumerate_s = 0;
    double pareto_s = 0;
    double export_s = 0;
    size_t export_bytes = 0;
    double parse_s = 0;
    size_t parses = 0;
    size_t requests = 0;
    double point_event_s = 0;
    size_t point_events = 0;
    size_t split_functions = 0;
    uint64_t kernel_checksum = 0;  ///< printed, so the kernel passes stay live
};

class Timer {
public:
    Timer(obs::SpanRecorder& rec, uint64_t parent, const char* name)
        : rec_(rec), parent_(parent), name_(name), start_s_(rec.now()), t0_(Clock::now()) {}

    /// Records the span and returns its duration in seconds.
    double stop() {
        const double dur = seconds_since(t0_);
        obs::Span span;
        span.name = name_;
        span.span_id = rec_.new_span_id();
        span.parent_id = parent_;
        span.start_s = start_s_;
        span.dur_s = dur;
        rec_.record(span);
        return dur;
    }

private:
    obs::SpanRecorder& rec_;
    uint64_t parent_;
    const char* name_;
    double start_s_;
    Clock::time_point t0_;
};

std::vector<DesignPoint> replay_request(const Parsed& p, ThreadPool& pool, CostCache& cache,
                                        obs::SpanRecorder& rec, Layers& L) {
    const uint64_t root = rec.new_span_id();
    const double root_start = rec.now();
    const auto root_t0 = Clock::now();

    // parse_request is microseconds; time a batch of calls for a stable mean.
    constexpr int kParseReps = 200;
    {
        Timer t(rec, root, "parse_request");
        for (int i = 0; i < kParseReps; ++i) {
            serve::SweepRequest r;
            serve::RequestError err;
            if (!serve::parse_request(p.line, serve::kDefaultMaxRequestBytes, r, err)) {
                fail("request no longer parses: " + p.line);
            }
        }
        L.parse_s += t.stop();
        L.parses += kParseReps;
        ++L.requests;
    }

    Timer enumerate_timer(rec, root, "enumerate");
    const std::vector<MultiplierConfig> configs = p.request.spec.enumerate();
    L.enumerate_s += enumerate_timer.stop();

    const size_t n = configs.size();
    EvalOptions error_opts = p.eval;
    error_opts.evaluate_hardware = false;
    error_opts.hw_cache = nullptr;
    std::vector<DesignPoint> points(n);
    std::vector<ErrorEngine> engines(n);
    std::vector<double> eval_s(n, 0.0);
    std::vector<double> kernel_s(n, 0.0);
    std::vector<uint64_t> sinks(n, 0);
    parallel_for(pool, n, [&](size_t i) {
        engines[i] = select_error_engine(configs[i], error_opts);
        Timer eval(rec, root, "evaluate_point");
        points[i] = evaluate_point(configs[i], error_opts);
        eval_s[i] = eval.stop();
        Timer kernel(rec, root, "kernel_only");
        sinks[i] = kernel_only(configs[i], engines[i], error_opts);
        kernel_s[i] = kernel.stop();
    });

    std::map<FunctionKey, std::set<size_t>> function_shards;
    std::vector<size_t> shard_of(n, 0);
    const std::vector<cluster::IndexRange> plan =
        cluster::plan_shards(0, n, cluster::ClusterOptions{}.shards);
    for (size_t s = 0; s < plan.size(); ++s) {
        for (size_t i = plan[s].lo; i < plan[s].hi; ++i) shard_of[i] = s;
    }
    for (size_t i = 0; i < n; ++i) {
        const int e = static_cast<int>(engines[i]);
        L.engine_s[e] += eval_s[i];
        ++L.engine_points[e];
        L.kernel_s += kernel_s[i];
        L.pairs += engine_pairs(configs[i], engines[i], error_opts);
        function_shards[function_key(configs[i], engines[i], error_opts)].insert(shard_of[i]);
        L.kernel_checksum ^= sinks[i];
    }
    L.points += n;
    L.functions += function_shards.size();
    for (const auto& [key, owners] : function_shards) {
        if (owners.size() > 1) ++L.split_functions;
    }

    // Hardware in enumeration order, like a sequential run: the cache
    // counters are then a property of the sweep, not of scheduling.
    if (p.eval.evaluate_hardware) {
        for (size_t i = 0; i < n; ++i) {
            Timer netlist(rec, root, "build_netlist");
            const MultiplierNetlist net = ApproxMultiplier(configs[i]).build_netlist();
            L.netlist_s += netlist.stop();
            Timer synth(rec, root, "get_or_synthesize");
            points[i].hw = cache.get_or_synthesize(net.net, p.eval.library, p.eval.synthesis);
            L.synth_s += synth.stop();
        }
    }

    Timer pareto_timer(rec, root, "pareto_analysis");
    const ParetoResult pareto =
        pareto_analysis(objective_matrix(points, p.request.objectives));
    L.pareto_s += pareto_timer.stop();

    SweepStats stats;
    stats.points = n;
    stats.hw_cache_enabled = p.eval.use_hw_cache;
    stats.engines = tally_error_engines(configs, p.eval);
    stats.cutoff_desc = describe_exhaustive_cutoffs(p.eval);
    Timer export_timer(rec, root, "dse_to_json");
    const std::string exported = dse_to_json(points, pareto.rank, stats, p.request.objectives);
    L.export_s += export_timer.stop();
    L.export_bytes += exported.size();

    Timer event_timer(rec, root, "point_event");
    size_t event_bytes = 0;
    for (size_t i = 0; i < n; ++i) {
        event_bytes += serve::point_event(p.request.id, i, points[i]).size();
    }
    L.point_event_s += event_timer.stop();
    L.point_events += n;
    if (event_bytes == 0 && n > 0) fail("empty point events");

    obs::Span span;
    span.name = "replay " + p.request.id;
    span.span_id = root;
    span.start_s = root_start;
    span.dur_s = seconds_since(root_t0);
    rec.record(span);
    return points;
}

std::vector<DesignPoint> check_request(const Parsed& p, ThreadPool& pool, CostCache& cache) {
    EvalOptions eval = p.eval;
    eval.pool = &pool;
    if (eval.use_hw_cache) eval.hw_cache = &cache;
    return evaluate_sweep(p.request.spec, eval);
}

std::string layers_json(const Layers& L, const CostCache::Stats& cache) {
    const auto e = [&](ErrorEngine x) { return static_cast<int>(x); };
    const double eval_total = L.engine_s[0] + L.engine_s[1] + L.engine_s[2];
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    // Busy seconds per layer, parse_request counted once per request.
    const double dse_s = L.enumerate_s + L.pareto_s + L.export_s;
    const double serve_s =
        ratio(L.parse_s, static_cast<double>(L.parses)) * static_cast<double>(L.requests) +
        L.point_event_s;
    const double busy = eval_total + L.netlist_s + L.synth_s + dse_s + serve_s;
    std::map<std::string, double> m = {
        // Engine splits are shares of eval_s: a workload without some
        // engine then reads 0 as a ratio, never as a constant time.
        {"error.eval_s", eval_total},
        {"error.sliced_share", ratio(L.engine_s[e(ErrorEngine::kExhaustiveSliced)], eval_total)},
        {"error.scalar_share", ratio(L.engine_s[e(ErrorEngine::kExhaustiveScalar)], eval_total)},
        {"error.sampled_share", ratio(L.engine_s[e(ErrorEngine::kSampled)], eval_total)},
        {"error.kernel_s", L.kernel_s},
        {"error.accumulate_s", eval_total - L.kernel_s},
        {"error.pairs", static_cast<double>(L.pairs)},
        {"error.ns_per_pair", 1e9 * ratio(eval_total, static_cast<double>(L.pairs))},
        {"error.points_sliced",
         static_cast<double>(L.engine_points[e(ErrorEngine::kExhaustiveSliced)])},
        {"error.points_scalar",
         static_cast<double>(L.engine_points[e(ErrorEngine::kExhaustiveScalar)])},
        {"error.points_sampled", static_cast<double>(L.engine_points[e(ErrorEngine::kSampled)])},
        {"error.distinct_ratio",
         ratio(static_cast<double>(L.functions), static_cast<double>(L.points))},
        {"error.calibrate_s", L.calibrate_s},
        {"netlist.build_s", L.netlist_s},
        {"tech.synth_s", L.synth_s},
        {"dse.enumerate_s", L.enumerate_s},
        {"dse.pareto_s", L.pareto_s},
        {"dse.export_s", L.export_s},
        {"dse.export_bytes", static_cast<double>(L.export_bytes)},
        {"serve.parse_us", 1e6 * ratio(L.parse_s, static_cast<double>(L.parses))},
        {"serve.point_event_us",
         1e6 * ratio(L.point_event_s, static_cast<double>(L.point_events))},
        {"cluster.split_functions", static_cast<double>(L.split_functions)},
        {"tech.synth_runs", static_cast<double>(cache.misses)},
        {"share.error", ratio(eval_total, busy)},
        {"share.netlist", ratio(L.netlist_s, busy)},
        {"share.tech", ratio(L.synth_s, busy)},
        {"share.dse", ratio(dse_s, busy)},
        {"share.serve", ratio(serve_s, busy)},
        {"dse.cache_hit_ratio", ratio(static_cast<double>(cache.hits),
                                      static_cast<double>(cache.hits + cache.misses))},
    };
    std::string out = "{";
    for (const auto& [key, value] : m) {
        if (out.size() > 1) out += ", ";
        out += "\"" + key + "\": " + num(value);
    }
    return out + "}";
}

/// Reads span trees recorded by other tiers: a JSON array of
/// {"request": id, "trace_id": 32 hex, "spans": [spans_wire_json entries]}.
std::vector<obs::TraceTree> read_span_trees(const std::string& path) {
    JsonValue root;
    if (!json_parse(read_file(path), root) || !root.is_array()) fail("bad span file " + path);
    std::vector<obs::TraceTree> trees;
    for (const JsonValue& entry : root.array) {
        obs::TraceTree tree;
        const JsonValue* request = entry.find("request");
        const JsonValue* trace_id = entry.find("trace_id");
        const JsonValue* spans = entry.find("spans");
        std::string error;
        if (request == nullptr || !request->is_string() || trace_id == nullptr ||
            !trace_id->is_string() ||
            !obs::parse_trace_id_hex(trace_id->string, tree.trace_hi, tree.trace_lo) ||
            spans == nullptr || !obs::parse_spans_wire(*spans, tree.spans, &error)) {
            fail("bad span tree in " + path + " " + error);
        }
        tree.request_id = request->string;
        trees.push_back(std::move(tree));
    }
    return trees;
}

}  // namespace

int main(int argc, char** argv) {
    std::map<std::string, std::string> args = {{"--mode", "replay"}};
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        if (key != "--requests" && key != "--mode" && key != "--spans" && key != "--trace-out") {
            fail("unknown option " + key);
        }
        args[key] = argv[i + 1];
    }
    if (argc % 2 == 0 || args.count("--requests") == 0) {
        fail("usage: perfbench_replay --requests FILE [--mode check|replay] [--spans FILE] "
             "[--trace-out FILE]");
    }
    const bool replay = args["--mode"] == "replay";
    if (!replay && args["--mode"] != "check") fail("--mode must be check or replay");

    try {
        Layers layers;
        if (replay) {
            // What the service pays once, on its first request wider than the
            // fixed cutoff.
            const auto t0 = Clock::now();
            (void)measure_engine_calibration();
            layers.calibrate_s = seconds_since(t0);
        }
        const std::vector<Parsed> requests = read_requests(args["--requests"]);
        ThreadPool pool;
        CostCache cache;
        obs::SpanRecorder rec("replay", 0x7265706c6179ULL);

        std::string out = "{\"requests\": [";
        for (size_t r = 0; r < requests.size(); ++r) {
            const Parsed& p = requests[r];
            const std::vector<DesignPoint> points =
                replay ? replay_request(p, pool, cache, rec, layers)
                       : check_request(p, pool, cache);
            if (r != 0) out += ", ";
            out += "{\"id\": \"" + p.request.id + "\", \"points\": [";
            for (size_t i = 0; i < points.size(); ++i) {
                out += (i == 0 ? "" : ", ") + dse_point_json(points[i], -1);
            }
            out += "], \"bits\": [";
            for (size_t i = 0; i < points.size(); ++i) {
                out += (i == 0 ? "\"" : ", \"") + design_point_bits(points[i]) + "\"";
            }
            out += "]}";
        }
        out += "]";
        if (replay) {
            out += ", \"layers\": " + layers_json(layers, cache.stats());
            out += ", \"kernel_checksum\": \"" + std::to_string(layers.kernel_checksum) + "\"";
        }
        out += "}";
        std::cout << out << "\n";

        if (replay && args.count("--trace-out") != 0) {
            std::vector<obs::TraceTree> trees;
            if (args.count("--spans") != 0) trees = read_span_trees(args["--spans"]);
            obs::TraceTree mine;
            mine.request_id = "replay";
            mine.trace_hi = 0x7065726662656e63ULL;  // "perfbenc"
            mine.trace_lo = 0x68207265706c6179ULL;  // "h replay"
            mine.spans = rec.take();
            trees.push_back(std::move(mine));
            std::ofstream trace(args["--trace-out"], std::ios::binary | std::ios::trunc);
            trace << obs::chrome_trace_json(trees);
            if (!trace.flush()) fail("cannot write " + args["--trace-out"]);
        }
        return 0;
    } catch (const std::exception& e) {
        fail(e.what());
    }
}
