// dse_tool — parallel design-space exploration with Pareto frontier analysis.
//
//   dse_tool [--width N | --widths A-B] [--depth-min D] [--depth-max D]
//            [--variants v,v,...] [--schemes s,s,...]
//            [--threads N] [--seed S] [--samples K] [--dist uniform|gaussian|sparse]
//            [--exhaustive-max-width W] [--no-hw-cache] [--repeat K]
//            [--objectives o,o,...] [--frontier] [--top K] [--by OBJ]
//            [--max-nmed X] [--max-mred X] [--max-area X] [--max-power X]
//            [--max-delay X]
//            [--csv file.csv] [--json file.json] [--trace-out file.json]
//
// Modes:
//   default      print every evaluated point with its dominance rank
//   --frontier   print only the Pareto frontier (rank 0)
//   --top K      print the K best points by --by (default: error)
// Filters (--max-*) drop points before the Pareto analysis.
//
// --objectives selects the frontier axes (any of error, area, power,
// delay, energy, maxred; default error,area,power,delay) — dominance
// ranks, the frontier and exported ranks are all computed over exactly
// that set.
//
// --repeat K evaluates the sweep K times sharing one hardware cache (run 1
// cold, later runs warm) and *fails* unless every run reproduces run 1
// bit-exactly — the CI determinism guard for the cached path. No error
// memo is shared, so every run re-evaluates error and the guard rechecks
// the engines too. The exports are a pure function of the sweep, so
// --repeat never changes them.
//
// Output is deterministic: for a fixed sweep and seed it is identical up
// to the "sweep time:" and "hw cache:" summary lines (wall time and raw,
// scheduling-dependent cache counters) regardless of --threads and
// --no-hw-cache.
#include <algorithm>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <fstream>

#include "cluster/coordinator.h"
#include "dse/evaluator.h"
#include "dse/export.h"
#include "dse/pareto.h"
#include "dse/sweep.h"
#include "obs/trace.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace sdlc;

[[noreturn]] void usage(const std::string& msg = "") {
    if (!msg.empty()) std::cerr << "error: " << msg << "\n\n";
    std::cerr <<
        "usage: dse_tool [options]\n"
        "  sweep axes:\n"
        "    --width N            single width (default 8)\n"
        "    --widths A-B         width range, e.g. 4-16\n"
        "    --depth-min D        minimum cluster depth (default 1)\n"
        "    --depth-max D        maximum cluster depth (default: width)\n"
        "    --variants LIST      comma list of accurate,sdlc,compensated\n"
        "    --schemes LIST       comma list of ripple,wallace,dadda,fastcpa\n"
        "  evaluation:\n"
        "    --threads N          worker threads (default: hardware)\n"
        "    --seed S             base RNG seed (default 0x5d1c5eed)\n"
        "    --samples K          Monte-Carlo samples for wide operands (>= 1)\n"
        "    --dist D             uniform|gaussian|sparse sampling distribution\n"
        "    --exhaustive-max-width W  exhaustive error evaluation at or below width\n"
        "                         W, sampling above it; 0..16 (default 14)\n"
        "    --no-hw-cache        disable the content-keyed synthesis cache\n"
        "    --repeat K           evaluate the sweep K times (warm-cache runs);\n"
        "                         exits 1 unless all runs are bit-identical\n"
        "  cluster (shard the sweep across serve_tool replicas; the merged\n"
        "  output is byte-identical to a local run):\n"
        "    --workers LIST       comma list of serve_tool replicas (unix:PATH or\n"
        "                         HOST:PORT each)\n"
        "    --shards N           fixed shards per sweep (default 32)\n"
        "    --shard-timeout-ms N per-shard read-silence budget before a worker\n"
        "                         is declared dead (default 60000; 0 = none)\n"
        "    --shard-retries N    remote re-dispatches per shard after its first\n"
        "                         failure before it runs locally (default 2)\n"
        "  selection:\n"
        "    --objectives LIST    frontier axes: comma list of error,area,power,\n"
        "                         delay,energy,maxred (default error,area,power,delay)\n"
        "    --frontier           print only Pareto rank-0 points\n"
        "    --top K              print K best points by --by\n"
        "    --by OBJ             error|area|power|delay|energy|maxred (default error)\n"
        "    --max-nmed/--max-mred/--max-area/--max-power/--max-delay X\n"
        "  export:\n"
        "    --csv FILE  --json FILE\n"
        "  observability:\n"
        "    --trace-out FILE     record per-stage spans (client tier plus any\n"
        "                         cluster workers) and write a Chrome trace-event\n"
        "                         JSON loadable in Perfetto; never changes sweep\n"
        "                         results or exports\n";
    std::exit(msg.empty() ? 0 : 2);
}

SweepSpec spec_from(const CommandLine& cli) {
    SweepSpec spec;
    // SweepSpec's width range, checked before a range is expanded.
    if (cli.has("--widths")) {
        const std::string range = cli.get("--widths");
        const size_t dash = range.find('-');
        if (dash == std::string::npos) usage("--widths expects A-B, got " + range);
        const int lo = parse_int("--widths", std::string_view(range).substr(0, dash), 2, 32);
        const int hi = parse_int("--widths", std::string_view(range).substr(dash + 1), 2, 32);
        if (lo > hi) usage("--widths range is empty");
        spec.widths.clear();
        for (int w = lo; w <= hi; ++w) spec.widths.push_back(w);
    } else {
        spec.widths = {cli.get_int("--width", 8, 2, 32)};
    }
    spec.min_depth = cli.get_int("--depth-min", 1);
    spec.max_depth = cli.get_int("--depth-max", 0);

    if (cli.has("--variants")) {
        spec.variants.clear();
        for (const std::string& v : cli.get_list("--variants")) {
            MultiplierVariant variant;
            if (!parse_multiplier_variant(v, variant)) usage("unknown variant " + v);
            spec.variants.push_back(variant);
        }
    }
    if (cli.has("--schemes")) {
        spec.schemes.clear();
        for (const std::string& s : cli.get_list("--schemes")) {
            AccumulationScheme scheme;
            if (!parse_accumulation_scheme(s, scheme)) usage("unknown scheme " + s);
            spec.schemes.push_back(scheme);
        }
    }
    return spec;
}

EvalOptions options_from(const CommandLine& cli) {
    EvalOptions opts;
    opts.threads = static_cast<unsigned>(cli.get_int("--threads", 0, 0));
    opts.seed = cli.get_uint64("--seed", opts.seed);
    opts.samples = cli.get_uint64("--samples", opts.samples);
    // Zero samples would export every sampled point as error-free.
    if (opts.samples == 0) usage("--samples must be >= 1");
    opts.exhaustive_max_width = cli.get_int("--exhaustive-max-width", opts.exhaustive_max_width,
                                            0, kMaxExhaustiveWidth);
    const std::string dist = cli.get("--dist", "uniform");
    if (!parse_operand_distribution(dist, opts.distribution)) usage("unknown distribution " + dist);
    opts.use_hw_cache = !cli.has("--no-hw-cache");
    return opts;
}

/// A --max-* constraint: the points whose `value` exceeds `bound` are
/// dropped before the Pareto analysis.
struct Filter {
    const char* option;
    double (*value)(const DesignPoint&);
    double bound = 0.0;
};

std::vector<Filter> filters_from(const CommandLine& cli) {
    std::vector<Filter> filters;
    for (Filter f : {Filter{"--max-nmed", [](const DesignPoint& p) { return p.error.nmed; }},
                     Filter{"--max-mred", [](const DesignPoint& p) { return p.error.mred; }},
                     Filter{"--max-area", [](const DesignPoint& p) { return p.hw.area_um2; }},
                     Filter{"--max-power",
                            [](const DesignPoint& p) { return p.hw.dynamic_power_uw; }},
                     Filter{"--max-delay", [](const DesignPoint& p) { return p.hw.delay_ps; }}}) {
        if (!cli.has(f.option)) continue;
        f.bound = cli.get_double(f.option, 0.0);
        filters.push_back(f);
    }
    return filters;
}

/// Bit-exact equality of two evaluated sweeps (the determinism contract of
/// the cached path: a warm run must reproduce the cold run).
bool sweeps_identical(const std::vector<DesignPoint>& a, const std::vector<DesignPoint>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].error != b[i].error || !(a[i].hw == b[i].hw)) return false;
    }
    return true;
}

Objective objective_from(const CommandLine& cli) {
    const std::string by = cli.get("--by", "error");
    Objective o;
    if (!parse_objective(by, o)) usage("unknown objective " + by);
    return o;
}

ObjectiveSet objective_set_from(const CommandLine& cli) {
    if (!cli.has("--objectives")) return default_objectives();
    ObjectiveSet set;
    std::string error;
    if (!parse_objective_set(cli.get_list("--objectives"), set, &error)) {
        usage(error);
    }
    return set;
}

void add_point_row(TextTable& table, const DesignPoint& p, int rank) {
    table.add_row({std::to_string(rank),
                   std::to_string(p.config.width),
                   p.config.variant == MultiplierVariant::kAccurate
                       ? std::string("-")
                       : std::to_string(p.config.depth),
                   multiplier_variant_name(p.config.variant),
                   accumulation_scheme_name(p.config.scheme),
                   fmt_fixed(p.error.nmed, 8),
                   fmt_percent(p.error.mred, 4),
                   fmt_fixed(p.hw.area_um2, 1),
                   fmt_fixed(p.hw.dynamic_power_uw, 2),
                   fmt_fixed(p.hw.delay_ps, 1),
                   fmt_fixed(p.hw.energy_fj, 1)});
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const CommandLine cli(
            argc, argv,
            {"--width", "--widths", "--depth-min", "--depth-max", "--variants", "--schemes",
             "--threads", "--seed", "--samples", "--dist", "--exhaustive-max-width", "--top",
             "--by", "--max-nmed", "--max-mred", "--max-area", "--max-power", "--max-delay",
             "--csv", "--json", "--repeat", "--objectives", "--workers", "--shards",
             "--shard-timeout-ms", "--shard-retries", "--trace-out"},
            {"--frontier", "--no-hw-cache"});
        if (cli.help()) usage();
        // Every option is read before the sweep runs, so a bad value is a
        // usage error in milliseconds, not a failure after the evaluation.
        const SweepSpec spec = spec_from(cli);
        EvalOptions opts = options_from(cli);
        const Objective by = objective_from(cli);
        const ObjectiveSet objectives = objective_set_from(cli);
        const int repeat = cli.get_int("--repeat", 1, 1);
        const size_t top_k = static_cast<size_t>(cli.get_int("--top", 0, 0));
        const std::vector<Filter> filters = filters_from(cli);

        // One cache shared across --repeat runs: run 1 is cold, the rest warm.
        CostCache cache;
        if (opts.use_hw_cache) opts.hw_cache = &cache;

        const cluster::ClusterOptions cluster = cluster::cluster_options_from(cli);
        const bool clustered = !cluster.workers.empty();

        // --trace-out: record spans on a client-tier recorder seeded from the
        // sweep seed (deterministic ids). The root context carries span_id 0
        // so top-level spans are roots of the assembled tree. Tracing rides
        // EvalOptions only — sweep results and exports are unaffected.
        const std::string trace_out = cli.get("--trace-out");
        std::unique_ptr<obs::SpanRecorder> trace_recorder;
        obs::TraceContext trace_root;
        if (!trace_out.empty()) {
            trace_recorder = std::make_unique<obs::SpanRecorder>("client", opts.seed);
            trace_root.trace_hi = trace_recorder->new_span_id();
            trace_root.trace_lo = trace_recorder->new_span_id();
            trace_root.span_id = 0;
            trace_root.valid = true;
            opts.recorder = trace_recorder.get();
            opts.trace = trace_root;
        }
        // One pool of --threads workers for every sweep this process runs:
        // each --repeat run, and every shard a --workers sweep evaluates
        // here.
        ThreadPool pool(opts.threads);
        opts.pool = &pool;
        serve::ClusterCounters cluster_totals;
        auto run_sweep = [&](SweepStats& out) {
            if (!clustered) return evaluate_sweep(spec, opts, &out);
            serve::ClusterCounters delta;
            std::vector<DesignPoint> result =
                cluster::distributed_sweep(spec, opts, cluster, &out, &delta);
            cluster_totals.add(delta);
            return result;
        };

        SweepStats stats;  // of run 1 — what the summary and JSON report
        std::vector<DesignPoint> points = run_sweep(stats);
        std::vector<SweepStats> run_stats = {stats};
        for (int r = 2; r <= repeat; ++r) {
            SweepStats warm;
            const std::vector<DesignPoint> again = run_sweep(warm);
            run_stats.push_back(warm);
            if (!sweeps_identical(points, again)) {
                std::cerr << "error: repeat run " << r << " diverged from run 1 — the "
                          << (opts.use_hw_cache ? "warm-cache" : "uncached")
                          << " path is not deterministic\n";
                return 1;
            }
        }
        const size_t evaluated = points.size();

        // Constraint filters run before the Pareto analysis so the frontier
        // is the frontier of the *feasible* region.
        for (const Filter& f : filters) {
            std::erase_if(points, [&f](const DesignPoint& p) { return f.value(p) > f.bound; });
        }

        const ParetoResult pareto = pareto_analysis(objective_matrix(points, objectives));

        // Display order: by the selected objective, ties broken by area and
        // then by enumeration order (stable) — deterministic across runs.
        std::vector<size_t> order(points.size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            if (points[a].objective(by) != points[b].objective(by)) {
                return points[a].objective(by) < points[b].objective(by);
            }
            return points[a].hw.area_um2 < points[b].hw.area_um2;
        });

        const bool frontier_only = cli.has("--frontier");

        std::cout << "DSE sweep: " << spec.describe() << "\n"
                  << "evaluated " << evaluated << " points";
        if (points.size() != evaluated) {
            std::cout << " (" << points.size() << " after filters)";
        }
        std::cout << ", frontier " << pareto.frontier.size() << " points over ("
                  << objective_set_name(objectives) << "), dist "
                  << operand_distribution_name(opts.distribution) << "\n";
        if (stats.hw_cache_enabled) {
            // Raw totals across every run; scheduling-dependent, so this line
            // is observability only (like "sweep time:") and is never part
            // of any byte-compared output.
            const CostCache::Stats cs = cache.stats();
            std::cout << "hw cache: on — " << cs.hits << " hits, " << cs.misses
                      << " misses\n";
        } else {
            std::cout << "hw cache: off\n";
        }
        std::cout << "error engines: " << stats.engines.sliced << " sliced, "
                  << stats.engines.scalar << " scalar, " << stats.engines.sampled
                  << " sampled — cutoff " << stats.cutoff_desc << "\n";
        if (clustered) {
            // Totals across every run; like the hw-cache line this is
            // observability only and never part of byte-compared output.
            uint64_t dispatched = 0;
            uint64_t completed = 0;
            uint64_t retried = 0;
            for (const serve::ClusterWorkerCounters& w : cluster_totals.workers) {
                dispatched += w.dispatched;
                completed += w.completed;
                retried += w.retried;
            }
            std::cout << "cluster: " << cluster.workers.size() << " worker"
                      << (cluster.workers.size() == 1 ? "" : "s") << ", " << cluster.shards
                      << " shards — " << dispatched << " dispatched, " << completed
                      << " completed, " << retried << " retried, "
                      << cluster_totals.local_shards << " local\n";
        }
        std::cout << "sweep time:";
        for (size_t r = 0; r < run_stats.size(); ++r) {
            std::cout << (r == 0 ? " " : ", ") << fmt_fixed(run_stats[r].wall_seconds, 3)
                      << " s (run " << (r + 1);
            if (run_stats.size() > 1) std::cout << (r == 0 ? " cold" : " warm");
            std::cout << ")";
        }
        std::cout << "\n";
        if (repeat > 1) {
            std::cout << "repeat: " << repeat << " runs bit-identical\n";
        }
        std::cout << "\n";

        TextTable table({"rank", "width", "depth", "variant", "scheme", "NMED", "MRED(%)",
                         "area(um2)", "power(uW)", "delay(ps)", "energy(fJ)"});
        size_t printed = 0;
        for (size_t i : order) {
            if (frontier_only && pareto.rank[i] != 0) continue;
            add_point_row(table, points[i], pareto.rank[i]);
            if (top_k != 0 && ++printed >= top_k) break;
        }
        table.print(std::cout);
        if (frontier_only) {
            std::cout << "\n(" << table.row_count() << " Pareto-optimal points over "
                      << objective_set_name(objectives) << ")\n";
        }

        if (const std::string csv = cli.get("--csv"); !csv.empty()) {
            write_dse_csv(csv, points, pareto.rank);
            std::cout << "csv -> " << csv << "\n";
        }
        if (const std::string json = cli.get("--json"); !json.empty()) {
            write_dse_json(json, points, pareto.rank, stats, objectives);
            std::cout << "json -> " << json << "\n";
        }
        if (trace_recorder != nullptr) {
            obs::TraceTree tree;
            tree.request_id = "dse";
            tree.trace_hi = trace_root.trace_hi;
            tree.trace_lo = trace_root.trace_lo;
            tree.spans = trace_recorder->take();
            std::ofstream trace_file(trace_out, std::ios::binary | std::ios::trunc);
            trace_file << obs::chrome_trace_json({tree});
            if (!trace_file.flush()) {
                std::cerr << "error: cannot write trace to " << trace_out << "\n";
                return 1;
            }
            std::cout << "trace -> " << trace_out << " (" << tree.spans.size()
                      << " spans)\n";
        }
        return 0;
    } catch (const UsageError& e) {
        usage(e.what());
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
