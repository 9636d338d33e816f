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
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <fstream>

#include "cluster/coordinator.h"
#include "dse/evaluator.h"
#include "dse/export.h"
#include "dse/pareto.h"
#include "dse/sweep.h"
#include "obs/trace.h"
#include "serve/socket.h"
#include "util/table.h"

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

/// --key value pairs plus boolean flags; unknown options are rejected so a
/// typo'd flag cannot silently run the wrong sweep.
class Args {
public:
    Args(int argc, char** argv) {
        static const std::set<std::string> kValueKeys = {
            "--width",   "--widths",   "--depth-min", "--depth-max", "--variants",
            "--schemes", "--threads",  "--seed",      "--samples",   "--dist",
            "--exhaustive-max-width",  "--top",      "--by",        "--max-nmed",
            "--max-mred", "--max-area", "--max-power", "--max-delay", "--csv",
            "--json",     "--repeat",   "--objectives", "--workers",
            "--shards",   "--shard-timeout-ms",           "--shard-retries",
            "--trace-out"};
        for (int i = 1; i < argc; ++i) {
            std::string key = argv[i];
            if (key == "--help" || key == "-h") usage();
            if (key == "--frontier") {
                flags_["frontier"] = true;
                continue;
            }
            if (key == "--no-hw-cache") {
                flags_["no-hw-cache"] = true;
                continue;
            }
            if (kValueKeys.count(key) == 0) usage("unknown option " + key);
            if (i + 1 >= argc) usage("missing value for " + key);
            values_[key] = argv[++i];
        }
    }
    [[nodiscard]] std::string get(const std::string& key, const std::string& dflt = "") const {
        const auto it = values_.find(key);
        return it == values_.end() ? dflt : it->second;
    }
    [[nodiscard]] bool has(const std::string& key) const { return values_.count(key) != 0; }
    [[nodiscard]] int get_int(const std::string& key, int dflt) const {
        const std::string v = get(key);
        return v.empty() ? dflt : std::stoi(v);
    }
    [[nodiscard]] uint64_t get_uint64(const std::string& key, uint64_t dflt) const {
        const std::string v = get(key);
        if (v.empty()) return dflt;
        if (v.find('-') != std::string::npos) usage(key + " must be non-negative");
        return std::stoull(v, nullptr, 0);
    }
    [[nodiscard]] double get_double(const std::string& key, double dflt) const {
        const std::string v = get(key);
        return v.empty() ? dflt : std::stod(v);
    }
    [[nodiscard]] bool flag(const std::string& key) const { return flags_.count(key) != 0; }

private:
    std::map<std::string, std::string> values_;
    std::map<std::string, bool> flags_;
};

std::vector<std::string> split_commas(const std::string& list) {
    std::vector<std::string> out;
    std::istringstream in(list);
    std::string item;
    while (std::getline(in, item, ',')) {
        if (!item.empty()) out.push_back(item);
    }
    return out;
}

SweepSpec spec_from(const Args& args) {
    SweepSpec spec;
    if (args.has("--widths")) {
        const std::string range = args.get("--widths");
        const size_t dash = range.find('-');
        if (dash == std::string::npos) usage("--widths expects A-B, got " + range);
        const int lo = std::stoi(range.substr(0, dash));
        const int hi = std::stoi(range.substr(dash + 1));
        if (lo > hi) usage("--widths range is empty");
        spec.widths.clear();
        for (int w = lo; w <= hi; ++w) spec.widths.push_back(w);
    } else {
        spec.widths = {args.get_int("--width", 8)};
    }
    spec.min_depth = args.get_int("--depth-min", 1);
    spec.max_depth = args.get_int("--depth-max", 0);

    if (args.has("--variants")) {
        spec.variants.clear();
        for (const std::string& v : split_commas(args.get("--variants"))) {
            MultiplierVariant variant;
            if (!parse_multiplier_variant(v, variant)) usage("unknown variant " + v);
            spec.variants.push_back(variant);
        }
    }
    if (args.has("--schemes")) {
        spec.schemes.clear();
        for (const std::string& s : split_commas(args.get("--schemes"))) {
            AccumulationScheme scheme;
            if (!parse_accumulation_scheme(s, scheme)) usage("unknown scheme " + s);
            spec.schemes.push_back(scheme);
        }
    }
    return spec;
}

EvalOptions options_from(const Args& args) {
    EvalOptions opts;
    const int threads = args.get_int("--threads", 0);
    if (threads < 0) usage("--threads must be >= 0");
    opts.threads = static_cast<unsigned>(threads);
    opts.seed = args.get_uint64("--seed", opts.seed);
    opts.samples = args.get_uint64("--samples", opts.samples);
    // Zero samples would export every sampled point as error-free.
    if (opts.samples == 0) usage("--samples must be >= 1");
    opts.exhaustive_max_width = args.get_int("--exhaustive-max-width", opts.exhaustive_max_width);
    if (opts.exhaustive_max_width < 0 || opts.exhaustive_max_width > kMaxExhaustiveWidth) {
        usage("--exhaustive-max-width must be in [0, " + std::to_string(kMaxExhaustiveWidth) +
              "]");
    }
    const std::string dist = args.get("--dist", "uniform");
    if (dist == "uniform") opts.distribution = OperandDistribution::kUniform;
    else if (dist == "gaussian") opts.distribution = OperandDistribution::kGaussian;
    else if (dist == "sparse") opts.distribution = OperandDistribution::kSparse;
    else usage("unknown distribution " + dist);
    opts.use_hw_cache = !args.flag("no-hw-cache");
    return opts;
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

/// Validated cluster fan-out options from --workers and friends; empty
/// workers means local evaluation. Shard knobs without --workers are a
/// usage error — they would silently do nothing.
cluster::ClusterOptions cluster_options_from(const Args& args) {
    cluster::ClusterOptions cluster;
    if (!args.has("--workers")) {
        for (const char* flag : {"--shards", "--shard-timeout-ms", "--shard-retries"}) {
            if (args.has(flag)) usage(std::string(flag) + " requires --workers LIST");
        }
        return cluster;
    }
    std::string error;
    if (!serve::parse_endpoint_list(args.get("--workers"), cluster.workers, &error)) {
        usage("--workers: " + error);
    }
    if (cluster.workers.empty()) usage("--workers: empty worker list");
    const int shards = args.get_int("--shards", 32);
    if (shards < 1) usage("--shards must be >= 1");
    cluster.shards = static_cast<size_t>(shards);
    cluster.shard_timeout_ms = args.get_int("--shard-timeout-ms", 60000);
    if (cluster.shard_timeout_ms < 0) usage("--shard-timeout-ms must be >= 0");
    cluster.shard_retries = args.get_int("--shard-retries", 2);
    if (cluster.shard_retries < 0) usage("--shard-retries must be >= 0");
    return cluster;
}

Objective objective_from(const Args& args) {
    const std::string by = args.get("--by", "error");
    Objective o;
    if (!parse_objective(by, o)) usage("unknown objective " + by);
    return o;
}

ObjectiveSet objective_set_from(const Args& args) {
    if (!args.has("--objectives")) return default_objectives();
    ObjectiveSet set;
    std::string error;
    if (!parse_objective_set(split_commas(args.get("--objectives")), set, &error)) {
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
        const Args args(argc, argv);
        const SweepSpec spec = spec_from(args);
        EvalOptions opts = options_from(args);
        const Objective by = objective_from(args);  // validate before the sweep runs
        const ObjectiveSet objectives = objective_set_from(args);
        const int repeat = args.get_int("--repeat", 1);
        if (repeat < 1) usage("--repeat must be >= 1");

        // One cache shared across --repeat runs: run 1 is cold, the rest warm.
        CostCache cache;
        if (opts.use_hw_cache) opts.hw_cache = &cache;

        const cluster::ClusterOptions cluster = cluster_options_from(args);
        const bool clustered = !cluster.workers.empty();

        // --trace-out: record spans on a client-tier recorder seeded from the
        // sweep seed (deterministic ids). The root context carries span_id 0
        // so top-level spans are roots of the assembled tree. Tracing rides
        // EvalOptions only — sweep results and exports are unaffected.
        const std::string trace_out = args.get("--trace-out");
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
        auto drop_if = [&points](auto pred) {
            points.erase(std::remove_if(points.begin(), points.end(), pred), points.end());
        };
        if (args.has("--max-nmed")) {
            const double v = args.get_double("--max-nmed", 0);
            drop_if([v](const DesignPoint& p) { return p.error.nmed > v; });
        }
        if (args.has("--max-mred")) {
            const double v = args.get_double("--max-mred", 0);
            drop_if([v](const DesignPoint& p) { return p.error.mred > v; });
        }
        if (args.has("--max-area")) {
            const double v = args.get_double("--max-area", 0);
            drop_if([v](const DesignPoint& p) { return p.hw.area_um2 > v; });
        }
        if (args.has("--max-power")) {
            const double v = args.get_double("--max-power", 0);
            drop_if([v](const DesignPoint& p) { return p.hw.dynamic_power_uw > v; });
        }
        if (args.has("--max-delay")) {
            const double v = args.get_double("--max-delay", 0);
            drop_if([v](const DesignPoint& p) { return p.hw.delay_ps > v; });
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

        const bool frontier_only = args.flag("frontier");
        const size_t top_k = static_cast<size_t>(args.get_int("--top", 0));

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

        if (const std::string csv = args.get("--csv"); !csv.empty()) {
            write_dse_csv(csv, points, pareto.rank);
            std::cout << "csv -> " << csv << "\n";
        }
        if (const std::string json = args.get("--json"); !json.empty()) {
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
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
