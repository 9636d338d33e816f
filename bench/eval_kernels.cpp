// Kernel-dispatch throughput: plan-interpreter vs fast-path kernels vs the
// sliced engine vs the sampled block kernel, plus the end-to-end effect on
// the default DSE sweep (cold and warm hardware cache) and a width-12
// exhaustive engine comparison over every sdlc and compensated depth.
// Writes BENCH_eval.json so the perf trajectory is tracked across PRs.
//
//   --quick       lighter per-config measurement budget
//   --csv FILE    also dump the per-config table as CSV
//   --json FILE   JSON output path (default: BENCH_eval.json in the CWD)
//   --check FILE  regression guard: compare the measured sliced
//                 engine against a committed BENCH_eval.json record and
//                 exit nonzero when the sliced engine regressed by more
//                 than 30% on any width-12 exhaustive row, or when a row
//                 is on one side only (committed but not measured, or
//                 measured but not committed). The guard compares
//                 scalar-normalized speedups, not raw ns/op, so it
//                 measures the sliced engine's health rather than the
//                 machine the record was committed from. The output names
//                 the lane block the sliced rows ran on: "avx512" or
//                 "portable" (error/metrics.h).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "api/approx_multiplier.h"
#include "bench_util.h"
#include "core/kernels.h"
#include "core/kernels_sampled.h"
#include "core/kernels_sliced.h"
#include "dse/evaluator.h"
#include "dse/sweep.h"
#include "error/evaluate.h"
#include "error/evaluate_sliced.h"
#include "error/metrics.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/json_parse.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace sdlc;
using Clock = std::chrono::steady_clock;

/// ns/op of `fn(a, b)` over a reproducible operand stream, re-running the
/// batch until the total wall time is trustworthy.
template <typename Fn>
double measure_ns_per_op(int width, uint64_t ops_per_batch, double min_seconds, Fn&& fn) {
    const uint64_t mask = (uint64_t{1} << width) - 1;
    uint64_t ops = 0;
    uint64_t sink = 0;
    const auto t0 = Clock::now();
    double secs = 0.0;
    do {
        Xoshiro256 rng(0x5d1cbe9c);  // same stream every batch and every build
        for (uint64_t i = 0; i < ops_per_batch; ++i) {
            const uint64_t a = rng.next() & mask;
            const uint64_t b = rng.next() & mask;
            sink ^= fn(a, b);
        }
        ops += ops_per_batch;
        secs = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (secs < min_seconds);
    // Keep the accumulated result observable so the loop cannot fold away.
    asm volatile("" : : "g"(sink) : "memory");
    return secs * 1e9 / static_cast<double>(ops);
}

/// ns/op of the sampled kernel over measure_ns_per_op's operand stream,
/// drawn into blocks of 64 pairs and evaluated one block per call, as the
/// sampled engine does.
double measure_sampled_ns_per_op(const SampledMultiplyKernel& kernel, uint64_t ops_per_batch,
                                 double min_seconds) {
    constexpr unsigned kBlock = SampledMultiplyKernel::kMaxPairs;
    const uint64_t mask = (uint64_t{1} << kernel.config().width) - 1;
    uint64_t a[kBlock], b[kBlock], out[kBlock];
    uint64_t ops = 0;
    uint64_t sink = 0;
    const auto t0 = Clock::now();
    double secs = 0.0;
    do {
        Xoshiro256 rng(0x5d1cbe9c);  // measure_ns_per_op's stream
        for (uint64_t i = 0; i < ops_per_batch; i += kBlock) {
            const unsigned n = static_cast<unsigned>(std::min<uint64_t>(kBlock, ops_per_batch - i));
            for (unsigned l = 0; l < n; ++l) {
                a[l] = rng.next() & mask;
                b[l] = rng.next() & mask;
            }
            kernel.multiply(a, b, n, out);
            for (unsigned l = 0; l < n; ++l) sink ^= out[l];
        }
        ops += ops_per_batch;
        secs = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (secs < min_seconds);
    asm volatile("" : : "g"(sink) : "memory");
    return secs * 1e9 / static_cast<double>(ops);
}

/// ns per product through the sliced engine, measured the way a
/// sweep consumes it: prepare(a) once per stripe, then every aligned block
/// of the full b range. Products per stripe = 2^width.
double measure_sliced_ns_per_op(const SlicedMultiplyKernel& kernel, double min_seconds) {
    const int width = kernel.config().width;
    const uint64_t mask = (uint64_t{1} << width) - 1;
    const uint64_t side = uint64_t{1} << width;
    const unsigned lanes = kernel.natural_lanes();
    uint64_t out[64];
    SlicedMultiplyKernel::Prepared prep;
    uint64_t ops = 0;
    uint64_t sink = 0;
    const auto t0 = Clock::now();
    double secs = 0.0;
    do {
        Xoshiro256 rng(0x5d1cbe9c);
        for (int stripe = 0; stripe < 64; ++stripe) {
            kernel.prepare(rng.next() & mask, prep);
            for (uint64_t b0 = 0; b0 < side; b0 += lanes) {
                kernel.multiply_block_prepared(prep, b0, out);
                sink ^= out[0] ^ out[lanes - 1];
            }
        }
        ops += 64 * side;
        secs = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (secs < min_seconds);
    asm volatile("" : : "g"(sink) : "memory");
    return secs * 1e9 / static_cast<double>(ops);
}

struct KernelRow {
    MultiplierConfig config;
    const char* path;
    double interp_ns = 0.0;
    double kernel_ns = 0.0;
    double sliced_ns = 0.0;  ///< 0 when the config is not sliced-eligible
    double sampled_ns = 0.0;  ///< 0 when the config is not sampled-eligible
};

/// One width-12 exhaustive engine-comparison row: the full 16.7M-pair
/// sweep, ErrorAccumulator included, through both engines.
struct EngineRow {
    MultiplierConfig config;
    double scalar_seconds = 0.0;
    double sliced_seconds = 0.0;
    [[nodiscard]] double speedup() const { return scalar_seconds / sliced_seconds; }
    [[nodiscard]] double sliced_ns_per_op() const {
        const double pairs = static_cast<double>(uint64_t{1} << (2 * config.width));
        return sliced_seconds * 1e9 / pairs;
    }
};

/// Regression guard: the committed record and this run must hold the same
/// width-12 rows, and each must keep at least 1/1.3 of its committed
/// scalar-vs-sliced speedup (i.e. the sliced engine may not regress more
/// than 30% relative to the scalar engine on the same machine). Returns
/// the number of failed rows (0 = pass); a row on one side only fails.
int check_against(const std::string& path, const std::vector<EngineRow>& measured) {
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        std::cerr << "check: cannot open " << path << "\n";
        return 1;
    }
    std::stringstream buf;
    buf << f.rdbuf();
    JsonValue doc;
    std::string error;
    if (!json_parse(buf.str(), doc, &error)) {
        std::cerr << "check: " << path << " is not valid JSON: " << error << "\n";
        return 1;
    }
    const JsonValue* rows = doc.find("w12_exhaustive");
    if (rows == nullptr || !rows->is_array() || rows->array.empty()) {
        std::cerr << "check: " << path << " has no w12_exhaustive records (regenerate it)\n";
        return 1;
    }
    int failures = 0;
    std::vector<bool> matched(measured.size(), false);
    for (size_t i = 0; i < rows->array.size(); ++i) {
        const JsonValue& row = rows->array[i];
        const JsonValue* variant = row.find("variant");
        const JsonValue* depth = row.find("depth");
        const JsonValue* committed = row.find("speedup");
        if (variant == nullptr || depth == nullptr || committed == nullptr) {
            std::cout << "  check w12_exhaustive[" << i
                      << "]: lacks variant, depth or speedup — MALFORMED\n";
            ++failures;
            continue;
        }
        const std::string name =
            variant->string + " d" + std::to_string(static_cast<int>(depth->number));
        size_t m = 0;
        while (m < measured.size() &&
               (multiplier_variant_name(measured[m].config.variant) != variant->string ||
                measured[m].config.depth != static_cast<int>(depth->number))) {
            ++m;
        }
        if (m == measured.size()) {
            std::cout << "  check " << name << ": committed but not measured — MISSING\n";
            ++failures;
            continue;
        }
        matched[m] = true;
        const EngineRow& r = measured[m];
        const double floor = committed->number / 1.3;
        const bool ok = r.speedup() >= floor;
        std::cout << "  check " << ApproxMultiplier(r.config).describe() << ": measured "
                  << fmt_fixed(r.speedup(), 2) << "x vs committed "
                  << fmt_fixed(committed->number, 2) << "x (floor " << fmt_fixed(floor, 2)
                  << "x, sliced " << fmt_fixed(r.sliced_ns_per_op(), 2) << " ns/op) — "
                  << (ok ? "ok" : "REGRESSED") << "\n";
        if (!ok) ++failures;
    }
    for (size_t m = 0; m < measured.size(); ++m) {
        if (matched[m]) continue;
        std::cout << "  check " << ApproxMultiplier(measured[m].config).describe()
                  << ": measured but not committed — MISSING\n";
        ++failures;
    }
    return failures;
}

}  // namespace

int main(int argc, char** argv) {
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::print_header(
        "Evaluation-kernel throughput — interpreter vs fast-path vs sliced",
        "Specialized kernels make exhaustive error sweeps practical at wide operands.");

    const double budget = args.quick ? 0.02 : 0.1;
    const uint64_t batch = uint64_t{1} << (args.quick ? 14 : 16);

    std::vector<MultiplierConfig> configs;
    for (const int width : {8, 12, 16}) {
        configs.push_back({width, 1, MultiplierVariant::kAccurate, AccumulationScheme::kRowRipple});
        for (const int depth : {2, 3, 4}) {
            configs.push_back({width, depth, MultiplierVariant::kSdlc,
                               AccumulationScheme::kRowRipple});
        }
        configs.push_back({width, 2, MultiplierVariant::kCompensated,
                           AccumulationScheme::kRowRipple});
    }

    std::vector<KernelRow> rows;
    TextTable table({"config", "path", "interpreter ns/op", "kernel ns/op", "sliced ns/op",
                     "sliced speedup", "sampled ns/op"});
    for (const MultiplierConfig& cfg : configs) {
        KernelRow row;
        row.config = cfg;
        const ApproxMultiplier mul(cfg);
        const MultiplyKernel kernel(cfg);
        row.path = kernel.name();
        row.interp_ns = measure_ns_per_op(cfg.width, batch, budget,
                                          [&](uint64_t a, uint64_t b) { return mul.multiply(a, b); });
        row.kernel_ns = measure_ns_per_op(cfg.width, batch, budget,
                                          [&](uint64_t a, uint64_t b) { return kernel(a, b); });
        if (SlicedMultiplyKernel::eligible(cfg)) {
            const SlicedMultiplyKernel sliced(cfg);
            row.sliced_ns = measure_sliced_ns_per_op(sliced, budget);
        }
        if (SampledMultiplyKernel::eligible(cfg)) {
            const SampledMultiplyKernel sampled(cfg);
            row.sampled_ns = measure_sampled_ns_per_op(sampled, batch, budget);
        }
        rows.push_back(row);
        table.add_row({mul.describe(), row.path, fmt_fixed(row.interp_ns, 1),
                       fmt_fixed(row.kernel_ns, 1),
                       row.sliced_ns > 0.0 ? fmt_fixed(row.sliced_ns, 2) : "-",
                       row.sliced_ns > 0.0 ? fmt_fixed(row.kernel_ns / row.sliced_ns, 1) : "-",
                       row.sampled_ns > 0.0 ? fmt_fixed(row.sampled_ns, 2) : "-"});
    }
    table.print(std::cout);
    std::cout << "(sampled body: " << SampledMultiplyKernel::body_name() << ")\n";

    // Width-12 exhaustive engine comparison at every sdlc and compensated
    // depth: the full 4^12-pair sweep with ErrorAccumulator, scalar vs
    // sliced — the number the DSE actually feels when a width-12
    // config runs exhaustive. Metrics are asserted bit-identical in every
    // round while we are at it.
    std::cout << "\nwidth-12 exhaustive sweep, scalar vs sliced engine (lane block: "
              << LaneErrorAccumulator::block_name() << "):\n";
    std::vector<EngineRow> engine_rows;
    TextTable etable({"config", "scalar s", "sliced s", "speedup", "sliced ns/op"});
    std::vector<MultiplierConfig> w12_configs;
    for (const MultiplierVariant variant :
         {MultiplierVariant::kSdlc, MultiplierVariant::kCompensated}) {
        for (int depth = 2; depth <= 12; ++depth) {
            w12_configs.push_back({12, depth, variant, AccumulationScheme::kRowRipple});
        }
    }
    for (const MultiplierConfig& cfg : w12_configs) {
        const MultiplyKernel scalar(cfg);
        const SlicedMultiplyKernel sliced(cfg);
        // Five rounds of one scalar and one sliced sweep; the row keeps each
        // engine's fastest round. On a shared VM a core runs up to ~1.9x
        // slower for seconds at a time, the sliced sweep more than the
        // scalar one, so one round's speedup moves by 30% or more. The
        // fastest of five is each engine's least-contended cost.
        EngineRow row;
        row.config = cfg;
        row.scalar_seconds = row.sliced_seconds = std::numeric_limits<double>::infinity();
        for (int round = 0; round < 5; ++round) {
            auto t0 = Clock::now();
            const ErrorMetrics scalar_m = exhaustive_metrics(
                cfg.width, [&](uint64_t a, uint64_t b) { return scalar(a, b); });
            row.scalar_seconds = std::min(
                row.scalar_seconds, std::chrono::duration<double>(Clock::now() - t0).count());
            t0 = Clock::now();
            const ErrorMetrics sliced_m = *exhaustive_metrics_sliced(sliced);
            row.sliced_seconds = std::min(
                row.sliced_seconds, std::chrono::duration<double>(Clock::now() - t0).count());
            if (!(scalar_m == sliced_m)) {
                std::cerr << "FATAL: engines disagree on " << ApproxMultiplier(cfg).describe()
                          << "\n";
                return 1;
            }
        }
        engine_rows.push_back(row);
        etable.add_row({ApproxMultiplier(cfg).describe(), fmt_fixed(row.scalar_seconds, 3),
                        fmt_fixed(row.sliced_seconds, 3), fmt_fixed(row.speedup(), 2),
                        fmt_fixed(row.sliced_ns_per_op(), 2)});
    }
    etable.print(std::cout);

    // End-to-end: the default dse_tool sweep (error + hardware), cold run
    // with a fresh cache and warm run against the same cache.
    std::cout << "\nend-to-end default sweep (width 8, error + hardware):\n";
    const SweepSpec spec = SweepSpec::for_width(8);
    CostCache cache;
    EvalOptions opts;
    opts.seed = args.seed;
    opts.hw_cache = &cache;
    SweepStats cold, warm;
    (void)evaluate_sweep(spec, opts, &cold);
    const CostCache::Stats after_cold = cache.stats();
    (void)evaluate_sweep(spec, opts, &warm);
    const CostCache::Stats after_warm = cache.stats();
    // Raw counter deltas per run (a racing cold miss may count twice).
    const uint64_t warm_hits = after_warm.hits - after_cold.hits;
    std::cout << "  cold: " << fmt_fixed(cold.wall_seconds, 3) << " s (" << after_cold.hits
              << " hits / " << after_cold.misses << " misses)\n"
              << "  warm: " << fmt_fixed(warm.wall_seconds, 3) << " s (" << warm_hits
              << " hits / " << after_warm.misses - after_cold.misses << " misses)\n";

    // JSON record for cross-PR tracking.
    const std::string json_path = args.json_path.value_or("BENCH_eval.json");
    {
        std::ofstream f(json_path, std::ios::binary);
        f << "{\"bench\": \"eval_kernels\",\n \"kernels\": [\n";
        for (size_t i = 0; i < rows.size(); ++i) {
            const KernelRow& r = rows[i];
            f << "  {\"width\": " << r.config.width << ", \"depth\": " << r.config.depth
              << ", \"variant\": " << json_string(multiplier_variant_name(r.config.variant))
              << ", \"path\": " << json_string(r.path)
              << ", \"interpreter_ns_per_op\": " << json_number(r.interp_ns)
              << ", \"kernel_ns_per_op\": " << json_number(r.kernel_ns);
            if (r.sliced_ns > 0.0) {
                f << ", \"sliced_ns_per_op\": " << json_number(r.sliced_ns)
                  << ", \"sliced_products_per_sec\": " << json_number(1e9 / r.sliced_ns);
            }
            if (r.sampled_ns > 0.0) {
                f << ", \"sampled_ns_per_op\": " << json_number(r.sampled_ns);
            }
            f << ", \"speedup\": " << json_number(r.interp_ns / r.kernel_ns) << "}"
              << (i + 1 < rows.size() ? ",\n" : "\n");
        }
        f << " ],\n \"w12_exhaustive\": [\n";
        for (size_t i = 0; i < engine_rows.size(); ++i) {
            const EngineRow& r = engine_rows[i];
            f << "  {\"width\": " << r.config.width << ", \"depth\": " << r.config.depth
              << ", \"variant\": " << json_string(multiplier_variant_name(r.config.variant))
              << ", \"scalar_seconds\": " << json_number(r.scalar_seconds)
              << ", \"sliced_seconds\": " << json_number(r.sliced_seconds)
              << ", \"sliced_ns_per_op\": " << json_number(r.sliced_ns_per_op())
              << ", \"speedup\": " << json_number(r.speedup()) << "}"
              << (i + 1 < engine_rows.size() ? ",\n" : "\n");
        }
        f << " ],\n \"default_sweep\": {\"points\": " << cold.points
          << ", \"cold_seconds\": " << json_number(cold.wall_seconds)
          << ", \"warm_seconds\": " << json_number(warm.wall_seconds)
          << ", \"warm_hits\": " << warm_hits << "}\n}\n";
    }
    std::cout << "json -> " << json_path << "\n";

    if (args.csv_path) {
        CsvWriter csv(*args.csv_path);
        csv.write_row({"width", "depth", "variant", "path", "interpreter_ns", "kernel_ns",
                       "sliced_ns"});
        for (const KernelRow& r : rows) {
            csv.write_row({std::to_string(r.config.width), std::to_string(r.config.depth),
                           multiplier_variant_name(r.config.variant), r.path,
                           fmt_fixed(r.interp_ns, 2), fmt_fixed(r.kernel_ns, 2),
                           r.sliced_ns > 0.0 ? fmt_fixed(r.sliced_ns, 3) : ""});
        }
        std::cout << "csv -> " << *args.csv_path << "\n";
    }

    if (args.check_path) {
        std::cout << "\nregression check vs " << *args.check_path << ":\n";
        const int failures = check_against(*args.check_path, engine_rows);
        if (failures > 0) {
            std::cerr << "check: " << failures
                      << " row(s) regressed beyond the 30% tolerance or missing on one side\n";
            return 1;
        }
        std::cout << "  all " << engine_rows.size()
                  << " sliced-engine rows within 30% of the committed record (lane block: "
                  << LaneErrorAccumulator::block_name() << ")\n";
    }
    return 0;
}
