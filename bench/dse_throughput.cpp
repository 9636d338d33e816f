// DSE engine throughput: configurations evaluated per second, and how the
// sweep scales from 1 worker thread up to the hardware concurrency.
//
//   --quick       smaller sweep (width 6, error-only pass skipped)
//   --csv FILE    dump the scaling table
//   --seed N      base seed for sampled evaluation (fixed default: runs are
//                 reproducible bit-for-bit at every thread count)
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "dse/evaluator.h"
#include "dse/pareto.h"
#include "dse/sweep.h"
#include "util/csv.h"
#include "util/table.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace sdlc;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::print_header(
        "DSE throughput — parallel design-space evaluation",
        "Work-queue scheduling keeps workers busy despite uneven point costs.");

    const int width = args.quick ? 6 : 8;
    const SweepSpec spec = SweepSpec::for_width(width);
    const size_t n = spec.count();

    unsigned max_threads = std::thread::hardware_concurrency();
    if (max_threads == 0) max_threads = 1;
    std::vector<unsigned> counts = {1};
    for (unsigned t = 2; t <= max_threads; t *= 2) counts.push_back(t);
    if (counts.back() != max_threads) counts.push_back(max_threads);

    std::cout << "sweep: " << spec.describe() << " (" << n << " points)\n\n";

    TextTable t({"threads", "mode", "points", "seconds", "configs/sec", "speedup"});
    std::vector<std::vector<std::string>> csv_rows;
    for (const bool hardware : {false, true}) {
        if (args.quick && !hardware) continue;
        double base_secs = 0.0;
        for (unsigned threads : counts) {
            EvalOptions opts;
            opts.threads = threads;
            opts.seed = args.seed;
            opts.evaluate_hardware = hardware;
            const auto t0 = Clock::now();
            const std::vector<DesignPoint> points = evaluate_sweep(spec, opts);
            const double secs = seconds_since(t0);
            if (threads == counts.front()) base_secs = secs;
            const char* mode = hardware ? "error+hw" : "error-only";
            t.add_row({std::to_string(threads), mode, std::to_string(points.size()),
                       fmt_fixed(secs, 3), fmt_fixed(static_cast<double>(points.size()) / secs, 1),
                       fmt_fixed(base_secs / secs, 2)});
            csv_rows.push_back({std::to_string(threads), mode, std::to_string(points.size()),
                                fmt_fixed(secs, 4),
                                fmt_fixed(static_cast<double>(points.size()) / secs, 2)});
        }
    }
    t.print(std::cout);

    // Hardware-cache effect: one shared cache, cold run then warm run. The
    // scaling rows above use a fresh per-sweep cache so they stay honest.
    {
        CostCache cache;
        EvalOptions opts;
        opts.seed = args.seed;
        opts.hw_cache = &cache;
        SweepStats cold, warm;
        (void)evaluate_sweep(spec, opts, &cold);
        const CostCache::Stats after_cold = cache.stats();
        (void)evaluate_sweep(spec, opts, &warm);
        const CostCache::Stats after_warm = cache.stats();
        std::cout << "\nhw cache: cold " << fmt_fixed(cold.wall_seconds, 3) << " s ("
                  << after_cold.misses << " misses), warm "
                  << fmt_fixed(warm.wall_seconds, 3) << " s ("
                  << after_warm.hits - after_cold.hits << " hits), speedup "
                  << fmt_fixed(cold.wall_seconds / warm.wall_seconds, 2) << "x\n";
    }

    // Sanity: the frontier of the last sweep is non-trivial.
    {
        EvalOptions opts;
        opts.seed = args.seed;
        const std::vector<DesignPoint> points = evaluate_sweep(spec, opts);
        const std::vector<size_t> frontier = pareto_frontier(objective_matrix(points));
        std::cout << "\nfrontier: " << frontier.size() << " of " << points.size()
                  << " points are Pareto-optimal\n";
    }

    if (args.csv_path) {
        CsvWriter csv(*args.csv_path);
        csv.write_row({"threads", "mode", "points", "seconds", "configs_per_sec"});
        for (const auto& r : csv_rows) csv.write_row(r);
        std::cout << "CSV written to " << *args.csv_path << "\n";
    }
    return 0;
}
