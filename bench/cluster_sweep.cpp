// Cluster sweep coordinator: 1 -> 2 -> 4 worker scaling.
//
// Spins in-process serve replicas (SweepService behind real Unix sockets,
// the same serve_listener lifecycle `serve_tool` uses, one eval thread
// each so worker count is the parallelism) and times a width-12 sweep
// coordinated by cluster::distributed_sweep:
//
//   local            single-node, single-thread evaluate_sweep baseline
//   N workers        fresh (cold) fleet of N replicas — pure fan-out
//                    scaling of the per-point cost
//
// Every coordinated run's export is byte-compared against the single-node
// reference before timings are reported; the bench fails loudly if any
// topology changes a byte or falls back to local execution.
//
//   --quick       fewer repetitions
//   --json FILE   machine-readable record (BENCH_cluster.json in the repo)
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/coordinator.h"
#include "dse/cost_cache.h"
#include "dse/evaluator.h"
#include "dse/export.h"
#include "dse/pareto.h"
#include "dse/sweep.h"
#include "serve/service.h"
#include "serve/socket.h"
#include "serve/transport.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using namespace sdlc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One in-process serve replica on a Unix socket.
struct Replica {
    explicit Replica(const std::string& path) : sock_path(path), listener(path) {
        serve::ServiceOptions opts;
        opts.eval_threads = 1;  // worker count == evaluation parallelism
        opts.request_workers = 2;
        service = std::make_unique<serve::SweepService>(opts);
        thread = std::thread(
            [this] { serve::serve_listener(listener, *service, serve::kDefaultMaxRequestBytes); });
    }
    ~Replica() {
        service->request_shutdown();
        listener.close();
        thread.join();
    }
    std::string spec() const { return "unix:" + sock_path; }

    std::string sock_path;
    serve::UnixSocketServer listener;
    std::unique_ptr<serve::SweepService> service;
    std::thread thread;
};

}  // namespace

int main(int argc, char** argv) {
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::print_header(
        "Cluster sweep — 1/2/4-worker scaling",
        "Sharded enumeration across replicas merges back byte-identical; the fleet is an "
        "accelerator, never a result-changing dependency.");

    // Width 12 with a mid-size Monte-Carlo sample count: per-point cost
    // (error eval + synthesis) is large against the per-shard socket
    // overhead, so fan-out scaling is what gets measured.
    const SweepSpec spec = SweepSpec::for_width(12);
    const ObjectiveSet objectives = default_objectives();
    const int repetitions = args.quick ? 1 : 3;
    auto base_opts = [] {
        EvalOptions opts;
        opts.samples = 32768;
        return opts;
    };

    // Single-node reference: one thread, fresh cache — both the baseline
    // timing and the byte-identity oracle for every topology below.
    SweepStats ref_stats;
    std::vector<DesignPoint> ref_points;
    double local_seconds = 0.0;
    size_t unique_designs = 0;
    {
        CostCache cache;
        EvalOptions opts = base_opts();
        opts.hw_cache = &cache;
        opts.threads = 1;
        const auto t0 = Clock::now();
        ref_points = evaluate_sweep(spec, opts, &ref_stats);
        local_seconds = seconds_since(t0);
        unique_designs = cache.size();
    }
    const std::string ref_export = dse_to_json(
        ref_points, pareto_analysis(objective_matrix(ref_points, objectives)).rank, ref_stats,
        objectives);

    struct Scenario {
        size_t workers;
        double seconds;
        serve::ClusterCounters counters;
    };
    std::vector<Scenario> scenarios;
    bool ok = true;

    for (const size_t n : {size_t{1}, size_t{2}, size_t{4}}) {
        std::vector<double> samples;
        serve::ClusterCounters last_counters;
        for (int rep = 0; rep < repetitions; ++rep) {
            // A fresh fleet each repetition keeps every run cold on the
            // workers' caches.
            std::vector<std::unique_ptr<Replica>> fleet;
            cluster::ClusterOptions copts;
            for (size_t i = 0; i < n; ++i) {
                fleet.push_back(
                    std::make_unique<Replica>("bench_cluster_w" + std::to_string(i) + ".sock"));
                copts.workers.push_back(fleet.back()->spec());
            }
            copts.shards = 4 * n;  // a few shards per worker for balance

            CostCache coord_cache;
            EvalOptions opts = base_opts();
            opts.hw_cache = &coord_cache;
            SweepStats stats;
            serve::ClusterCounters counters;
            const auto t0 = Clock::now();
            const std::vector<DesignPoint> points =
                cluster::distributed_sweep(spec, opts, copts, &stats, &counters);
            samples.push_back(seconds_since(t0));

            const std::string exported = dse_to_json(
                points, pareto_analysis(objective_matrix(points, objectives)).rank, stats,
                objectives);
            if (exported != ref_export) {
                std::cerr << "error: " << n
                          << "-worker export differs from the single-node reference\n";
                ok = false;
            }
            last_counters = counters;
        }
        std::sort(samples.begin(), samples.end());
        scenarios.push_back({n, samples[samples.size() / 2], last_counters});
    }

    TextTable table({"scenario", "seconds", "speedup vs local"});
    table.add_row({"local (1 thread)", fmt_fixed(local_seconds, 4), "-"});
    for (const auto& s : scenarios) {
        table.add_row({std::to_string(s.workers) + " worker" + (s.workers > 1 ? "s" : ""),
                       fmt_fixed(s.seconds, 4),
                       fmt_fixed(local_seconds / s.seconds, 2) + "x"});
    }
    table.print(std::cout);
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores < 4) {
        std::cout << "note: only " << cores
                  << " hardware thread(s) — in-process replicas share them, so wall-clock "
                     "speedup is bounded by the core count, not the worker count\n";
    }

    // Per-worker counters from the widest cold topology: the shard plan is
    // fixed, so dispatch should spread across the whole fleet.
    const Scenario& widest = scenarios.back();  // 4 workers
    std::cout << "\n4-worker dispatch (cold):\n";
    for (const auto& w : widest.counters.workers) {
        std::cout << "  " << w.spec << ": " << w.dispatched << " dispatched, " << w.completed
                  << " completed, " << w.retried << " retried, " << w.bytes << " bytes, "
                  << fmt_fixed(w.busy_seconds, 3) << " s busy\n";
    }

    for (const auto& s : scenarios) {
        if (s.counters.local_shards != 0) {
            std::cerr << "error: " << s.workers
                      << "-worker run fell back locally on a healthy fleet\n";
            ok = false;
        }
    }

    if (args.json_path) {
        std::string json = "{\"bench\": \"cluster_sweep\",\n";
        json += " \"sweep\": {\"width\": 12, \"points\": " + std::to_string(ref_stats.points) +
                ", \"unique_designs\": " + std::to_string(unique_designs) + "},\n";
        json += " \"repetitions\": " + std::to_string(repetitions) + ",\n";
        json += " \"hardware_threads\": " +
                std::to_string(std::thread::hardware_concurrency()) + ",\n";
        json += " \"local_seconds\": " + json_number(local_seconds) + ",\n";
        json += " \"byte_identical\": " + std::string(ok ? "true" : "false") + ",\n";
        json += " \"scenarios\": [\n";
        for (size_t i = 0; i < scenarios.size(); ++i) {
            const auto& s = scenarios[i];
            json += "  {\"workers\": " + std::to_string(s.workers) +
                    ", \"seconds\": " + json_number(s.seconds) +
                    ", \"speedup\": " + json_number(local_seconds / s.seconds) + "}";
            json += (i + 1 < scenarios.size()) ? ",\n" : "\n";
        }
        json += " ]\n}\n";
        std::ofstream out(*args.json_path, std::ios::binary);
        out << json;
        std::cout << "JSON written to " << *args.json_path << "\n";
    }
    return ok ? 0 : 1;
}
