// Tests for the cluster sweep coordinator: deterministic shard planning,
// the in-order shard merge (shuffled, interleaved, duplicated and partial
// streams), bit-exact point wire round trips, the evaluator's shard-range
// restriction, the shard sub-request serializer, and distributed_sweep /
// CoordinatorService end to end against in-process worker replicas —
// including dead-worker local fallback and retry accounting.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/shard_plan.h"
#include "dse/evaluator.h"
#include "dse/export.h"
#include "dse/pareto.h"
#include "dse/point_wire.h"
#include "dse/shard_merge.h"
#include "dse/sweep.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/socket.h"
#include "serve/transport.h"
#include "util/json_parse.h"

namespace sdlc::cluster {
namespace {

using serve::SweepRequest;

// ------------------------------------------------------------ shard plan ----

TEST(ShardPlanTest, CoversSpaceWithBalancedContiguousRanges) {
    const std::vector<IndexRange> plan = plan_shards(0, 103, 8);
    ASSERT_EQ(plan.size(), 8u);
    size_t cursor = 0;
    size_t min_size = SIZE_MAX;
    size_t max_size = 0;
    for (const IndexRange& r : plan) {
        EXPECT_EQ(r.lo, cursor);
        EXPECT_GT(r.hi, r.lo);
        cursor = r.hi;
        min_size = std::min(min_size, r.size());
        max_size = std::max(max_size, r.size());
    }
    EXPECT_EQ(cursor, 103u);
    EXPECT_LE(max_size - min_size, 1u);
}

TEST(ShardPlanTest, ClampsToSpaceAndHandlesEmpty) {
    EXPECT_EQ(plan_shards(10, 13, 32).size(), 3u);  // never an empty shard
    EXPECT_TRUE(plan_shards(7, 7, 4).empty());
    const std::vector<IndexRange> sub = plan_shards(5, 11, 2);
    ASSERT_EQ(sub.size(), 2u);
    EXPECT_EQ(sub.front().lo, 5u);
    EXPECT_EQ(sub.back().hi, 11u);
}

TEST(ShardPlanTest, RejectsBadArguments) {
    EXPECT_THROW(plan_shards(4, 2, 2), std::invalid_argument);
    EXPECT_THROW(plan_shards(0, 10, 0), std::invalid_argument);
}

// ----------------------------------------------------------- shard merge ----

DesignPoint marked_point(size_t i) {
    DesignPoint p;
    p.config.width = 4;
    p.error.nmed = static_cast<double>(i);
    return p;
}

TEST(ShardMergerTest, ShuffledAddsEmitInEnumerationOrder) {
    std::vector<size_t> emitted;
    ShardMerger merger(10, 60, [&](size_t index, const DesignPoint& p) {
        emitted.push_back(index);
        EXPECT_EQ(p.error.nmed, static_cast<double>(index));
    });
    std::vector<size_t> order(50);
    for (size_t i = 0; i < order.size(); ++i) order[i] = 10 + i;
    std::mt19937 rng(7);
    std::shuffle(order.begin(), order.end(), rng);
    for (const size_t i : order) merger.add(i, marked_point(i));
    ASSERT_TRUE(merger.complete());
    ASSERT_EQ(emitted.size(), 50u);
    for (size_t i = 0; i < emitted.size(); ++i) EXPECT_EQ(emitted[i], 10 + i);
    const std::vector<DesignPoint> points = merger.take();
    ASSERT_EQ(points.size(), 50u);
    for (size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].error.nmed, static_cast<double>(10 + i));
    }
}

TEST(ShardMergerTest, InterleavedShardStreamsStayOrdered) {
    // Two shard streams delivering concurrently, plus a duplicated range
    // (a retried shard re-sending indices already merged): first write
    // wins and the emission order never changes.
    std::vector<size_t> emitted;
    ShardMerger merger(0, 40, [&](size_t index, const DesignPoint&) {
        emitted.push_back(index);
    });
    std::thread a([&] {
        for (size_t i = 20; i < 40; ++i) merger.add(i, marked_point(i));
    });
    std::thread b([&] {
        for (size_t i = 0; i < 20; ++i) merger.add(i, marked_point(i));
    });
    // The retry re-sends indices a has already delivered, so it starts only
    // once a has joined (b may still be streaming): a duplicate sent
    // earlier could legitimately arrive first and win.
    a.join();
    std::thread retry([&] {
        for (size_t i = 20; i < 30; ++i) merger.add(i, marked_point(999));  // duplicate
    });
    b.join();
    retry.join();
    ASSERT_EQ(emitted.size(), 40u);
    for (size_t i = 0; i < emitted.size(); ++i) EXPECT_EQ(emitted[i], i);
    const std::vector<DesignPoint> points = merger.take();
    for (size_t i = 0; i < points.size(); ++i) {
        // A duplicate never overwrites the first delivery.
        EXPECT_EQ(points[i].error.nmed, static_cast<double>(i));
    }
}

TEST(ShardMergerTest, PartialStreamIsStrictPrefix) {
    std::vector<size_t> emitted;
    ShardMerger merger(0, 10, [&](size_t index, const DesignPoint&) {
        emitted.push_back(index);
    });
    merger.add(0, marked_point(0));
    merger.add(5, marked_point(5));  // gap at 1..4: held back
    merger.add(1, marked_point(1));
    EXPECT_EQ(emitted, (std::vector<size_t>{0, 1}));
    EXPECT_FALSE(merger.complete());
    EXPECT_THROW(merger.take(), std::logic_error);
    EXPECT_THROW(merger.add(10, marked_point(10)), std::out_of_range);
}

// ------------------------------------------------------------ point wire ----

TEST(PointWireTest, RoundTripIsBitExact) {
    EvalOptions opts;
    opts.threads = 2;
    const SweepSpec spec;  // default width-8 sweep
    const std::vector<DesignPoint> points = evaluate_sweep(spec, opts);
    ASSERT_FALSE(points.empty());
    for (const DesignPoint& p : points) {
        const std::string blob = design_point_bits(p);
        DesignPoint back;
        std::string error;
        ASSERT_TRUE(parse_design_point_bits(blob, back, &error)) << error;
        EXPECT_EQ(back.config.width, p.config.width);
        EXPECT_EQ(back.config.depth, p.config.depth);
        EXPECT_EQ(back.config.variant, p.config.variant);
        EXPECT_EQ(back.config.scheme, p.config.scheme);
        EXPECT_TRUE(back.error == p.error);
        EXPECT_TRUE(back.hw == p.hw);
        EXPECT_EQ(design_point_bits(back), blob);
    }
}

TEST(PointWireTest, RejectsMalformedBlobs) {
    DesignPoint p;
    EXPECT_FALSE(parse_design_point_bits("", p));
    EXPECT_FALSE(parse_design_point_bits("v2:0", p));
    const std::string good = design_point_bits(marked_point(3));
    EXPECT_TRUE(parse_design_point_bits(good, p));
    EXPECT_FALSE(parse_design_point_bits(good + "0", p));       // trailing bytes
    EXPECT_FALSE(parse_design_point_bits(good.substr(0, good.size() - 1), p));
    std::string upper = good;
    upper[4] = 'A';  // uppercase hex is not canonical
    EXPECT_FALSE(parse_design_point_bits(upper, p));
}

// ------------------------------------------------- evaluator shard range ----

TEST(EvaluatorShardTest, ShardSliceMatchesFullSweepWithGlobalIndices) {
    const SweepSpec spec;
    EvalOptions opts;
    opts.threads = 2;
    const std::vector<DesignPoint> full = evaluate_sweep(spec, opts);
    ASSERT_GT(full.size(), 4u);

    EvalOptions shard = opts;
    shard.shard_lo = 2;
    shard.shard_hi = full.size() - 1;
    std::vector<size_t> indices;
    shard.on_point = [&](size_t index, const DesignPoint&) { indices.push_back(index); };
    const std::vector<DesignPoint> slice = evaluate_sweep(spec, shard);
    ASSERT_EQ(slice.size(), full.size() - 3);
    for (size_t i = 0; i < slice.size(); ++i) {
        EXPECT_TRUE(slice[i].error == full[2 + i].error);
        EXPECT_TRUE(slice[i].hw == full[2 + i].hw);
    }
    ASSERT_EQ(indices.size(), slice.size());
    for (size_t i = 0; i < indices.size(); ++i) EXPECT_EQ(indices[i], 2 + i);
}

TEST(EvaluatorShardTest, RejectsContradictoryRanges) {
    const SweepSpec spec;
    const size_t count = spec.count();
    EvalOptions opts;
    opts.shard_lo = 3;
    opts.shard_hi = 3;
    EXPECT_THROW(evaluate_sweep(spec, opts), std::invalid_argument);
    opts.shard_lo = 0;
    opts.shard_hi = count + 1;
    EXPECT_THROW(evaluate_sweep(spec, opts), std::invalid_argument);
}

// ------------------------------------------------- shard request round trip --

TEST(SweepRequestJsonTest, RoundTripsThroughTheStrictParser) {
    SweepRequest req;
    req.id = "s7";
    req.spec.widths = {4, 6};
    req.spec.min_depth = 1;
    req.spec.max_depth = 3;
    req.eval.seed = 99;
    req.eval.samples = 4096;
    req.eval.exhaustive_max_width = 6;
    req.eval.distribution = OperandDistribution::kGaussian;
    req.eval.use_hw_cache = false;
    req.stream_points = true;
    req.export_json = false;
    req.deadline_ms = 1234;
    req.shard_lo = 3;
    req.shard_hi = 9;
    req.point_bits = true;

    const std::string line = serve::sweep_request_json(req);
    SweepRequest back;
    serve::RequestError error;
    ASSERT_TRUE(serve::parse_request(line, serve::kDefaultMaxRequestBytes, back, error))
        << error.message;
    EXPECT_EQ(back.id, "s7");
    EXPECT_EQ(back.spec.widths, req.spec.widths);
    EXPECT_EQ(back.spec.max_depth, 3);
    EXPECT_EQ(back.eval.seed, 99u);
    EXPECT_EQ(back.eval.samples, 4096u);
    EXPECT_EQ(back.eval.exhaustive_max_width, 6);
    EXPECT_EQ(back.eval.distribution, OperandDistribution::kGaussian);
    EXPECT_FALSE(back.eval.use_hw_cache);
    EXPECT_TRUE(back.stream_points);
    EXPECT_FALSE(back.export_json);
    EXPECT_EQ(back.deadline_ms, 1234u);
    EXPECT_EQ(back.shard_lo, 3u);
    EXPECT_EQ(back.shard_hi, 9u);
    EXPECT_TRUE(back.point_bits);
}

// ---------------------------------------------------- distributed sweeps ----

/// An in-process worker replica: SweepService + serve_listener on an
/// ephemeral TCP port (the exact serve_tool --listen-tcp code path).
struct Worker {
    serve::ServiceOptions opts;
    std::unique_ptr<serve::SweepService> service;
    std::unique_ptr<serve::TcpSocketServer> listener;
    std::thread loop;

    Worker() {
        opts.eval_threads = 2;
        service = std::make_unique<serve::SweepService>(opts);
        listener = std::make_unique<serve::TcpSocketServer>("127.0.0.1", 0);
        loop = std::thread(
            [this] { serve::serve_listener(*listener, *service, opts.max_request_bytes); });
    }

    [[nodiscard]] std::string spec() const {
        return "127.0.0.1:" + std::to_string(listener->port());
    }

    ~Worker() {
        service->request_shutdown();
        if (loop.joinable()) loop.join();
    }
};

bool points_identical(const std::vector<DesignPoint>& a, const std::vector<DesignPoint>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
        // The wire blob covers config, error and hardware bit-exactly.
        if (design_point_bits(a[i]) != design_point_bits(b[i])) return false;
    }
    return true;
}

TEST(DistributedSweepTest, TwoWorkersReproduceLocalSweepBitExactly) {
    Worker w1;
    Worker w2;
    const SweepSpec spec;
    EvalOptions eval;
    eval.threads = 2;
    const std::vector<DesignPoint> local = evaluate_sweep(spec, eval);

    ClusterOptions cluster;
    cluster.workers = {w1.spec(), w2.spec()};
    cluster.shards = 5;
    SweepStats stats;
    serve::ClusterCounters counters;
    std::vector<size_t> streamed;
    eval.on_point = [&](size_t index, const DesignPoint&) { streamed.push_back(index); };
    const std::vector<DesignPoint> merged =
        distributed_sweep(spec, eval, cluster, &stats, &counters);

    EXPECT_TRUE(points_identical(local, merged));
    ASSERT_EQ(streamed.size(), local.size());
    for (size_t i = 0; i < streamed.size(); ++i) EXPECT_EQ(streamed[i], i);
    EXPECT_EQ(stats.points, local.size());
    uint64_t completed = 0;
    for (const serve::ClusterWorkerCounters& w : counters.workers) completed += w.completed;
    EXPECT_EQ(completed, 5u);
    EXPECT_EQ(counters.local_shards, 0u);
}

TEST(DistributedSweepTest, ShardRestrictedDistributedSweepMatchesSlice) {
    Worker w1;
    const SweepSpec spec;
    EvalOptions eval;
    eval.threads = 2;
    const std::vector<DesignPoint> full = evaluate_sweep(spec, eval);

    ClusterOptions cluster;
    cluster.workers = {w1.spec()};
    cluster.shards = 3;
    eval.shard_lo = 1;
    eval.shard_hi = full.size() - 1;
    const std::vector<DesignPoint> merged = distributed_sweep(spec, eval, cluster);
    ASSERT_EQ(merged.size(), full.size() - 2);
    for (size_t i = 0; i < merged.size(); ++i) {
        EXPECT_TRUE(merged[i].error == full[1 + i].error);
    }
}

TEST(DistributedSweepTest, FixedCutoffIsNotPromotedOnReplicas) {
    // The cutoff ships to the replicas in exhaustive_max_width. A sweep
    // run under a narrow cutoff must stay sampled above it on them too, so
    // the merged points match the single-node run — cutoff 0 ("sample
    // everything") included.
    Worker w1;
    SweepSpec spec = SweepSpec::for_width(12);
    spec.variants = {MultiplierVariant::kSdlc};
    spec.schemes = {AccumulationScheme::kRowRipple};
    spec.min_depth = 2;
    spec.max_depth = 3;
    ClusterOptions cluster;
    cluster.workers = {w1.spec()};
    for (const int cutoff : {10, 0}) {
        EvalOptions eval;
        eval.threads = 2;
        eval.samples = 4096;
        eval.exhaustive_max_width = cutoff;
        const std::vector<DesignPoint> local = evaluate_sweep(spec, eval);
        EXPECT_TRUE(points_identical(local, distributed_sweep(spec, eval, cluster)))
            << "cutoff " << cutoff;
    }
}

TEST(DistributedSweepTest, DeadWorkersFallBackLocallyWithSameBytes) {
    const SweepSpec spec;
    EvalOptions eval;
    eval.threads = 2;
    const std::vector<DesignPoint> local = evaluate_sweep(spec, eval);

    ClusterOptions cluster;
    cluster.workers = {"127.0.0.1:1"};  // nothing listens there
    cluster.shards = 4;
    cluster.shard_retries = 0;
    cluster.connect_timeout_ms = 200;
    SweepStats stats;
    serve::ClusterCounters counters;
    const std::vector<DesignPoint> merged =
        distributed_sweep(spec, eval, cluster, &stats, &counters);
    EXPECT_TRUE(points_identical(local, merged));
    EXPECT_EQ(counters.local_shards, 4u);
    EXPECT_EQ(counters.workers.at(0).completed, 0u);
}

TEST(DistributedSweepTest, DeadWorkerInListRetriesOnSurvivor) {
    Worker alive;
    const SweepSpec spec;
    EvalOptions eval;
    eval.threads = 2;
    const std::vector<DesignPoint> local = evaluate_sweep(spec, eval);

    ClusterOptions cluster;
    cluster.workers = {alive.spec(), "127.0.0.1:1"};
    cluster.shards = 6;
    cluster.connect_timeout_ms = 200;
    serve::ClusterCounters counters;
    const std::vector<DesignPoint> merged =
        distributed_sweep(spec, eval, cluster, nullptr, &counters);
    EXPECT_TRUE(points_identical(local, merged));
    // Every shard completed remotely on the survivor; the dead entry may
    // have stolen claims but finished none.
    EXPECT_EQ(counters.workers.at(0).completed, 6u);
    EXPECT_EQ(counters.workers.at(1).completed, 0u);
    EXPECT_EQ(counters.local_shards, 0u);
}

/// A replica that accepts every connection and closes it at once, so every
/// shard sent to it fails after it was dispatched.
struct ClosingWorker {
    serve::TcpSocketServer listener{"127.0.0.1", 0};
    std::thread loop;

    ClosingWorker() {
        loop = std::thread([this] {
            for (int fd = listener.accept_client(); fd != -1; fd = listener.accept_client()) {
                ::close(fd);
            }
        });
    }

    [[nodiscard]] std::string spec() const {
        return "127.0.0.1:" + std::to_string(listener.port());
    }

    ~ClosingWorker() {
        listener.close();
        loop.join();
    }
};

TEST(DistributedSweepTest, ShardRunsLocallyOnceItsRetriesAreSpent) {
    // One shard, one retry, two replicas that fail whatever they are sent:
    // the shard is dispatched twice, once to each, and then the
    // coordinator runs it itself.
    ClosingWorker w1;
    ClosingWorker w2;
    const SweepSpec spec = SweepSpec::for_width(4);
    EvalOptions eval;
    eval.threads = 1;
    const std::vector<DesignPoint> local = evaluate_sweep(spec, eval);

    ClusterOptions cluster;
    cluster.workers = {w1.spec(), w2.spec()};
    cluster.shards = 1;
    cluster.shard_retries = 1;
    serve::ClusterCounters counters;
    const std::vector<DesignPoint> merged =
        distributed_sweep(spec, eval, cluster, nullptr, &counters);
    EXPECT_TRUE(points_identical(local, merged));
    for (const serve::ClusterWorkerCounters& w : counters.workers) {
        EXPECT_EQ(w.dispatched, 1u) << w.spec;
        EXPECT_EQ(w.retried, 1u) << w.spec;
        EXPECT_EQ(w.completed, 0u) << w.spec;
    }
    EXPECT_EQ(counters.local_shards, 1u);
}

TEST(DistributedSweepTest, CancelAborts) {
    Worker w1;
    const SweepSpec spec;
    EvalOptions eval;
    eval.threads = 2;
    std::atomic<bool> cancel{true};  // pre-cancelled: abort before/at dispatch
    eval.cancel = &cancel;
    ClusterOptions cluster;
    cluster.workers = {w1.spec()};
    EXPECT_THROW(distributed_sweep(spec, eval, cluster), SweepCancelled);
}

TEST(DistributedSweepTest, RejectsBadConfiguration) {
    const SweepSpec spec;
    EvalOptions eval;
    ClusterOptions cluster;
    EXPECT_THROW(distributed_sweep(spec, eval, cluster), std::invalid_argument);
    cluster.workers = {"not a spec"};
    EXPECT_THROW(distributed_sweep(spec, eval, cluster), std::invalid_argument);
}

// ----------------------------------------------------- CoordinatorService ---

/// Collects every event line (submit_line is asynchronous; shutdown()
/// drains the queue before the lines are read).
class CollectingSink final : public serve::ResponseSink {
public:
    void write_line(const std::string& line) override {
        std::lock_guard<std::mutex> lock(mutex_);
        lines_.push_back(line);
    }
    [[nodiscard]] std::vector<std::string> lines() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return lines_;
    }

private:
    mutable std::mutex mutex_;
    std::vector<std::string> lines_;
};

TEST(CoordinatorServiceTest, ExportMatchesPlainServiceByteForByte) {
    Worker w1;
    Worker w2;

    serve::ServiceOptions opts;
    opts.eval_threads = 2;
    ClusterOptions cluster;
    cluster.workers = {w1.spec(), w2.spec()};
    cluster.shards = 4;
    CoordinatorService coordinator(opts, cluster);

    const std::string request =
        "{\"id\": \"e\", \"spec\": {\"width\": 6}, \"export\": true}";
    const auto coord_sink = std::make_shared<CollectingSink>();
    ASSERT_TRUE(coordinator.submit_line(request, coord_sink));

    serve::SweepService plain(opts);
    const auto plain_sink = std::make_shared<CollectingSink>();
    ASSERT_TRUE(plain.submit_line(request, plain_sink));

    coordinator.shutdown();
    plain.shutdown();
    // The full event stream — accepted, every point, summary, result, done
    // — must be byte-identical: the coordinator is indistinguishable on
    // the wire from a single replica.
    EXPECT_EQ(coord_sink->lines(), plain_sink->lines());

    const serve::ServiceStats stats = coordinator.stats();
    EXPECT_TRUE(stats.cluster.enabled);
    EXPECT_EQ(stats.cluster.sweeps, 1u);
    uint64_t completed = 0;
    for (const serve::ClusterWorkerCounters& w : stats.cluster.workers) {
        completed += w.completed;
    }
    EXPECT_EQ(completed, 4u);
    EXPECT_FALSE(serve::prometheus_metrics(stats).find("cluster_enabled 1") ==
                 std::string::npos);
}

/// The `result` payloads (dse_json exports) among collected event lines.
std::vector<std::string> result_payloads(const std::vector<std::string>& lines) {
    std::vector<std::string> out;
    for (const std::string& line : lines) {
        JsonValue event;
        if (!json_parse(line, event) || !event.is_object()) continue;
        const JsonValue* kind = event.find("event");
        const JsonValue* data = event.find("data");
        if (kind != nullptr && kind->is_string() && kind->string == "result" &&
            data != nullptr && data->is_string()) {
            out.push_back(data->string);
        }
    }
    return out;
}

TEST(CoordinatorServiceTest, ColdAndRepeatSweepsExportSingleNodeBytes) {
    Worker w1;
    serve::ServiceOptions opts;
    opts.eval_threads = 2;
    opts.request_workers = 1;  // the repeat runs after the cold sweep, warm
    ClusterOptions cluster;
    cluster.workers = {w1.spec()};
    cluster.shards = 4;
    CoordinatorService coordinator(opts, cluster);

    const std::string request =
        "{\"id\": \"e\", \"spec\": {\"width\": 6}, \"export\": true}";
    const auto coord_sink = std::make_shared<CollectingSink>();
    ASSERT_TRUE(coordinator.submit_line(request, coord_sink));
    ASSERT_TRUE(coordinator.submit_line(request, coord_sink));

    serve::SweepService single(opts);
    const auto single_sink = std::make_shared<CollectingSink>();
    ASSERT_TRUE(single.submit_line(request, single_sink));

    coordinator.shutdown();
    single.shutdown();
    const std::vector<std::string> reference = result_payloads(single_sink->lines());
    ASSERT_EQ(reference.size(), 1u);
    // The repeat meets warm worker and coordinator caches; the export is a
    // pure function of the request all the same.
    const std::vector<std::string> exports = result_payloads(coord_sink->lines());
    ASSERT_EQ(exports.size(), 2u);
    EXPECT_EQ(exports[0], reference[0]);
    EXPECT_EQ(exports[1], reference[0]);
    EXPECT_EQ(coordinator.stats().cluster.sweeps, 2u);
}

}  // namespace
}  // namespace sdlc::cluster
