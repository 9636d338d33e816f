// Tests for the long-lived DSE service: strict request parsing, structured
// rejection of malformed/oversized lines, deterministic per-request event
// streams under request concurrency, the shared cross-request CostCache,
// cancellation, and drain-on-shutdown.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dse/evaluator.h"
#include "dse/export.h"
#include "dse/pareto.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/sink.h"
#include "util/json_parse.h"

namespace sdlc::serve {
namespace {

// ------------------------------------------------------------- fixtures ----

/// Sink that lets a test block until a request's terminal done event.
class RecordingSink final : public ResponseSink {
public:
    void write_line(const std::string& line) override {
        std::lock_guard<std::mutex> lock(mutex_);
        lines_.push_back(line);
        if (line.find("\"event\": \"done\"") != std::string::npos) ++done_;
        cv_.notify_all();
    }

    /// Lines written once at least `n` done events have arrived. Fails the
    /// test (and returns what it has) after a generous timeout.
    std::vector<std::string> wait_done(size_t n = 1) {
        std::unique_lock<std::mutex> lock(mutex_);
        const bool completed = cv_.wait_for(lock, std::chrono::seconds(60),
                                            [&] { return done_ >= n; });
        EXPECT_TRUE(completed) << "timed out waiting for " << n << " done event(s)";
        return lines_;
    }

    [[nodiscard]] std::vector<std::string> lines() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return lines_;
    }

private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::string> lines_;
    size_t done_ = 0;
};

/// A 3-point sweep request line (width 4, sdlc, row-ripple): small enough
/// that a test can run dozens of them.
std::string tiny_sweep_line(const std::string& id, const std::string& extra = "") {
    return "{\"id\": \"" + id +
           "\", \"spec\": {\"width\": 4, \"variants\": [\"sdlc\"], \"schemes\": [\"ripple\"]}" +
           extra + "}";
}

JsonValue parse_event(const std::string& line) {
    JsonValue v;
    std::string error;
    EXPECT_TRUE(json_parse(line, v, &error)) << line << " — " << error;
    return v;
}

/// Field access helpers for event assertions.
std::string event_kind(const JsonValue& e) {
    const JsonValue* kind = e.find("event");
    return kind != nullptr && kind->is_string() ? kind->string : "";
}

// ------------------------------------------------------ request parsing ----

TEST(ServeProtocol, MinimalRequestGetsDseToolDefaults) {
    SweepRequest req;
    RequestError err;
    ASSERT_TRUE(parse_request("{\"id\": \"r1\"}", kDefaultMaxRequestBytes, req, err))
        << err.message;
    EXPECT_EQ(req.id, "r1");
    EXPECT_EQ(req.type, RequestType::kSweep);
    EXPECT_EQ(req.spec.count(), SweepSpec{}.count());
    EXPECT_EQ(req.objectives, default_objectives());
    EXPECT_TRUE(req.stream_points);
    EXPECT_FALSE(req.export_json);
    EXPECT_TRUE(req.eval.use_hw_cache);
}

TEST(ServeProtocol, FullSweepRequestParses) {
    const std::string line =
        "{\"id\": \"r2\", \"type\": \"sweep\","
        " \"spec\": {\"widths\": [4, 5], \"min_depth\": 2, \"max_depth\": 3,"
        "  \"variants\": [\"sdlc\", \"compensated\"], \"schemes\": [\"wallace\"]},"
        " \"eval\": {\"seed\": \"0xabc\", \"samples\": 1000, \"exhaustive_max_width\": 6,"
        "  \"dist\": \"sparse\", \"hardware\": false, \"hw_cache\": false},"
        " \"objectives\": [\"error\", \"energy\", \"maxred\"],"
        " \"stream_points\": false, \"export\": true}";
    SweepRequest req;
    RequestError err;
    ASSERT_TRUE(parse_request(line, kDefaultMaxRequestBytes, req, err)) << err.message;
    EXPECT_EQ(req.spec.widths, (std::vector<int>{4, 5}));
    EXPECT_EQ(req.spec.min_depth, 2);
    EXPECT_EQ(req.spec.max_depth, 3);
    EXPECT_EQ(req.spec.variants,
              (std::vector<MultiplierVariant>{MultiplierVariant::kSdlc,
                                              MultiplierVariant::kCompensated}));
    EXPECT_EQ(req.eval.seed, 0xabcu);
    EXPECT_EQ(req.eval.samples, 1000u);
    EXPECT_EQ(req.eval.exhaustive_max_width, 6);
    EXPECT_EQ(req.eval.distribution, OperandDistribution::kSparse);
    EXPECT_FALSE(req.eval.evaluate_hardware);
    EXPECT_FALSE(req.eval.use_hw_cache);
    EXPECT_EQ(req.objectives,
              (ObjectiveSet{Objective::kError, Objective::kEnergy, Objective::kMaxRed}));
    EXPECT_FALSE(req.stream_points);
    EXPECT_TRUE(req.export_json);
}

TEST(ServeProtocol, StrictRejection) {
    const struct {
        const char* line;
        const char* code;
    } cases[] = {
        {"{oops", "parse_error"},
        {"[]", "invalid_request"},                                  // not an object
        {"{\"type\": \"sweep\"}", "invalid_request"},               // missing id
        {"{\"id\": \"\"}", "invalid_request"},                      // empty id
        {"{\"id\": \"r\", \"typo\": 1}", "invalid_request"},        // unknown field
        {"{\"id\": \"r\", \"type\": \"dance\"}", "invalid_request"},
        {"{\"id\": \"r\", \"spec\": {\"midth\": 4}}", "invalid_request"},
        {"{\"id\": \"r\", \"spec\": {\"width\": 4, \"widths\": [4]}}", "invalid_request"},
        {"{\"id\": \"r\", \"spec\": {\"width\": 4.5}}", "invalid_request"},
        {"{\"id\": \"r\", \"eval\": {\"threads\": 4}}", "invalid_request"},
        {"{\"id\": \"r\", \"eval\": {\"seed\": -1}}", "invalid_request"},
        {"{\"id\": \"r\", \"eval\": {\"seed\": \"18446744073709551616\"}}",
         "invalid_request"},  // 2^64: out of range must not clamp
        {"{\"id\": \"r\", \"eval\": {\"seed\": \" 42\"}}", "invalid_request"},
        {"{\"id\": \"r\", \"eval\": {\"seed\": \"+42\"}}", "invalid_request"},
        {"{\"id\": \"r\", \"eval\": {\"dist\": \"gausian\"}}", "invalid_request"},
        // Zero samples would report every sampled point as error-free.
        {"{\"id\": \"r\", \"eval\": {\"samples\": 0}}", "invalid_request"},
        {"{\"id\": \"r\", \"eval\": {\"samples\": \"0\"}}", "invalid_request"},
        // Exhaustive cutoffs above 16 would make one point an unstoppable
        // 2^34+-pair sweep; negative ones are meaningless.
        {"{\"id\": \"r\", \"eval\": {\"exhaustive_max_width\": 17}}", "invalid_request"},
        {"{\"id\": \"r\", \"eval\": {\"exhaustive_max_width\": 24}}", "invalid_request"},
        {"{\"id\": \"r\", \"eval\": {\"exhaustive_max_width\": -1}}", "invalid_request"},
        // The cutoff is exhaustive_max_width alone: "resolved_exhaustive_width"
        // is not an eval key, so a coordinator that still sends it is told.
        {"{\"id\": \"r\", \"eval\": {\"resolved_exhaustive_width\": 14}}", "invalid_request"},
        // "sliced" and "exhaustive_widths" are not eval keys.
        {"{\"id\": \"r\", \"eval\": {\"sliced\": false}}", "invalid_request"},
        {"{\"id\": \"r\", \"eval\": {\"exhaustive_widths\": {\"sliced\": 12}}}",
         "invalid_request"},
        {"{\"id\": \"r\", \"deadline_ms\": 0}", "invalid_request"},
        {"{\"id\": \"r\", \"deadline_ms\": -5}", "invalid_request"},
        // > 1e9 ms would overflow steady_clock arithmetic downstream.
        {"{\"id\": \"r\", \"deadline_ms\": 1000000001}", "invalid_request"},
        {"{\"id\": \"r\", \"deadline_ms\": \"18446744073709551615\"}", "invalid_request"},
        {"{\"id\": \"r\", \"chunk_bytes\": 0}", "invalid_request"},
        {"{\"id\": \"r\", \"chunk_bytes\": 15}", "invalid_request"},
        {"{\"id\": \"r\", \"objectives\": []}", "invalid_request"},
        {"{\"id\": \"r\", \"objectives\": [\"error\", \"error\"]}", "invalid_request"},
        {"{\"id\": \"r\", \"objectives\": [\"bogus\"]}", "invalid_request"},
        {"{\"id\": \"r\", \"type\": \"cancel\"}", "invalid_request"},  // missing target
        {"{\"id\": \"r\", \"type\": \"stats\", \"spec\": {}}", "invalid_request"},
    };
    for (const auto& c : cases) {
        SweepRequest req;
        RequestError err;
        EXPECT_FALSE(parse_request(c.line, kDefaultMaxRequestBytes, req, err)) << c.line;
        EXPECT_EQ(err.code, c.code) << c.line << " — " << err.message;
    }
}

TEST(ServeProtocol, ExhaustiveCutoffBoundsAreInclusive) {
    // 0 (sample everything) and 16 (the widest exhaustive engine) are both
    // valid; the range check must not be off by one at either end.
    SweepRequest req;
    RequestError err;
    ASSERT_TRUE(parse_request("{\"id\": \"r\", \"eval\": {\"exhaustive_max_width\": 0}}",
                              kDefaultMaxRequestBytes, req, err))
        << err.message;
    EXPECT_EQ(req.eval.exhaustive_max_width, 0);
    ASSERT_TRUE(parse_request("{\"id\": \"r\", \"eval\": {\"exhaustive_max_width\": 16}}",
                              kDefaultMaxRequestBytes, req, err))
        << err.message;
    EXPECT_EQ(req.eval.exhaustive_max_width, 16);
    // Absent, the cutoff is the default one.
    ASSERT_TRUE(parse_request("{\"id\": \"r\", \"eval\": {}}", kDefaultMaxRequestBytes, req,
                              err))
        << err.message;
    EXPECT_EQ(req.eval.exhaustive_max_width, EvalOptions{}.exhaustive_max_width);
}

TEST(ServeProtocol, SchemaErrorsKeepTheRequestId) {
    SweepRequest req;
    RequestError err;
    ASSERT_FALSE(parse_request("{\"id\": \"r9\", \"typo\": 1}", kDefaultMaxRequestBytes, req,
                               err));
    EXPECT_EQ(err.id, "r9") << "error events must be taggable with the client's id";
}

TEST(ServeProtocol, OversizedLineRejectedBeforeParsing) {
    std::string line = "{\"id\": \"big\", \"spec\": {\"widths\": [";
    while (line.size() < 4096) line += "4,";
    line += "4]}}";
    SweepRequest req;
    RequestError err;
    EXPECT_FALSE(parse_request(line, /*max_bytes=*/1024, req, err));
    EXPECT_EQ(err.code, "too_large");
    // The same line passes with the default cap (it is valid JSON).
    EXPECT_TRUE(parse_request(line, kDefaultMaxRequestBytes, req, err)) << err.message;
}

TEST(ServeProtocol, EventLinesAreParseableJson) {
    const ServiceStats stats;
    for (const std::string& line :
         {accepted_event("r", RequestType::kSweep, 60, "widths 8..8"),
          error_event("r", "parse_error", "broke \"here\"\nand here"),
          stats_event("s", stats), done_event("r", true)}) {
        EXPECT_EQ(line.find('\n'), std::string::npos) << "events must be single-line";
        (void)parse_event(line);
    }
}

// --------------------------------------------------------------- service ----

TEST(SweepService, MalformedAndOversizedLinesGetStructuredErrors) {
    ServiceOptions opts;
    opts.max_request_bytes = 256;
    SweepService service(opts);

    auto bad = std::make_shared<RecordingSink>();
    EXPECT_TRUE(service.submit_line("{not json", bad));
    auto events = bad->wait_done();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(event_kind(parse_event(events[0])), "error");
    EXPECT_EQ(parse_event(events[0]).find("code")->string, "parse_error");
    EXPECT_EQ(event_kind(parse_event(events[1])), "done");
    EXPECT_FALSE(parse_event(events[1]).find("ok")->boolean);

    auto big = std::make_shared<RecordingSink>();
    EXPECT_TRUE(service.submit_line(std::string(1024, ' ') + "{}", big));
    events = big->wait_done();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(parse_event(events[0]).find("code")->string, "too_large");

    // An enumerable-but-invalid spec fails after parsing, at validation.
    auto invalid = std::make_shared<RecordingSink>();
    EXPECT_TRUE(service.submit_line("{\"id\": \"v\", \"spec\": {\"width\": 40}}", invalid));
    events = invalid->wait_done();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(parse_event(events[0]).find("code")->string, "invalid_request");
}

TEST(SweepService, SharedCacheHitsGrowAcrossRequests) {
    SweepService service;
    std::vector<std::string> summaries;
    std::vector<uint64_t> hits;
    for (int i = 0; i < 3; ++i) {
        auto sink = std::make_shared<RecordingSink>();
        ASSERT_TRUE(service.submit_line(tiny_sweep_line("r"), sink));
        for (const std::string& line : sink->wait_done()) {
            if (event_kind(parse_event(line)) == "summary") summaries.push_back(line);
        }
        hits.push_back(service.stats().cache_hits);
    }
    ASSERT_EQ(summaries.size(), 3u);
    // The summary is a pure function of the request: the warm requests'
    // summaries are byte-identical to the cold one's...
    EXPECT_EQ(summaries[1], summaries[0]);
    EXPECT_EQ(summaries[2], summaries[0]);
    const JsonValue summary = parse_event(summaries[0]);
    EXPECT_TRUE(summary.find("hw_cache")->find("enabled")->boolean);
    EXPECT_EQ(summary.find("hw_cache")->find("hits"), nullptr);
    // ...while the raw counters show every warm request served from the
    // shared cache.
    EXPECT_GT(hits[1], hits[0]);
    EXPECT_GT(hits[2], hits[1]);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_GT(stats.cache_entries, 0u);
    EXPECT_EQ(stats.points_evaluated, 9u);
}

TEST(SweepService, PointStreamsAreIdenticalColdAndWarm) {
    SweepService service;
    std::vector<std::vector<std::string>> point_streams;
    for (int i = 0; i < 2; ++i) {
        auto sink = std::make_shared<RecordingSink>();
        ASSERT_TRUE(service.submit_line(tiny_sweep_line("r" + std::to_string(i)), sink));
        std::vector<std::string> points;
        for (const std::string& line : sink->wait_done()) {
            const JsonValue e = parse_event(line);
            if (event_kind(e) == "point") {
                // Strip the id field by re-serializing just the point payload
                // position: the raw line differs only in the id.
                points.push_back(line.substr(line.find("\"index\"")));
            }
        }
        point_streams.push_back(std::move(points));
    }
    ASSERT_EQ(point_streams[0].size(), 3u);
    EXPECT_EQ(point_streams[0], point_streams[1])
        << "a warm cache must not change any streamed point";
}

TEST(SweepService, ConcurrentStreamsMatchSequentialByteForByte) {
    // Two distinct requests, every stream captured twice: once submitted
    // sequentially (wait between), once with both in flight. The cache is
    // fully warmed first so every run sees the same pre-request cache
    // state — with that fixed, each request's stream must be
    // byte-identical however the service interleaves the work.
    ServiceOptions opts;
    opts.request_workers = 2;
    SweepService service(opts);

    const std::string line_a = tiny_sweep_line("a", ", \"export\": true");
    const std::string line_b =
        "{\"id\": \"b\", \"spec\": {\"width\": 5, \"variants\": [\"compensated\"],"
        " \"schemes\": [\"dadda\"]}, \"objectives\": [\"error\", \"energy\"]}";
    for (const std::string& line : {line_a, line_b}) {  // warm the cache
        auto sink = std::make_shared<RecordingSink>();
        ASSERT_TRUE(service.submit_line(line, sink));
        sink->wait_done();
    }

    auto seq_a = std::make_shared<RecordingSink>();
    ASSERT_TRUE(service.submit_line(line_a, seq_a));
    seq_a->wait_done();
    auto seq_b = std::make_shared<RecordingSink>();
    ASSERT_TRUE(service.submit_line(line_b, seq_b));
    seq_b->wait_done();

    auto con_a = std::make_shared<RecordingSink>();
    auto con_b = std::make_shared<RecordingSink>();
    ASSERT_TRUE(service.submit_line(line_a, con_a));
    ASSERT_TRUE(service.submit_line(line_b, con_b));
    con_a->wait_done();
    con_b->wait_done();

    EXPECT_EQ(seq_a->lines(), con_a->lines());
    EXPECT_EQ(seq_b->lines(), con_b->lines());
}

TEST(SweepService, ExportPayloadMatchesBatchExport) {
    // The result event must embed byte-for-byte what dse_tool --json would
    // write for the same sweep against a cold cache.
    SweepSpec spec;
    spec.widths = {4};
    spec.variants = {MultiplierVariant::kSdlc};
    spec.schemes = {AccumulationScheme::kRowRipple};
    EvalOptions eval;
    SweepStats stats;
    const std::vector<DesignPoint> points = evaluate_sweep(spec, eval, &stats);
    const ParetoResult pareto = pareto_analysis(objective_matrix(points));
    const std::string expected = dse_to_json(points, pareto.rank, stats);

    SweepService service;
    auto sink = std::make_shared<RecordingSink>();
    ASSERT_TRUE(service.submit_line(tiny_sweep_line("x", ", \"export\": true"), sink));
    std::string payload;
    for (const std::string& line : sink->wait_done()) {
        const JsonValue e = parse_event(line);
        if (event_kind(e) == "result") payload = e.find("data")->string;
    }
    EXPECT_EQ(payload, expected);
}

TEST(SweepService, StatsRequestReportsQueueAndCache) {
    SweepService service;
    auto sink = std::make_shared<RecordingSink>();
    ASSERT_TRUE(service.submit_line("{\"id\": \"s\", \"type\": \"stats\"}", sink));
    const auto events = sink->wait_done();
    ASSERT_EQ(events.size(), 2u);
    const JsonValue stats = parse_event(events[0]);
    EXPECT_EQ(event_kind(stats), "stats");
    ASSERT_NE(stats.find("queue_depth"), nullptr);
    ASSERT_NE(stats.find("hw_cache"), nullptr);
    EXPECT_EQ(stats.find("hw_cache")->find("hits")->number, 0.0);
    EXPECT_TRUE(parse_event(events[1]).find("ok")->boolean);
}

TEST(SweepService, CancelStopsAQueuedSweep) {
    // One worker: the first sweep occupies it while the victim waits in
    // the queue, so the cancel lands before the victim starts.
    ServiceOptions opts;
    opts.request_workers = 1;
    SweepService service(opts);

    auto first = std::make_shared<RecordingSink>();
    auto victim = std::make_shared<RecordingSink>();
    auto cancel = std::make_shared<RecordingSink>();
    ASSERT_TRUE(service.submit_line("{\"id\": \"busy\", \"spec\": {\"width\": 8}}", first));
    ASSERT_TRUE(service.submit_line(tiny_sweep_line("victim"), victim));
    ASSERT_TRUE(service.submit_line(
        "{\"id\": \"c\", \"type\": \"cancel\", \"target\": \"victim\"}", cancel));

    const auto cancel_events = cancel->wait_done();
    ASSERT_EQ(cancel_events.size(), 1u) << "cancel is acknowledged immediately";
    EXPECT_TRUE(parse_event(cancel_events[0]).find("ok")->boolean);

    const auto victim_events = victim->wait_done();
    bool saw_cancelled = false;
    for (const std::string& line : victim_events) {
        const JsonValue e = parse_event(line);
        if (event_kind(e) == "error") {
            EXPECT_EQ(e.find("code")->string, "cancelled");
            saw_cancelled = true;
        }
        if (event_kind(e) == "point") FAIL() << "cancelled sweep must not stream points";
    }
    EXPECT_TRUE(saw_cancelled);
    first->wait_done();  // the busy sweep itself completes normally
    EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(SweepService, CancelUnknownTargetFails) {
    SweepService service;
    auto sink = std::make_shared<RecordingSink>();
    ASSERT_TRUE(service.submit_line(
        "{\"id\": \"c\", \"type\": \"cancel\", \"target\": \"ghost\"}", sink));
    const auto events = sink->wait_done();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(parse_event(events[0]).find("code")->string, "unknown_target");
    EXPECT_FALSE(parse_event(events[1]).find("ok")->boolean);
}

TEST(SweepService, ShutdownDrainsEveryQueuedRequest) {
    // One worker and several queued sweeps: the shutdown request is at the
    // back of the queue, so "drain" means every request ahead of it still
    // produces its full stream; later submissions are refused.
    ServiceOptions opts;
    opts.request_workers = 1;
    SweepService service(opts);

    std::vector<std::shared_ptr<RecordingSink>> sinks;
    for (int i = 0; i < 4; ++i) {
        sinks.push_back(std::make_shared<RecordingSink>());
        ASSERT_TRUE(service.submit_line(tiny_sweep_line("d" + std::to_string(i)), sinks.back()));
    }
    auto quit = std::make_shared<RecordingSink>();
    ASSERT_TRUE(service.submit_line("{\"id\": \"q\", \"type\": \"shutdown\"}", quit));
    service.shutdown();  // blocks until the queue is drained and workers joined

    for (int i = 0; i < 4; ++i) {
        const auto events = sinks[i]->lines();
        ASSERT_FALSE(events.empty());
        bool completed = false;
        for (const std::string& line : events) {
            const JsonValue e = parse_event(line);
            if (event_kind(e) == "done") completed = e.find("ok")->boolean;
        }
        EXPECT_TRUE(completed) << "queued request d" << i << " must finish before shutdown";
    }
    EXPECT_TRUE(parse_event(quit->lines().back()).find("ok")->boolean);
    EXPECT_TRUE(service.shutdown_requested());

    auto late = std::make_shared<RecordingSink>();
    EXPECT_FALSE(service.submit_line(tiny_sweep_line("late"), late));
    EXPECT_EQ(parse_event(late->lines().front()).find("code")->string, "shutting_down");
}

}  // namespace
}  // namespace sdlc::serve
