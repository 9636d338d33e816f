// Deadline + chunking integration: a deadline-cancelled sweep's partial
// point stream is a strict prefix of the full enumeration-order stream,
// and a chunked export byte-concatenates to exactly the unchunked
// dse_tool --json payload.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dse/evaluator.h"
#include "dse/export.h"
#include "dse/pareto.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/sink.h"
#include "util/json_parse.h"
#include "util/thread_pool.h"

namespace sdlc::serve {
namespace {

class RecordingSink final : public ResponseSink {
public:
    void write_line(const std::string& line) override {
        std::lock_guard<std::mutex> lock(mutex_);
        lines_.push_back(line);
        if (line.find("\"event\": \"done\"") != std::string::npos) ++done_;
        cv_.notify_all();
    }

    std::vector<std::string> wait_done(size_t n = 1) {
        std::unique_lock<std::mutex> lock(mutex_);
        EXPECT_TRUE(cv_.wait_for(lock, std::chrono::seconds(60), [&] { return done_ >= n; }));
        return lines_;
    }

private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::string> lines_;
    size_t done_ = 0;
};

JsonValue parse_event(const std::string& line) {
    JsonValue v;
    std::string error;
    EXPECT_TRUE(json_parse(line, v, &error)) << line << " — " << error;
    return v;
}

/// The point payloads of a request's stream, id stripped, in order.
std::vector<std::string> point_payloads(const std::vector<std::string>& lines) {
    std::vector<std::string> out;
    for (const std::string& line : lines) {
        if (line.find("\"event\": \"point\"") == std::string::npos) continue;
        out.push_back(line.substr(line.find("\"index\"")));
    }
    return out;
}

std::string error_code(const std::vector<std::string>& lines) {
    for (const std::string& line : lines) {
        const JsonValue e = parse_event(line);
        const JsonValue* kind = e.find("event");
        if (kind != nullptr && kind->is_string() && kind->string == "error") {
            return e.find("code")->string;
        }
    }
    return "";
}

// ------------------------------------------------------ evaluator level ----

TEST(DeadlineEvaluator, ExpiredDeadlineAbortsBeforeAnyPoint) {
    SweepSpec spec;
    spec.widths = {4};
    EvalOptions opts;
    opts.evaluate_hardware = false;
    opts.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    size_t streamed = 0;
    opts.on_point = [&](size_t, const DesignPoint&) { ++streamed; };
    EXPECT_THROW((void)evaluate_sweep(spec, opts), SweepDeadlineExceeded);
    EXPECT_EQ(streamed, 0u) << "an already-expired budget must evaluate nothing";
}

TEST(DeadlineEvaluator, PartialStreamIsStrictPrefixOfFullStream) {
    SweepSpec spec;
    spec.widths = {6};
    EvalOptions base;
    base.evaluate_hardware = false;
    ThreadPool pool(1);  // strict enumeration order point-by-point
    base.pool = &pool;

    std::vector<size_t> full;
    EvalOptions full_opts = base;
    full_opts.on_point = [&](size_t index, const DesignPoint&) { full.push_back(index); };
    const std::vector<DesignPoint> points = evaluate_sweep(spec, full_opts);
    ASSERT_EQ(full.size(), points.size());

    // Slow each point down so a ~25 ms budget trips partway through the
    // sweep (wherever that lands — the prefix property must hold at any
    // cut).
    std::vector<size_t> partial;
    EvalOptions slow = base;
    slow.deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(25);
    slow.on_point = [&](size_t index, const DesignPoint&) {
        partial.push_back(index);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    };
    EXPECT_THROW((void)evaluate_sweep(spec, slow), SweepDeadlineExceeded);

    EXPECT_LT(partial.size(), full.size());
    for (size_t i = 0; i < partial.size(); ++i) {
        EXPECT_EQ(partial[i], full[i]) << "streamed indices must be the enumeration prefix";
    }
}

// -------------------------------------------------------- service level ----

TEST(ServeDeadline, DeadlineExceededEventAndPrefixStream) {
    ServiceOptions opts;
    opts.eval_threads = 1;
    SweepService service(opts);

    // Reference: the full stream of the same request, no deadline.
    auto full_sink = std::make_shared<RecordingSink>();
    ASSERT_TRUE(service.submit_line("{\"id\": \"full\", \"spec\": {\"width\": 8}}", full_sink));
    const auto full_events = full_sink->wait_done();
    const auto full_points = point_payloads(full_events);
    ASSERT_FALSE(full_points.empty());

    // A 1 ms budget on a fresh service cannot finish a width-8 sweep: the
    // stream must carry a structured deadline_exceeded error, a failed
    // done, and only a prefix of the full point stream. (The second run
    // uses a warm cache, which only makes points faster — the budget is
    // still far below one sweep.)
    auto cut_sink = std::make_shared<RecordingSink>();
    ASSERT_TRUE(service.submit_line(
        "{\"id\": \"cut\", \"spec\": {\"width\": 8}, \"deadline_ms\": 1}", cut_sink));
    const auto cut_events = cut_sink->wait_done();
    EXPECT_EQ(error_code(cut_events), "deadline_exceeded");
    const JsonValue done = parse_event(cut_events.back());
    EXPECT_FALSE(done.find("ok")->boolean);

    const auto cut_points = point_payloads(cut_events);
    EXPECT_LT(cut_points.size(), full_points.size());
    for (size_t i = 0; i < cut_points.size(); ++i) {
        EXPECT_EQ(cut_points[i], full_points[i])
            << "a deadline cut must stream a byte-identical prefix";
    }
    EXPECT_EQ(service.stats().deadline_exceeded, 1u);
}

// ------------------------------------------------------------- chunking ----

TEST(ResultChunkerTest, BoundedChunksConcatenateExactly) {
    const struct {
        size_t payload_bytes;
        size_t chunk_bytes;
    } cases[] = {{1, 16}, {16, 16}, {17, 16}, {32, 16}, {33, 16}, {1000, 64}, {64, 1000}};
    for (const auto& c : cases) {
        std::string payload;
        for (size_t i = 0; i < c.payload_bytes; ++i) {
            payload.push_back(static_cast<char>('a' + i % 26));
        }
        BufferSink sink;
        ResultChunker chunker(sink, "x", c.chunk_bytes);
        // Feed in awkward piece sizes to exercise buffering across pieces.
        for (size_t at = 0; at < payload.size(); at += 7) {
            chunker.feed(std::string_view(payload).substr(at, 7));
        }
        chunker.finish();

        std::string reassembled;
        const std::vector<std::string> lines = sink.lines();
        for (size_t i = 0; i < lines.size(); ++i) {
            const JsonValue e = parse_event(lines[i]);
            EXPECT_EQ(e.find("event")->string, "result_chunk");
            EXPECT_EQ(static_cast<size_t>(e.find("seq")->number), i);
            EXPECT_EQ(e.find("last")->boolean, i + 1 == lines.size());
            const std::string& data = e.find("data")->string;
            if (i + 1 < lines.size()) {
                EXPECT_EQ(data.size(), c.chunk_bytes) << "non-final chunks are exactly full";
            } else {
                EXPECT_LE(data.size(), c.chunk_bytes);
                EXPECT_GE(data.size(), 1u) << "the last chunk is never empty";
            }
            reassembled += data;
        }
        EXPECT_EQ(reassembled, payload)
            << "payload " << c.payload_bytes << " chunk " << c.chunk_bytes;
    }
}

TEST(ServeChunking, ChunkedExportMatchesBatchExportByteForByte) {
    // Reference: what dse_tool --json writes for this sweep (cold cache).
    SweepSpec spec;
    spec.widths = {5};
    EvalOptions eval;
    SweepStats stats;
    const std::vector<DesignPoint> points = evaluate_sweep(spec, eval, &stats);
    const ParetoResult pareto = pareto_analysis(objective_matrix(points));
    const std::string expected = dse_to_json(points, pareto.rank, stats);

    SweepService service;
    auto sink = std::make_shared<RecordingSink>();
    ASSERT_TRUE(service.submit_line(
        "{\"id\": \"c\", \"spec\": {\"width\": 5}, \"export\": true, \"chunk_bytes\": 200}",
        sink));
    const auto events = sink->wait_done();

    std::string reassembled;
    size_t expected_seq = 0;
    bool saw_last = false;
    for (const std::string& line : events) {
        if (line.find("\"event\": \"result_chunk\"") == std::string::npos) continue;
        const JsonValue e = parse_event(line);
        EXPECT_FALSE(saw_last) << "no chunk may follow the last one";
        EXPECT_EQ(static_cast<size_t>(e.find("seq")->number), expected_seq++);
        EXPECT_LE(e.find("data")->string.size(), 200u);
        saw_last = e.find("last")->boolean;
        reassembled += e.find("data")->string;
    }
    EXPECT_TRUE(saw_last);
    EXPECT_GT(expected_seq, 1u) << "a multi-KB export at chunk 200 must span several chunks";
    EXPECT_EQ(reassembled, expected);

    // No monolithic result event when chunking was requested.
    for (const std::string& line : events) {
        EXPECT_EQ(line.find("\"event\": \"result\","), std::string::npos) << line;
    }
}

TEST(ServeChunking, ChunkedAndUnchunkedPayloadsAreIdentical) {
    // One request, chunked vs not. The export's summary embeds cache
    // hit/miss counts, so each run gets its own fresh service — identical
    // cold pre-state — and the payloads must then match byte for byte.
    const std::string chunked_line =
        "{\"id\": \"a\", \"spec\": {\"width\": 4, \"variants\": [\"sdlc\"]},"
        " \"export\": true, \"chunk_bytes\": 64}";
    const std::string plain_line =
        "{\"id\": \"a\", \"spec\": {\"width\": 4, \"variants\": [\"sdlc\"]},"
        " \"export\": true}";

    auto run = [](const std::string& line) {
        SweepService service;
        auto sink = std::make_shared<RecordingSink>();
        EXPECT_TRUE(service.submit_line(line, sink));
        return sink->wait_done();
    };

    std::string from_chunks;
    for (const std::string& line : run(chunked_line)) {
        if (line.find("\"event\": \"result_chunk\"") == std::string::npos) continue;
        from_chunks += parse_event(line).find("data")->string;
    }
    std::string from_result;
    for (const std::string& line : run(plain_line)) {
        if (line.find("\"event\": \"result\",") == std::string::npos) continue;
        from_result = parse_event(line).find("data")->string;
    }
    ASSERT_FALSE(from_result.empty());
    EXPECT_EQ(from_chunks, from_result);
}

}  // namespace
}  // namespace sdlc::serve
