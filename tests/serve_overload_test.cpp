// Overload behavior of the bounded request queue: with load-shedding
// enabled a full queue answers deterministic `overloaded` rejections, a
// control request that meets a full queue is answered inline and logged,
// no response is ever lost or duplicated, and shutdown still drains every
// admitted request — including under many concurrent submitting clients.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/access_log.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/sink.h"
#include "util/json_parse.h"

namespace sdlc::serve {
namespace {

std::string tiny_sweep_line(const std::string& id) {
    return "{\"id\": \"" + id +
           "\", \"spec\": {\"width\": 4, \"variants\": [\"sdlc\"], \"schemes\": [\"ripple\"]}}";
}

/// Counts terminal events and remembers error codes, and can gate the very
/// first write so a test pins the service's one worker in place: the
/// worker blocks inside run_sweep's first event until release().
class GateSink final : public ResponseSink {
public:
    explicit GateSink(bool gated = false) : gated_(gated) {}

    void write_line(const std::string& line) override {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (gated_ && !released_) {
                entered_ = true;
                entered_cv_.notify_all();
                release_cv_.wait(lock, [&] { return released_; });
            }
            lines_.push_back(line);
            if (line.find("\"event\": \"done\"") != std::string::npos) ++done_;
        }
        done_cv_.notify_all();
    }

    /// Blocks until the gated first write has started (the worker is
    /// provably inside this request).
    void wait_entered() {
        std::unique_lock<std::mutex> lock(mutex_);
        ASSERT_TRUE(entered_cv_.wait_for(lock, std::chrono::seconds(60),
                                         [&] { return entered_; }));
    }

    void release() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            released_ = true;
        }
        release_cv_.notify_all();
    }

    std::vector<std::string> wait_done(size_t n = 1) {
        std::unique_lock<std::mutex> lock(mutex_);
        EXPECT_TRUE(done_cv_.wait_for(lock, std::chrono::seconds(60),
                                      [&] { return done_ >= n; }));
        return lines_;
    }

    [[nodiscard]] size_t done_count() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return done_;
    }

    [[nodiscard]] std::vector<std::string> lines() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return lines_;
    }

private:
    mutable std::mutex mutex_;
    std::condition_variable entered_cv_;
    std::condition_variable release_cv_;
    std::condition_variable done_cv_;
    std::vector<std::string> lines_;
    size_t done_ = 0;
    bool gated_;
    bool entered_ = false;
    bool released_ = false;
};

std::string error_code(const std::vector<std::string>& lines) {
    for (const std::string& line : lines) {
        JsonValue e;
        if (!json_parse(line, e)) continue;
        const JsonValue* kind = e.find("event");
        if (kind != nullptr && kind->is_string() && kind->string == "error") {
            return e.find("code")->string;
        }
    }
    return "";
}

TEST(ServeOverload, FullQueueRejectsDeterministically) {
    ServiceOptions opts;
    opts.request_workers = 1;
    opts.queue_capacity = 2;
    opts.reject_when_full = true;
    SweepService service(opts);

    // Pin the single worker inside a gated request; the queue is now
    // provably empty and the worker provably busy.
    auto blocker = std::make_shared<GateSink>(/*gated=*/true);
    ASSERT_TRUE(service.submit_line(tiny_sweep_line("blocker"), blocker));
    blocker->wait_entered();

    // Fill the queue to capacity: both admitted without blocking.
    auto queued_a = std::make_shared<GateSink>();
    auto queued_b = std::make_shared<GateSink>();
    ASSERT_TRUE(service.submit_line(tiny_sweep_line("qa"), queued_a));
    ASSERT_TRUE(service.submit_line(tiny_sweep_line("qb"), queued_b));

    // Every further submission is shed, deterministically, without
    // blocking: error `overloaded` plus a failed done, service stays up.
    const int shed = 5;
    std::vector<std::shared_ptr<GateSink>> rejected;
    for (int i = 0; i < shed; ++i) {
        rejected.push_back(std::make_shared<GateSink>());
        EXPECT_TRUE(service.submit_line(tiny_sweep_line("r" + std::to_string(i)),
                                        rejected.back()));
        const auto events = rejected.back()->wait_done();
        ASSERT_EQ(events.size(), 2u);
        EXPECT_EQ(error_code(events), "overloaded");
    }
    EXPECT_EQ(service.stats().overloaded, static_cast<uint64_t>(shed));
    EXPECT_EQ(service.stats().accepted, 3u);

    // Control requests are never shed or blocked: a stats request against
    // the same full queue is answered inline, immediately — the overload
    // incident stays observable while it is happening.
    auto stats_sink = std::make_shared<GateSink>();
    EXPECT_TRUE(service.submit_line("{\"id\": \"st\", \"type\": \"stats\"}", stats_sink));
    const auto stats_events = stats_sink->wait_done();
    EXPECT_EQ(error_code(stats_events), "") << "control requests must not be shed";
    EXPECT_NE(stats_events.back().find("\"ok\": true"), std::string::npos);

    // Unblock: everything admitted still completes exactly once.
    blocker->release();
    blocker->wait_done();
    queued_a->wait_done();
    queued_b->wait_done();
    EXPECT_EQ(blocker->done_count(), 1u);
    EXPECT_EQ(queued_a->done_count(), 1u);
    EXPECT_EQ(queued_b->done_count(), 1u);
    EXPECT_EQ(service.stats().completed, 3u);
    EXPECT_EQ(service.stats().overloaded, static_cast<uint64_t>(shed));
}

TEST(ServeOverload, ControlRequestAnsweredOnAFullQueueIsAccessLogged) {
    // Every request gets one access-log line, including a control request
    // that meets a full queue and is answered inline.
    const std::string path = testing::TempDir() + "/sdlc_overload_access_log.jsonl";
    ::unlink(path.c_str());
    {
        ServiceOptions opts;
        opts.request_workers = 1;
        opts.queue_capacity = 1;
        std::string error;
        opts.access_log = obs::AccessLog::open(path, &error);
        ASSERT_NE(opts.access_log, nullptr) << error;
        SweepService service(opts);

        // The worker is pinned inside one sweep and the queue holds another.
        auto blocker = std::make_shared<GateSink>(/*gated=*/true);
        ASSERT_TRUE(service.submit_line(tiny_sweep_line("blocker"), blocker));
        blocker->wait_entered();
        auto queued = std::make_shared<GateSink>();
        ASSERT_TRUE(service.submit_line(tiny_sweep_line("queued"), queued));

        auto stats_sink = std::make_shared<GateSink>();
        ASSERT_TRUE(service.submit_line("{\"id\": \"s\", \"type\": \"stats\"}", stats_sink));
        const auto stats_events = stats_sink->wait_done();
        EXPECT_NE(stats_events.back().find("\"ok\": true"), std::string::npos);
        EXPECT_EQ(stats_sink->done_count(), 1u);

        blocker->release();
        blocker->wait_done();
        queued->wait_done();
        service.shutdown();
    }
    std::ifstream in(path);
    std::vector<std::string> lines;
    size_t stats_lines = 0;
    for (std::string line; std::getline(in, line);) {
        if (line.find("\"id\": \"s\", \"verb\": \"stats\"") != std::string::npos) {
            ++stats_lines;
        }
        lines.push_back(line);
    }
    EXPECT_EQ(stats_lines, 1u) << "the inline stats answer must be logged once";
    EXPECT_EQ(lines.size(), 3u) << "one line per request: two sweeps and the stats request";
    ::unlink(path.c_str());
}

TEST(ServeOverload, RejectedDuplicateIdKeepsRunningSweepCancellable) {
    ServiceOptions opts;
    opts.request_workers = 1;
    opts.queue_capacity = 1;
    opts.reject_when_full = true;
    SweepService service(opts);

    // Sweep "X" is running (pinned); the queue is filled by another sweep.
    auto running = std::make_shared<GateSink>(/*gated=*/true);
    ASSERT_TRUE(service.submit_line(tiny_sweep_line("X"), running));
    running->wait_entered();
    auto filler = std::make_shared<GateSink>();
    ASSERT_TRUE(service.submit_line(tiny_sweep_line("fill"), filler));

    // A duplicate-id submission is shed — and must NOT strip the running
    // sweep of its cancel flag on the way out.
    auto duplicate = std::make_shared<GateSink>();
    ASSERT_TRUE(service.submit_line(tiny_sweep_line("X"), duplicate));
    ASSERT_EQ(error_code(duplicate->wait_done()), "overloaded");

    // Cancelling "X" still finds the running sweep (cancels are handled
    // inline, so the full queue is no obstacle).
    auto cancel = std::make_shared<GateSink>();
    ASSERT_TRUE(service.submit_line(
        "{\"id\": \"c\", \"type\": \"cancel\", \"target\": \"X\"}", cancel));
    const auto cancel_events = cancel->wait_done();
    EXPECT_EQ(error_code(cancel_events), "") << "cancel must still find the running sweep";
    EXPECT_NE(cancel_events.back().find("\"ok\": true"), std::string::npos);

    running->release();
    ASSERT_EQ(error_code(running->wait_done()), "cancelled");
    filler->wait_done();
    EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(ServeOverload, ConcurrentClientsLoseNoResponsesAndDrainOnShutdown) {
    ServiceOptions opts;
    opts.request_workers = 2;
    opts.queue_capacity = 4;
    opts.reject_when_full = true;
    SweepService service(opts);

    // Several clients flood the tiny queue concurrently. Every submission
    // must get exactly one terminal done event — completed or rejected —
    // and a shutdown issued mid-flood must still drain whatever was
    // admitted.
    constexpr int kClients = 4;
    constexpr int kPerClient = 12;
    std::vector<std::vector<std::shared_ptr<GateSink>>> sinks(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&service, &sinks, c] {
            for (int i = 0; i < kPerClient; ++i) {
                auto sink = std::make_shared<GateSink>();
                sinks[c].push_back(sink);
                const std::string id = "c" + std::to_string(c) + "-" + std::to_string(i);
                if (!service.submit_line(tiny_sweep_line(id), sink)) break;  // shutting down
            }
        });
    }
    for (std::thread& t : clients) t.join();
    service.shutdown();  // drain everything admitted, join workers

    uint64_t dones = 0;
    uint64_t overloaded = 0;
    uint64_t completed = 0;
    uint64_t submissions = 0;
    for (const auto& client_sinks : sinks) {
        for (const auto& sink : client_sinks) {
            ++submissions;
            // Exactly one terminal event per submission: never zero (lost),
            // never two (duplicated).
            ASSERT_EQ(sink->done_count(), 1u);
            ++dones;
            const std::string code = error_code(sink->lines());
            if (code == "overloaded") {
                ++overloaded;
            } else if (code.empty()) {
                ++completed;
            } else {
                FAIL() << "unexpected terminal code " << code;
            }
        }
    }
    EXPECT_EQ(dones, submissions);
    EXPECT_EQ(completed + overloaded, submissions);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.overloaded, overloaded);
    EXPECT_EQ(stats.completed, completed);
    EXPECT_EQ(stats.accepted, completed);
    EXPECT_GT(completed, 0u) << "the flood must not shed every request";
}

TEST(ServeOverload, ShutdownMidFloodStillTerminatesEverySubmission) {
    ServiceOptions opts;
    opts.request_workers = 1;
    opts.queue_capacity = 2;
    opts.reject_when_full = true;
    SweepService service(opts);

    std::atomic<bool> stop{false};
    std::vector<std::shared_ptr<GateSink>> sinks;
    std::mutex sinks_mutex;
    std::thread flood([&] {
        for (int i = 0; !stop.load() && i < 10000; ++i) {
            auto sink = std::make_shared<GateSink>();
            {
                std::lock_guard<std::mutex> lock(sinks_mutex);
                sinks.push_back(sink);
            }
            if (!service.submit_line(tiny_sweep_line("f" + std::to_string(i)), sink)) break;
        }
    });
    // Let some submissions land, then pull the plug while the flood runs.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    service.request_shutdown();
    stop.store(true);
    flood.join();
    service.shutdown();

    std::lock_guard<std::mutex> lock(sinks_mutex);
    for (const auto& sink : sinks) {
        EXPECT_EQ(sink->done_count(), 1u)
            << "every submission gets exactly one terminal event, even across shutdown";
        const std::string code = error_code(sink->lines());
        EXPECT_TRUE(code.empty() || code == "overloaded" || code == "shutting_down") << code;
    }
}

}  // namespace
}  // namespace sdlc::serve
