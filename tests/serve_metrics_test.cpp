// Prometheus metrics export: text-format shape (HELP/TYPE per family,
// cumulative histogram buckets, +Inf == count), histogram bucketing, the
// `metrics` request verb, and the new overload/deadline counters flowing
// through ServiceStats into the exposition.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/sink.h"
#include "util/json_parse.h"

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

TEST(LatencyHistogramTest, ObservationsLandInTheRightBucket) {
    LatencyHistogram hist;
    hist.observe(0.0005);  // <= 0.001: first bucket
    hist.observe(0.001);   // boundary: still the first bucket (le is inclusive)
    hist.observe(0.003);   // (0.0025, 0.005]
    hist.observe(9.0);     // (5, 10]
    hist.observe(60.0);    // beyond every bound: +Inf bucket
    EXPECT_EQ(hist.counts[0], 2u);
    EXPECT_EQ(hist.counts[2], 1u);
    EXPECT_EQ(hist.counts[LatencyHistogram::kBounds.size() - 1], 1u);
    EXPECT_EQ(hist.counts.back(), 1u);
    EXPECT_EQ(hist.count, 5u);
    EXPECT_NEAR(hist.sum, 0.0005 + 0.001 + 0.003 + 9.0 + 60.0, 1e-9);
}

TEST(PrometheusMetrics, RendersWellFormedExposition) {
    ServiceStats stats;
    stats.accepted = 12;
    stats.completed = 7;
    stats.failed = 1;
    stats.cancelled = 2;
    stats.deadline_exceeded = 1;
    stats.overloaded = 1;
    stats.points_evaluated = 420;
    stats.cache_hits = 100;
    stats.cache_misses = 49;
    stats.cache_entries = 49;
    stats.queue_depth = 3;
    stats.in_flight = 2;
    stats.latency.observe(0.004);
    stats.latency.observe(0.004);
    stats.latency.observe(99.0);

    const std::string text = prometheus_metrics(stats);

    // Every non-comment line is `name{labels} value` or `name value`; every
    // metric family is preceded by HELP and TYPE comments.
    std::istringstream lines(text);
    std::string line;
    std::string last_comment_metric;
    size_t samples = 0;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty()) << "no blank lines in the exposition";
        if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
            last_comment_metric = line.substr(7, line.find(' ', 7) - 7);
            continue;
        }
        ++samples;
        const size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        const std::string name = line.substr(0, line.find_first_of("{ "));
        EXPECT_EQ(name.rfind(kMetricsPrefix, 0), 0u) << "metric not namespaced: " << line;
        // The sample belongs to the family announced by the comments
        // directly above it (histogram samples append _bucket/_sum/_count).
        EXPECT_EQ(name.rfind(last_comment_metric, 0), 0u) << line;
    }
    EXPECT_GT(samples, 15u);

    // Spot-check the counters.
    EXPECT_NE(text.find("sdlc_serve_requests_accepted_total 12\n"), std::string::npos);
    EXPECT_NE(text.find("sdlc_serve_requests_total{outcome=\"completed\"} 7\n"),
              std::string::npos);
    EXPECT_NE(text.find("sdlc_serve_requests_total{outcome=\"deadline_exceeded\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("sdlc_serve_requests_total{outcome=\"overloaded\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("sdlc_serve_hw_cache_lookups_total{result=\"hit\"} 100\n"),
              std::string::npos);
    EXPECT_NE(text.find("sdlc_serve_hw_cache_lookups_total{result=\"miss\"} 49\n"),
              std::string::npos);
    EXPECT_NE(text.find("sdlc_serve_hw_cache_entries 49\n"), std::string::npos);
    EXPECT_NE(text.find("sdlc_serve_queue_depth 3\n"), std::string::npos);

    // Histogram: cumulative buckets, `+Inf` equals _count, _sum matches.
    EXPECT_NE(text.find("sdlc_serve_request_duration_seconds_bucket{le=\"0.005\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("sdlc_serve_request_duration_seconds_bucket{le=\"10\"} 2\n"),
              std::string::npos)
        << "buckets are cumulative: the 99 s outlier is only in +Inf";
    EXPECT_NE(text.find("sdlc_serve_request_duration_seconds_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("sdlc_serve_request_duration_seconds_count 3\n"), std::string::npos);
}

TEST(ServeMetrics, MetricsRequestVerbAnswersPrometheusText) {
    SweepService service;

    // Run one tiny sweep so the counters are nonzero.
    auto sweep_sink = std::make_shared<RecordingSink>();
    ASSERT_TRUE(service.submit_line(
        "{\"id\": \"s\", \"spec\": {\"width\": 4, \"variants\": [\"sdlc\"],"
        " \"schemes\": [\"ripple\"]}}",
        sweep_sink));
    sweep_sink->wait_done();

    auto sink = std::make_shared<RecordingSink>();
    ASSERT_TRUE(service.submit_line("{\"id\": \"m\", \"type\": \"metrics\"}", sink));
    const auto events = sink->wait_done();
    ASSERT_EQ(events.size(), 2u);

    JsonValue event;
    std::string error;
    ASSERT_TRUE(json_parse(events[0], event, &error)) << error;
    EXPECT_EQ(event.find("event")->string, "metrics");
    EXPECT_EQ(event.find("format")->string, "prometheus");
    const std::string& text = event.find("data")->string;
    EXPECT_NE(text.find("sdlc_serve_requests_total{outcome=\"completed\"} 1\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("sdlc_serve_points_evaluated_total 3\n"), std::string::npos) << text;
    EXPECT_NE(text.find("sdlc_serve_request_duration_seconds_count 1\n"), std::string::npos)
        << text;
    EXPECT_NE(events[1].find("\"ok\": true"), std::string::npos);

    // The stats event carries the same new counters in JSON form.
    auto stats_sink = std::make_shared<RecordingSink>();
    ASSERT_TRUE(service.submit_line("{\"id\": \"st\", \"type\": \"stats\"}", stats_sink));
    const auto stats_events = stats_sink->wait_done();
    JsonValue stats_event_json;
    ASSERT_TRUE(json_parse(stats_events[0], stats_event_json, &error)) << error;
    const JsonValue* requests = stats_event_json.find("requests");
    ASSERT_NE(requests, nullptr);
    ASSERT_NE(requests->find("deadline_exceeded"), nullptr);
    ASSERT_NE(requests->find("overloaded"), nullptr);
}

}  // namespace
}  // namespace sdlc::serve
