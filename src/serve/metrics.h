// Prometheus text-format (exposition format version 0.0.4) rendering of
// ServiceStats.
//
// The same text reaches a scraper two ways: a `{"type": "metrics"}`
// request answers with a `metrics` event whose `data` field holds exactly
// this text (`serve_tool --scrape` decodes it back to the raw exposition
// format), and the HTTP front door serves it as `GET /metrics` for a stock
// Prometheus. Counters are monotonic since service start; gauges are
// momentary; the request-latency histogram follows the cumulative-`le`
// bucket convention.
#ifndef SDLC_SERVE_METRICS_H
#define SDLC_SERVE_METRICS_H

#include <string>

#include "serve/protocol.h"

namespace sdlc::serve {

/// Metric name prefix ("sdlc_serve_").
inline constexpr const char* kMetricsPrefix = "sdlc_serve_";

/// Build version surfaced as sdlc_serve_build_info{version="..."}. Bumped
/// with the protocol.
inline constexpr const char* kBuildVersion = "0.10.0";

/// Renders `stats` as Prometheus text format (trailing newline included).
[[nodiscard]] std::string prometheus_metrics(const ServiceStats& stats);

/// Structural validator for Prometheus exposition text (version 0.0.4):
/// every line must be a comment or a `name[{labels}] value` sample with a
/// parseable float value, and at least one sample must be present. The
/// --scrape paths run scraped text through this so a daemon answering
/// garbage fails the scrape (exit 3) instead of poisoning a collector.
[[nodiscard]] bool validate_exposition(const std::string& text, std::string* error = nullptr);

}  // namespace sdlc::serve

#endif  // SDLC_SERVE_METRICS_H
