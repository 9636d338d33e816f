// HTTP/1.1 front door over the serve stack's stream transports.
//
// Real clients and real scrapers speak HTTP, not bare NDJSON lines:
// serve_http_listener() drives a SocketListener through the same
// accept/drain lifecycle as serve_listener() (one handler thread per
// connection, periodic reaping, drain-then-unblock shutdown) but speaks
// HTTP/1.1 on each connection:
//
//   POST /v1/sweep   body = NDJSON request lines (the exact line-transport
//                    wire format); response = `Transfer-Encoding: chunked`
//                    `application/x-ndjson` streaming the event lines.
//                    The chunk payloads concatenated are byte-identical to
//                    what the same requests produce over the line
//                    transport — HTTP is framing, never content.
//   GET  /metrics    prometheus_metrics(service.stats()), the text the
//                    `metrics` verb returns, so a stock Prometheus can
//                    scrape serve_tool directly (no textfile-collector
//                    workaround).
//   GET  /healthz    200 "ok" liveness probe (always unauthenticated).
//
// On top of the routes sit two production controls:
//
//   * Bearer-token auth (`--auth-token-file`): /metrics and /v1/sweep
//     require `Authorization: Bearer <token>`, compared in constant time;
//     a missing or wrong token is a 401 recorded in the access log.
//   * Per-client token-bucket quotas (`--quota-rps`/`--quota-burst`),
//     keyed by bearer token when auth is on, else by peer address.
//     An exhausted bucket sheds the sweep with 429 + `Retry-After` before
//     the request ever touches the service queue — an HTTP-level extension
//     of the `--reject-overload` shedding path, not a bypass of it (an
//     admitted sweep that then meets a full queue still gets the in-stream
//     `overloaded` error event).
//
// The door is framing only: its body cap (413) is the service's
// max_request_bytes, and its `"tier": "http"` access-log lines go to the
// service's access_log, beside the service's own per-request lines, so
// both front ends judge and log a request the same way. Request-level
// failures inside an admitted sweep (bad JSON, invalid spec, deadline)
// stay in-band as the protocol's structured error events under a 200,
// exactly as on the line transport; HTTP status codes are reserved for
// transport-level outcomes (bad method, oversized head or body, auth,
// quota).
#ifndef SDLC_SERVE_HTTP_H
#define SDLC_SERVE_HTTP_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "serve/socket.h"

namespace sdlc::serve {

class SweepService;  // serve/service.h

/// Cap on the request line + headers block; beyond it the connection is
/// answered 431 and dropped (a peer streaming header bytes forever cannot
/// grow the buffer without limit).
inline constexpr size_t kMaxHttpHeadBytes = 8192;

/// Front-door controls (serve_tool's --auth-token-file, --quota-rps and
/// --quota-burst). Everything else the door needs it reads from the
/// service it serves.
struct HttpOptions {
    /// Non-empty = require `Authorization: Bearer <auth_token>` on
    /// /metrics and /v1/sweep (constant-time compare, 401 on mismatch).
    std::string auth_token;
    /// Sweep admissions per second per client (0 = no quota). Clients are
    /// keyed by bearer token when auth is on, else by peer address.
    double quota_rps = 0.0;
    /// Bucket depth: how many sweeps a client may burst above the steady
    /// rate (0 = same as quota_rps, minimum 1).
    double quota_burst = 0.0;
};

/// Serves HTTP/1.1 on `listener` until the service shuts down. Same
/// blocking lifecycle contract as serve_listener(): returns only once
/// every accepted connection is drained and joined. Its shutdown hook
/// closes only this listener, so it runs beside line listeners of the same
/// service and one shutdown ends them all. The body cap, the access log
/// and the /metrics text come from `service`.
void serve_http_listener(SocketListener& listener, SweepService& service,
                         const HttpOptions& options);

/// Reads a bearer token from `path` for --auth-token-file: the first line,
/// surrounding whitespace stripped (a trailing newline in a secrets file
/// must not become part of the token). Returns false with a message in
/// *error on an unreadable file or an empty token.
[[nodiscard]] bool read_auth_token_file(const std::string& path, std::string& token,
                                        std::string* error = nullptr);

/// Timing-safe equality: the comparison time depends only on the lengths,
/// never on where the first mismatching byte sits, so a caller probing a
/// bearer token learns nothing from response latency.
[[nodiscard]] bool constant_time_equal(std::string_view a, std::string_view b) noexcept;

/// Per-client token buckets: each key accrues `rps` tokens per second up
/// to `burst`, and one admission costs one token. Thread-safe; the bucket
/// table is bounded (least-recently-refilled entries are evicted), so an
/// attacker rotating keys cannot grow it without limit.
class TokenBucketLimiter {
public:
    /// Bucket-table bound; eviction kicks in beyond this many clients.
    static constexpr size_t kMaxBuckets = 16384;

    /// rps must be > 0. burst <= 0 means "same as rps", floored at 1.
    TokenBucketLimiter(double rps, double burst);

    /// Admits one request for `key` at time `now`, or returns false with
    /// `retry_after_s` = seconds until the bucket holds a whole token
    /// again. The explicit clock makes quota tests deterministic.
    bool admit(const std::string& key, std::chrono::steady_clock::time_point now,
               double& retry_after_s);

    /// admit() against the real clock.
    bool admit(const std::string& key, double& retry_after_s);

    /// Momentary client-bucket count (observability/tests).
    [[nodiscard]] size_t size() const;

private:
    struct Bucket {
        double tokens;
        std::chrono::steady_clock::time_point refreshed;
    };

    const double rps_;
    const double burst_;
    mutable std::mutex mutex_;
    std::map<std::string, Bucket> buckets_;
};

// ---- minimal HTTP/1.1 client (tests, `serve_tool --scrape --http`) ----

/// One parsed HTTP response. Header names are lowercased; a chunked body
/// arrives already decoded.
struct HttpClientResponse {
    int status = 0;
    std::string reason;
    std::map<std::string, std::string> headers;
    std::string body;
};

/// Sends one request (Connection: close) and parses the response,
/// decoding chunked transfer coding. `bearer_token` non-empty adds the
/// Authorization header. `timeout_ms` bounds the connect and then every
/// send and every read of the response (SO_SNDTIMEO/SO_RCVTIMEO), so a
/// peer that accepts and never answers fails the call after about that
/// long; it bounds each stall, not the whole exchange (-1 = no bound).
/// Returns false with *error on connect/protocol failure or a timeout;
/// HTTP error statuses are successful parses (check out.status).
[[nodiscard]] bool http_request(const std::string& host, uint16_t port,
                                const std::string& method, const std::string& target,
                                const std::string& body, const std::string& bearer_token,
                                HttpClientResponse& out, std::string* error,
                                int timeout_ms = 30000);

}  // namespace sdlc::serve

#endif  // SDLC_SERVE_HTTP_H
