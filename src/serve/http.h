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
//   GET  /metrics    the existing Prometheus exposition text, so a stock
//                    Prometheus can scrape serve_tool directly (no
//                    textfile-collector workaround).
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
// Request-level failures inside an admitted sweep (bad JSON, invalid
// spec, deadline) stay in-band as the protocol's structured error events
// under a 200, exactly as on the line transport; HTTP status codes are
// reserved for transport-level outcomes (bad method, oversized headers,
// auth, quota).
#ifndef SDLC_SERVE_HTTP_H
#define SDLC_SERVE_HTTP_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/access_log.h"
#include "serve/socket.h"

namespace sdlc::serve {

class SweepService;  // serve/service.h

/// Front-door knobs (tool flags map onto these).
struct HttpOptions {
    /// Cap on the request line + headers block; beyond it the connection
    /// is answered 431 and dropped (a peer streaming header bytes forever
    /// cannot grow the buffer without limit).
    size_t max_header_bytes = 8192;
    /// Cap on a request body (413 beyond it). Tools set this to their
    /// --max-request-bytes so the HTTP and line front ends agree.
    size_t max_body_bytes = size_t{1} << 20;
    /// Non-empty = require `Authorization: Bearer <auth_token>` on
    /// /metrics and /v1/sweep (constant-time compare, 401 on mismatch).
    std::string auth_token;
    /// Sweep admissions per second per client (0 = no quota). Clients are
    /// keyed by bearer token when auth is on, else by peer address.
    double quota_rps = 0.0;
    /// Bucket depth: how many sweeps a client may burst above the steady
    /// rate (0 = same as quota_rps, minimum 1).
    double quota_burst = 0.0;
    /// Renders the current Prometheus exposition text for GET /metrics.
    /// Unset = /metrics answers 404.
    std::function<std::string()> metrics_fn;
    /// When set, one structured JSON line per HTTP request lands here
    /// (method, path, status, peer, outcome, bytes_out).
    std::shared_ptr<obs::AccessLog> access_log;
    /// Install the service's on_shutdown hook to close the listener. A
    /// tool running the HTTP listener beside a line listener installs one
    /// combined hook itself and passes false here and to serve_listener.
    bool install_shutdown_hook = true;
};

/// Serves HTTP/1.1 on `listener` until the service shuts down. Same
/// blocking lifecycle contract as serve_listener(): returns only once
/// every accepted connection is drained and joined.
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
/// Authorization header. Returns false with *error on connect/protocol
/// failure; HTTP error statuses are successful parses (check
/// out.status).
[[nodiscard]] bool http_request(const std::string& host, uint16_t port,
                                const std::string& method, const std::string& target,
                                const std::string& body, const std::string& bearer_token,
                                HttpClientResponse& out, std::string* error,
                                int timeout_ms = 30000);

}  // namespace sdlc::serve

#endif  // SDLC_SERVE_HTTP_H
