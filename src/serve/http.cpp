#include "serve/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>
#include <utility>

#include "serve/service.h"
#include "serve/transport.h"
#include "util/json.h"

namespace sdlc::serve {

namespace {

// --------------------------------------------------------------- parsing ----

/// Buffered byte reader over a connection fd: the HTTP head and body need
/// delimiter- and length-based reads, not the newline framing LineReader
/// provides.
class ByteReader {
public:
    explicit ByteReader(int fd) : fd_(fd) {}

    /// Appends bytes until `buffer_` contains a blank line ending the HTTP
    /// head, EOF, or `cap` bytes. Returns true when the head terminator was
    /// found; head_end is the offset just past it.
    enum class HeadStatus { kOk, kEof, kOverflow, kError };
    HeadStatus read_head(size_t cap, size_t& head_end) {
        while (true) {
            const size_t end = find_head_end();
            if (end != std::string::npos) {
                // A complete head is still held to the cap: arriving in one
                // read must not exempt it.
                if (end > cap) return HeadStatus::kOverflow;
                head_end = end;
                return HeadStatus::kOk;
            }
            if (buffer_.size() > cap) return HeadStatus::kOverflow;
            char chunk[4096];
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n < 0) {
                if (errno == EINTR) continue;
                return HeadStatus::kError;
            }
            if (n == 0) return buffer_.empty() ? HeadStatus::kEof : HeadStatus::kError;
            buffer_.append(chunk, static_cast<size_t>(n));
        }
    }

    /// Extracts exactly `count` body bytes (the head must have been
    /// consumed first). Returns false on EOF/error before `count` arrived.
    bool read_exact(size_t count, std::string& out) {
        while (buffer_.size() < count) {
            char chunk[4096];
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n < 0) {
                if (errno == EINTR) continue;
                return false;
            }
            if (n == 0) return false;
            buffer_.append(chunk, static_cast<size_t>(n));
        }
        out.assign(buffer_, 0, count);
        buffer_.erase(0, count);
        return true;
    }

    /// Reads one CRLF/LF-terminated line (terminator stripped); used by the
    /// client-side chunked decoder. False on EOF/error.
    bool read_line(std::string& line, size_t cap = size_t{1} << 16) {
        while (true) {
            const size_t nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                line.assign(buffer_, 0, nl);
                buffer_.erase(0, nl + 1);
                if (!line.empty() && line.back() == '\r') line.pop_back();
                return true;
            }
            if (buffer_.size() > cap) return false;
            char chunk[4096];
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n < 0) {
                if (errno == EINTR) continue;
                return false;
            }
            if (n == 0) return false;
            buffer_.append(chunk, static_cast<size_t>(n));
        }
    }

    /// Drains the stream to EOF into `out` (Connection: close bodies).
    void read_to_eof(std::string& out) {
        out = std::move(buffer_);
        buffer_.clear();
        char chunk[4096];
        while (true) {
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n < 0) {
                if (errno == EINTR) continue;
                return;
            }
            if (n == 0) return;
            out.append(chunk, static_cast<size_t>(n));
        }
    }

    /// Hands the head bytes [0, head_end) over and drops them from the
    /// buffer (any body prefix read alongside stays buffered).
    std::string take_head(size_t head_end) {
        std::string head = buffer_.substr(0, head_end);
        buffer_.erase(0, head_end);
        return head;
    }

private:
    /// Offset just past "\r\n\r\n" (or bare "\n\n"); npos when incomplete.
    size_t find_head_end() const {
        const size_t crlf = buffer_.find("\r\n\r\n");
        const size_t lf = buffer_.find("\n\n");
        if (crlf == std::string::npos && lf == std::string::npos) return std::string::npos;
        if (crlf != std::string::npos && (lf == std::string::npos || crlf < lf)) {
            return crlf + 4;
        }
        return lf + 2;
    }

    int fd_;
    std::string buffer_;
};

struct HttpRequestHead {
    std::string method;
    std::string target;
    std::string version;  // "HTTP/1.1"
    std::map<std::string, std::string> headers;  // names lowercased

    [[nodiscard]] std::string header(const std::string& name) const {
        const auto it = headers.find(name);
        return it == headers.end() ? std::string() : it->second;
    }
};

std::string lowercase(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return s;
}

std::string trim(const std::string& s) {
    size_t b = 0;
    size_t e = s.size();
    while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
    while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
    return s.substr(b, e - b);
}

/// Parses the head block (request line + headers). Strict enough to reject
/// smuggling-shaped input: no obs-fold continuations, no duplicate
/// Content-Length, a single space between request-line tokens.
bool parse_request_head(const std::string& head, HttpRequestHead& out) {
    size_t pos = 0;
    auto next_line = [&head, &pos](std::string& line) {
        if (pos >= head.size()) return false;
        const size_t nl = head.find('\n', pos);
        const size_t end = nl == std::string::npos ? head.size() : nl;
        line.assign(head, pos, end - pos);
        pos = nl == std::string::npos ? head.size() : nl + 1;
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return true;
    };

    std::string line;
    if (!next_line(line) || line.empty()) return false;
    const size_t sp1 = line.find(' ');
    const size_t sp2 = sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        line.find(' ', sp2 + 1) != std::string::npos) {
        return false;
    }
    out.method = line.substr(0, sp1);
    out.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    out.version = line.substr(sp2 + 1);
    if (out.method.empty() || out.target.empty() || out.target[0] != '/') return false;
    if (out.version.rfind("HTTP/", 0) != 0) return false;

    constexpr size_t kMaxHeaders = 100;
    while (next_line(line)) {
        if (line.empty()) break;  // end of headers
        if (line[0] == ' ' || line[0] == '\t') return false;  // obs-fold
        const size_t colon = line.find(':');
        if (colon == std::string::npos || colon == 0) return false;
        if (out.headers.size() >= kMaxHeaders) return false;
        const std::string name = lowercase(line.substr(0, colon));
        const std::string value = trim(line.substr(colon + 1));
        if (name == "content-length" && out.headers.count(name) != 0 &&
            out.headers[name] != value) {
            return false;  // conflicting lengths: reject, never guess
        }
        out.headers[name] = value;
    }
    return true;
}

/// Strict non-negative integer parse for Content-Length and chunk sizes.
bool parse_size(const std::string& text, size_t& out, int base = 10) {
    if (text.empty()) return false;
    size_t value = 0;
    for (const char c : text) {
        int digit;
        if (c >= '0' && c <= '9') {
            digit = c - '0';
        } else if (base == 16 && c >= 'a' && c <= 'f') {
            digit = c - 'a' + 10;
        } else if (base == 16 && c >= 'A' && c <= 'F') {
            digit = c - 'A' + 10;
        } else {
            return false;
        }
        if (value > (std::numeric_limits<size_t>::max() - static_cast<size_t>(digit)) /
                        static_cast<size_t>(base)) {
            return false;
        }
        value = value * static_cast<size_t>(base) + static_cast<size_t>(digit);
    }
    out = value;
    return true;
}

// ------------------------------------------------------------- responses ----

const char* status_reason(int status) {
    switch (status) {
        case 200: return "OK";
        case 400: return "Bad Request";
        case 401: return "Unauthorized";
        case 404: return "Not Found";
        case 405: return "Method Not Allowed";
        case 413: return "Content Too Large";
        case 429: return "Too Many Requests";
        case 431: return "Request Header Fields Too Large";
        case 501: return "Not Implemented";
        case 505: return "HTTP Version Not Supported";
        default: return "Error";
    }
}

/// One complete non-streaming response (Content-Length framing).
std::string plain_response(int status, const std::string& content_type,
                           const std::string& body, bool keep_alive,
                           const std::string& extra_headers = "") {
    std::string out = "HTTP/1.1 " + std::to_string(status) + " " + status_reason(status) +
                      "\r\n";
    if (!content_type.empty()) out += "Content-Type: " + content_type + "\r\n";
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    out += extra_headers;
    out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
    out += "\r\n";
    out += body;
    return out;
}

std::string error_body(int status, const std::string& detail) {
    return std::string("{\"error\": ") + json_string(status_reason(status)) +
           ", \"detail\": " + json_string(detail) + "}\n";
}

// ------------------------------------------------------- streaming sink ----

/// ResponseSink wrapping one in-flight POST /v1/sweep: every NDJSON event
/// line becomes one HTTP chunk whose payload is the exact line plus '\n',
/// so concatenating the chunk payloads reproduces the line-transport bytes.
/// Counts terminal `done` events so the handler knows when the response is
/// complete (the service emits exactly one per submitted line).
class HttpChunkSink final : public ResponseSink {
public:
    explicit HttpChunkSink(std::shared_ptr<FdSink> out) : out_(std::move(out)) {}

    void write_line(const std::string& line) override {
        char size_hex[24];
        std::snprintf(size_hex, sizeof size_hex, "%zx", line.size() + 1);
        std::string chunk;
        chunk.reserve(line.size() + 24);
        chunk += size_hex;
        chunk += "\r\n";
        chunk += line;
        chunk += "\n\r\n";
        out_->write_raw(chunk);
        payload_bytes_.fetch_add(line.size() + 1, std::memory_order_relaxed);
        // Emitters JSON-escape every embedded quote, so this exact byte
        // sequence can only come from a real terminal event.
        if (line.find("\"event\": \"done\"") != std::string::npos) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++done_;
            cv_.notify_all();
        }
    }

    /// Blocks until `expected` done events have streamed. Safe even for a
    /// vanished peer: FdSink drops writes silently but the events still
    /// pass through here, so the count always completes.
    void wait_for_done(size_t expected) {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return done_ >= expected; });
    }

    [[nodiscard]] size_t payload_bytes() const noexcept {
        return payload_bytes_.load(std::memory_order_relaxed);
    }

private:
    std::shared_ptr<FdSink> out_;
    std::atomic<size_t> payload_bytes_{0};
    std::mutex mutex_;
    std::condition_variable cv_;
    size_t done_ = 0;
};

/// Peer identity for quota keying and the access log: the numeric address
/// without the port (one client = one bucket, not one per connection), or
/// "unix" for Unix-domain peers.
std::string peer_address(int fd) {
    sockaddr_storage addr{};
    socklen_t len = sizeof addr;
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return "unknown";
    char text[INET6_ADDRSTRLEN] = {0};
    if (addr.ss_family == AF_INET) {
        const auto& v4 = reinterpret_cast<const sockaddr_in&>(addr);
        if (::inet_ntop(AF_INET, &v4.sin_addr, text, sizeof text) != nullptr) return text;
    } else if (addr.ss_family == AF_INET6) {
        const auto& v6 = reinterpret_cast<const sockaddr_in6&>(addr);
        if (::inet_ntop(AF_INET6, &v6.sin6_addr, text, sizeof text) != nullptr) return text;
    } else if (addr.ss_family == AF_UNIX) {
        return "unix";
    }
    return "unknown";
}

// --------------------------------------------------------------- handler ----

/// Everything one connection handler needs, shared across its requests.
struct FrontDoor {
    SweepService& service;
    const HttpOptions& options;
    std::shared_ptr<TokenBucketLimiter> limiter;  // null without quotas

    void log(const std::string& peer, const std::string& method, const std::string& path,
             int status, const char* outcome, size_t bytes_out) const {
        if (options.access_log == nullptr) return;
        std::string line = "{\"tier\": \"http\", \"peer\": " + json_string(peer);
        line += ", \"method\": " + json_string(method);
        line += ", \"path\": " + json_string(path);
        line += ", \"status\": " + std::to_string(status);
        line += ", \"outcome\": " + json_string(outcome);
        line += ", \"bytes_out\": " + std::to_string(bytes_out);
        line += "}";
        options.access_log->write_line(line);
    }
};

/// Handles requests on one connection until close/shutdown. The sink owns
/// the fd (shared with in-flight sweeps exactly like the line transport).
void handle_http_connection(const FrontDoor& door, int fd,
                            const std::shared_ptr<FdSink>& sink) {
    const HttpOptions& opts = door.options;
    const std::string peer = peer_address(fd);
    ByteReader reader(fd);

    auto respond = [&](int status, const std::string& method, const std::string& path,
                       const char* outcome, const std::string& body, bool keep_alive,
                       const std::string& content_type = "application/json",
                       const std::string& extra_headers = "") {
        const std::string response =
            plain_response(status, content_type, body, keep_alive, extra_headers);
        sink->write_raw(response);
        door.log(peer, method, path, status, outcome, body.size());
        return keep_alive;
    };

    bool keep_alive = true;
    while (keep_alive) {
        size_t head_end = 0;
        switch (reader.read_head(opts.max_header_bytes, head_end)) {
            case ByteReader::HeadStatus::kOk:
                break;
            case ByteReader::HeadStatus::kEof:
                return;  // clean close between requests
            case ByteReader::HeadStatus::kOverflow:
                respond(431, "", "", "headers_too_large",
                        error_body(431, "request head exceeds " +
                                            std::to_string(opts.max_header_bytes) + " bytes"),
                        false);
                return;
            case ByteReader::HeadStatus::kError:
                return;  // mid-head disconnect: nothing sensible to answer
        }

        HttpRequestHead head;
        if (!parse_request_head(reader.take_head(head_end), head)) {
            respond(400, "", "", "bad_request",
                    error_body(400, "malformed HTTP request"), false);
            return;
        }
        if (head.version != "HTTP/1.1" && head.version != "HTTP/1.0") {
            respond(505, head.method, head.target, "bad_version",
                    error_body(505, "use HTTP/1.1"), false);
            return;
        }
        // Persistent by default on 1.1; 1.0 closes unless asked otherwise.
        const std::string connection = lowercase(head.header("connection"));
        keep_alive = head.version == "HTTP/1.1" ? connection != "close"
                                                : connection == "keep-alive";

        if (!head.header("transfer-encoding").empty()) {
            // Chunked request bodies are unsupported; refusing beats
            // guessing at framing (request-smuggling fuel).
            respond(501, head.method, head.target, "not_implemented",
                    error_body(501, "chunked request bodies are not supported"), false);
            return;
        }
        size_t content_length = 0;
        if (const std::string cl = head.header("content-length"); !cl.empty()) {
            if (!parse_size(cl, content_length)) {
                respond(400, head.method, head.target, "bad_request",
                        error_body(400, "invalid Content-Length"), false);
                return;
            }
        }
        if (content_length > opts.max_body_bytes) {
            respond(413, head.method, head.target, "body_too_large",
                    error_body(413, "body exceeds " + std::to_string(opts.max_body_bytes) +
                                        " bytes"),
                    false);
            return;
        }
        std::string body;
        if (content_length > 0 && !reader.read_exact(content_length, body)) {
            return;  // peer died mid-body; a half-received request never runs
        }

        // Path only; a query string never changes routing.
        const size_t query = head.target.find('?');
        const std::string path =
            query == std::string::npos ? head.target : head.target.substr(0, query);

        if (path == "/healthz") {
            // Liveness stays unauthenticated and unmetered: probes must
            // work during the exact incidents that exhaust auth and quota.
            if (head.method != "GET" && head.method != "HEAD") {
                keep_alive = respond(405, head.method, path, "method_not_allowed",
                                     error_body(405, "use GET"), keep_alive,
                                     "application/json", "Allow: GET\r\n");
                continue;
            }
            keep_alive = respond(200, head.method, path, "ok",
                                 head.method == "HEAD" ? "" : "ok\n", keep_alive,
                                 "text/plain; charset=utf-8");
            continue;
        }

        if (path != "/metrics" && path != "/v1/sweep") {
            keep_alive = respond(404, head.method, path, "not_found",
                                 error_body(404, "unknown path " + path), keep_alive);
            continue;
        }

        if (!opts.auth_token.empty()) {
            const std::string auth = head.header("authorization");
            constexpr std::string_view kBearer = "Bearer ";
            const bool ok = auth.size() > kBearer.size() &&
                            auth.compare(0, kBearer.size(), kBearer) == 0 &&
                            constant_time_equal(
                                std::string_view(auth).substr(kBearer.size()),
                                opts.auth_token);
            if (!ok) {
                keep_alive = respond(401, head.method, path, "unauthorized",
                                     error_body(401, "missing or invalid bearer token"),
                                     keep_alive, "application/json",
                                     "WWW-Authenticate: Bearer\r\n");
                continue;
            }
        }

        if (path == "/metrics") {
            if (head.method != "GET" && head.method != "HEAD") {
                keep_alive = respond(405, head.method, path, "method_not_allowed",
                                     error_body(405, "use GET"), keep_alive,
                                     "application/json", "Allow: GET\r\n");
                continue;
            }
            if (!opts.metrics_fn) {
                keep_alive = respond(404, head.method, path, "not_found",
                                     error_body(404, "metrics are not exposed here"),
                                     keep_alive);
                continue;
            }
            keep_alive = respond(200, head.method, path, "ok",
                                 head.method == "HEAD" ? "" : opts.metrics_fn(), keep_alive,
                                 "text/plain; version=0.0.4; charset=utf-8");
            continue;
        }

        // ---- POST /v1/sweep ----
        if (head.method != "POST") {
            keep_alive = respond(405, head.method, path, "method_not_allowed",
                                 error_body(405, "use POST"), keep_alive,
                                 "application/json", "Allow: POST\r\n");
            continue;
        }
        if (door.limiter != nullptr) {
            // Keyed by token when auth is on (one tenant = one budget
            // across all its connections), else by peer address.
            const std::string key =
                !opts.auth_token.empty() ? std::string("token") : peer;
            double retry_after_s = 0.0;
            if (!door.limiter->admit(key, retry_after_s)) {
                const long retry_after =
                    std::max(1L, static_cast<long>(retry_after_s + 0.999));
                keep_alive = respond(
                    429, head.method, path, "over_quota",
                    error_body(429, "per-client sweep quota exhausted"), keep_alive,
                    "application/json",
                    "Retry-After: " + std::to_string(retry_after) + "\r\n");
                continue;
            }
        }

        // Body = NDJSON request lines, exactly the line-transport format.
        std::vector<std::string> lines;
        size_t start = 0;
        while (start <= body.size()) {
            const size_t nl = body.find('\n', start);
            const size_t end = nl == std::string::npos ? body.size() : nl;
            if (end > start) lines.emplace_back(body, start, end - start);
            if (nl == std::string::npos) break;
            start = nl + 1;
        }
        if (lines.empty()) {
            keep_alive = respond(400, head.method, path, "bad_request",
                                 error_body(400, "empty request body; send NDJSON "
                                                 "request lines"),
                                 keep_alive);
            continue;
        }

        sink->write_raw(
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Cache-Control: no-store\r\n" +
            std::string(keep_alive ? "Connection: keep-alive\r\n"
                                   : "Connection: close\r\n") +
            "\r\n");
        const auto stream = std::make_shared<HttpChunkSink>(sink);
        size_t submitted = 0;
        for (const std::string& line : lines) {
            ++submitted;  // every submit_line emits exactly one done event
            if (!door.service.submit_line(line, stream)) {
                // Draining: the rejection events are already in-stream;
                // stop feeding and close after this response.
                keep_alive = false;
                break;
            }
        }
        stream->wait_for_done(submitted);
        sink->write_raw("0\r\n\r\n");
        door.log(peer, head.method, path, 200, "ok", stream->payload_bytes());
    }
}

}  // namespace

// ---------------------------------------------------------------- limiter ----

bool read_auth_token_file(const std::string& path, std::string& token, std::string* error) {
    auto fail = [error](const std::string& message) {
        if (error != nullptr) *error = message;
        return false;
    };
    std::ifstream in(path, std::ios::binary);
    if (!in) return fail("cannot open " + path);
    std::string line;
    std::getline(in, line);
    if (in.bad()) return fail("cannot read " + path);
    size_t b = 0;
    size_t e = line.size();
    while (b < e && std::isspace(static_cast<unsigned char>(line[b])) != 0) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(line[e - 1])) != 0) --e;
    if (b == e) return fail("empty token in " + path);
    token = line.substr(b, e - b);
    return true;
}

bool constant_time_equal(std::string_view a, std::string_view b) noexcept {
    // Fold the length difference into the accumulator instead of early
    // returning; scan time depends only on the lengths.
    unsigned diff = a.size() == b.size() ? 0U : 1U;
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
        diff |= static_cast<unsigned>(static_cast<unsigned char>(a[i]) ^
                                      static_cast<unsigned char>(b[i]));
    }
    return diff == 0;
}

TokenBucketLimiter::TokenBucketLimiter(double rps, double burst)
    : rps_(rps), burst_(std::max(burst > 0.0 ? burst : rps, 1.0)) {}

bool TokenBucketLimiter::admit(const std::string& key,
                               std::chrono::steady_clock::time_point now,
                               double& retry_after_s) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = buckets_.find(key);
    if (it == buckets_.end()) {
        if (buckets_.size() >= kMaxBuckets) {
            // Evict the least-recently-refreshed bucket: a key-rotating
            // flood cannot grow the table, and a stale bucket re-admitted
            // later just restarts from a full burst — lenient, not unsafe.
            auto oldest = buckets_.begin();
            for (auto scan = buckets_.begin(); scan != buckets_.end(); ++scan) {
                if (scan->second.refreshed < oldest->second.refreshed) oldest = scan;
            }
            buckets_.erase(oldest);
        }
        it = buckets_.emplace(key, Bucket{burst_, now}).first;
    }
    Bucket& bucket = it->second;
    const double elapsed =
        std::chrono::duration<double>(now - bucket.refreshed).count();
    if (elapsed > 0.0) {
        bucket.tokens = std::min(burst_, bucket.tokens + elapsed * rps_);
        bucket.refreshed = now;
    }
    if (bucket.tokens >= 1.0) {
        bucket.tokens -= 1.0;
        retry_after_s = 0.0;
        return true;
    }
    retry_after_s = (1.0 - bucket.tokens) / rps_;
    return false;
}

bool TokenBucketLimiter::admit(const std::string& key, double& retry_after_s) {
    return admit(key, std::chrono::steady_clock::now(), retry_after_s);
}

size_t TokenBucketLimiter::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return buckets_.size();
}

// --------------------------------------------------------------- listener ----

void serve_http_listener(SocketListener& listener, SweepService& service,
                         const HttpOptions& options) {
    FrontDoor door{service, options,
                   options.quota_rps > 0.0
                       ? std::make_shared<TokenBucketLimiter>(options.quota_rps,
                                                              options.quota_burst)
                       : nullptr};
    serve_connection_loop(
        listener, service,
        [door](int fd, const std::shared_ptr<FdSink>& sink) {
            handle_http_connection(door, fd, sink);
        },
        options.install_shutdown_hook);
}

// ------------------------------------------------------------ http client ----

bool http_request(const std::string& host, uint16_t port, const std::string& method,
                  const std::string& target, const std::string& body,
                  const std::string& bearer_token, HttpClientResponse& out,
                  std::string* error, int timeout_ms) {
    auto fail = [error](const std::string& message) {
        if (error != nullptr) *error = message;
        return false;
    };
    int fd;
    try {
        fd = tcp_connect(host, port, timeout_ms);
    } catch (const std::exception& e) {
        return fail(e.what());
    }

    std::string request = method + " " + target + " HTTP/1.1\r\n";
    request += "Host: " + host + ":" + std::to_string(port) + "\r\n";
    if (!bearer_token.empty()) request += "Authorization: Bearer " + bearer_token + "\r\n";
    if (!body.empty() || method == "POST") {
        request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    request += "Connection: close\r\n\r\n";
    request += body;
    if (!write_all(fd, request)) {
        ::close(fd);
        return fail("send failed");
    }

    ByteReader reader(fd);
    size_t head_end = 0;
    if (reader.read_head(size_t{1} << 20, head_end) != ByteReader::HeadStatus::kOk) {
        ::close(fd);
        return fail("no HTTP response head");
    }
    const std::string head = reader.take_head(head_end);
    const size_t line_end = head.find('\n');
    std::string status_line = head.substr(0, line_end);
    if (!status_line.empty() && status_line.back() == '\r') status_line.pop_back();
    // "HTTP/1.1 200 OK"
    const size_t sp1 = status_line.find(' ');
    if (status_line.rfind("HTTP/", 0) != 0 || sp1 == std::string::npos) {
        ::close(fd);
        return fail("malformed status line: " + status_line);
    }
    const size_t sp2 = status_line.find(' ', sp1 + 1);
    const std::string code_text =
        status_line.substr(sp1 + 1, sp2 == std::string::npos ? std::string::npos
                                                             : sp2 - sp1 - 1);
    size_t code = 0;
    if (!parse_size(code_text, code) || code < 100 || code > 599) {
        ::close(fd);
        return fail("malformed status code: " + code_text);
    }
    out = HttpClientResponse{};
    out.status = static_cast<int>(code);
    if (sp2 != std::string::npos) out.reason = status_line.substr(sp2 + 1);

    size_t pos = line_end + 1;
    while (pos < head.size()) {
        const size_t nl = head.find('\n', pos);
        const size_t end = nl == std::string::npos ? head.size() : nl;
        std::string line = head.substr(pos, end - pos);
        pos = nl == std::string::npos ? head.size() : nl + 1;
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        const size_t colon = line.find(':');
        if (colon == std::string::npos) continue;
        out.headers[lowercase(line.substr(0, colon))] = trim(line.substr(colon + 1));
    }

    bool ok = true;
    const auto te = out.headers.find("transfer-encoding");
    if (te != out.headers.end() && lowercase(te->second) == "chunked") {
        std::string size_line;
        while (true) {
            if (!reader.read_line(size_line)) {
                ok = false;
                break;
            }
            // Ignore chunk extensions (";...") per RFC 9112.
            const size_t semi = size_line.find(';');
            size_t chunk_size = 0;
            if (!parse_size(semi == std::string::npos ? size_line
                                                      : size_line.substr(0, semi),
                            chunk_size, /*base=*/16)) {
                ok = false;
                break;
            }
            if (chunk_size == 0) {
                (void)reader.read_line(size_line);  // trailing CRLF / trailers
                break;
            }
            std::string payload;
            if (!reader.read_exact(chunk_size, payload) ||
                !reader.read_line(size_line)) {  // chunk-terminating CRLF
                ok = false;
                break;
            }
            out.body += payload;
        }
    } else if (const auto cl = out.headers.find("content-length");
               cl != out.headers.end()) {
        size_t length = 0;
        if (!parse_size(cl->second, length) || !reader.read_exact(length, out.body)) {
            ok = false;
        }
    } else {
        reader.read_to_eof(out.body);
    }
    ::close(fd);
    if (!ok) return fail("truncated HTTP response body");
    return true;
}

}  // namespace sdlc::serve
