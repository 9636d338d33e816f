// Stream-socket transports for the DSE service (POSIX): Unix-domain and
// TCP.
//
// The service itself is transport-agnostic (it talks ResponseSink); this
// file supplies the pieces `serve_tool` composes into a socket server and
// client: listeners whose accept() can be unblocked from another thread,
// connect helpers, a buffered line reader, and an FdSink that writes
// NDJSON lines to a connected peer. Both listeners share one accept/close
// implementation (SocketListener), so the TCP path reuses the Unix path's
// timeout tick, EINTR handling and fd-exhaustion backoff — only the bind
// differs. A peer that disappears mid-stream must not take the service
// down, so FdSink swallows write errors (further lines are dropped)
// instead of throwing into the evaluator.
#ifndef SDLC_SERVE_SOCKET_H
#define SDLC_SERVE_SOCKET_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "serve/sink.h"

namespace sdlc::serve {

/// Accept/close machinery shared by every listening stream socket. The
/// derived class binds + listens and hands the fd over; accept_client and
/// close are transport-independent from there.
class SocketListener {
public:
    virtual ~SocketListener();

    SocketListener(const SocketListener&) = delete;
    SocketListener& operator=(const SocketListener&) = delete;

    /// Returned by accept_client when `timeout_ms` elapsed with no client.
    static constexpr int kTimeout = -2;

    /// Blocks for the next client; returns the connection fd (caller owns
    /// and closes it), -1 once close() was called, or kTimeout after
    /// `timeout_ms` milliseconds with no connection (-1 = wait forever).
    /// A timeout gives a server loop a periodic tick for housekeeping
    /// (reaping finished connections) even when no client ever connects.
    [[nodiscard]] int accept_client(int timeout_ms = -1);

    /// Unblocks any accept_client() in progress and stops accepting.
    void close();

    /// Human-readable endpoint ("unix:/tmp/dse.sock", "tcp:127.0.0.1:8331").
    [[nodiscard]] const std::string& endpoint() const noexcept { return endpoint_; }

protected:
    SocketListener() = default;

    int fd_ = -1;
    std::string endpoint_;

private:
    std::atomic<bool> closed_{false};
};

/// Listening Unix-domain stream socket bound to a filesystem path. The
/// path is unlinked on construction (stale socket files from a previous
/// run would otherwise fail the bind) and again on destruction.
class UnixSocketServer final : public SocketListener {
public:
    /// Binds and listens; throws std::runtime_error on failure.
    explicit UnixSocketServer(const std::string& path);
    ~UnixSocketServer() override;

    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
};

/// Listening TCP stream socket (IPv4/IPv6 via getaddrinfo, SO_REUSEADDR).
/// Port 0 binds an ephemeral port; port() reports the one the kernel
/// chose, so tests and supervisors can bind first and publish after.
class TcpSocketServer final : public SocketListener {
public:
    /// Binds `host:port` and listens; throws std::runtime_error on failure
    /// (unresolvable host, port in use). An empty host means all
    /// interfaces.
    TcpSocketServer(const std::string& host, uint16_t port);

    /// The actually bound port (resolves port 0).
    [[nodiscard]] uint16_t port() const noexcept { return port_; }

private:
    uint16_t port_ = 0;
};

/// Connects to a listening Unix-domain socket; returns the fd (caller owns
/// it). `timeout_ms` bounds the connect itself (non-blocking connect +
/// poll; -1 = block indefinitely, the classic behavior). Throws
/// std::runtime_error on failure or timeout.
[[nodiscard]] int unix_socket_connect(const std::string& path, int timeout_ms = -1);

/// Connects to host:port over TCP; returns the fd (caller owns it).
/// `timeout_ms` bounds each address's connect attempt (name resolution is
/// not covered; pass numeric peers when that matters). Throws
/// std::runtime_error on failure or timeout.
[[nodiscard]] int tcp_connect(const std::string& host, uint16_t port, int timeout_ms = -1);

/// Splits "HOST:PORT" at the last colon ("[::1]:70" style brackets are
/// stripped from the host; an empty host — ":8331" — is allowed and means
/// all interfaces when listening). Returns false with a message in *error
/// (when non-null) on a missing or invalid port. Listener specs keep the
/// default `allow_port_zero` (port 0 = bind an ephemeral port); specs that
/// name a peer to *connect to* (--workers, client --tcp) pass false,
/// because connecting to port 0 can only fail later with a bare errno —
/// rejecting it at flag parse is the useful error.
[[nodiscard]] bool parse_host_port(const std::string& spec, std::string& host, uint16_t& port,
                                   std::string* error = nullptr, bool allow_port_zero = true);

/// One parsed connect target: "unix:PATH" or "HOST:PORT" (also accepted
/// with an explicit "tcp:" prefix).
struct SocketEndpoint {
    bool is_unix = false;
    std::string path_or_host;
    uint16_t port = 0;
};

/// Parses an endpoint spec. Returns false with a message in *error (when
/// non-null) on a malformed spec (empty unix path, missing or invalid
/// port, port 0) — tools turn that into a usage error before anything
/// starts running.
[[nodiscard]] bool parse_endpoint(const std::string& spec, SocketEndpoint& out,
                                  std::string* error = nullptr);

/// Splits a comma-separated endpoint list (`--workers`) and validates
/// every spec: empty items are skipped, and a non-empty list yielding no
/// endpoints is an error. The one parser behind both dse_tool and
/// serve_tool, so the two tools can never drift on what a list means.
/// Returns false with a message in *error (when non-null).
[[nodiscard]] bool parse_endpoint_list(const std::string& list, std::vector<std::string>& out,
                                       std::string* error = nullptr);

/// Writes all of `data`, retrying short writes. Returns false on error
/// (e.g. the peer closed the connection).
bool write_all(int fd, std::string_view data);

/// Buffered newline-delimited reader over a file descriptor.
class LineReader {
public:
    /// `max_line` bounds the partial-line buffer (0 = unbounded). A server
    /// must pass its request-size cap (plus slack): the protocol-level
    /// too_large rejection only fires once a complete line exists, so
    /// without this bound a peer streaming bytes with no newline would
    /// grow the buffer without limit.
    explicit LineReader(int fd, size_t max_line = 0) : fd_(fd), max_line_(max_line) {}

    /// Reads the next '\n'-terminated line (newline stripped) into `line`.
    /// Returns false on EOF, read error, or an over-long unterminated
    /// line. A final unterminated (but in-bounds) line at clean EOF is
    /// still delivered; bytes truncated by a read *error* are discarded —
    /// a half-received request must never execute.
    bool next(std::string& line);

    /// True when the stream ended because an unterminated line outgrew
    /// `max_line` — lets a server answer with a too_large error event
    /// before dropping the connection, matching the protocol contract.
    [[nodiscard]] bool overflowed() const noexcept { return overflowed_; }

private:
    int fd_;
    size_t max_line_;
    std::string buffer_;
    bool eof_ = false;
    bool overflowed_ = false;
};

/// ResponseSink writing NDJSON lines to a socket/pipe fd. Write failures
/// (broken peer) put the sink into a dropped state: later lines are
/// discarded silently.
///
/// With owns_fd the destructor closes the fd — a server shares one FdSink
/// per connection between its reader thread and any in-flight requests
/// (via shared_ptr), so "last reference gone" is exactly the moment the
/// descriptor can be closed without racing a late response or letting the
/// kernel reuse the fd number under a still-streaming request.
///
/// Owned (server-side) sockets also get a send timeout: write_line runs on
/// shared ThreadPool workers under the evaluator's ordered-emission lock,
/// so a peer that stops reading must flip the sink to dropped after a
/// bounded stall instead of wedging every in-flight sweep forever.
class FdSink final : public ResponseSink {
public:
    /// Seconds a blocked send may stall before the sink drops the peer
    /// (owned sockets only; 0 disables).
    static constexpr int kSendTimeoutSeconds = 30;

    explicit FdSink(int fd, bool owns_fd = false);
    ~FdSink() override;

    void write_line(const std::string& line) override;

    /// Writes `data` exactly as given — no newline framing — in one
    /// locked write_all, under the same dropped-state rules; write_line is
    /// write_raw(line + '\n'). The HTTP front door uses this for response
    /// heads and chunk frames interleaved (atomically, via the mutex) with
    /// the NDJSON event lines streamed by in-flight requests.
    void write_raw(std::string_view data);

    /// True once a write failed and the sink started dropping lines.
    [[nodiscard]] bool dropped() const;

private:
    mutable std::mutex mutex_;
    int fd_;
    bool owns_fd_;
    bool dropped_ = false;
};

}  // namespace sdlc::serve

#endif  // SDLC_SERVE_SOCKET_H
