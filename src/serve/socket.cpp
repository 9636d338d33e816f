#include "serve/socket.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>

namespace sdlc::serve {

namespace {

sockaddr_un make_address(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// getaddrinfo wrapper: resolved list freed on scope exit, gai error codes
/// turned into runtime_error (they are not errno values).
struct ResolvedAddress {
    addrinfo* list = nullptr;

    ResolvedAddress(const std::string& host, uint16_t port, bool passive) {
        addrinfo hints{};
        hints.ai_family = AF_UNSPEC;
        hints.ai_socktype = SOCK_STREAM;
        if (passive) hints.ai_flags = AI_PASSIVE;
        const std::string service = std::to_string(port);
        const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(), service.c_str(),
                                     &hints, &list);
        if (rc != 0) {
            throw std::runtime_error("resolve " + (host.empty() ? "*" : host) + ":" + service +
                                     ": " + ::gai_strerror(rc));
        }
    }
    ~ResolvedAddress() { ::freeaddrinfo(list); }
    ResolvedAddress(const ResolvedAddress&) = delete;
    ResolvedAddress& operator=(const ResolvedAddress&) = delete;
};

}  // namespace

SocketListener::~SocketListener() {
    close();
    if (fd_ >= 0) ::close(fd_);
}

UnixSocketServer::UnixSocketServer(const std::string& path) : path_(path) {
    const sockaddr_un addr = make_address(path_);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw_errno("socket");
    ::unlink(path_.c_str());
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        const int saved = errno;
        ::close(fd_);
        fd_ = -1;
        errno = saved;
        throw_errno("bind " + path_);
    }
    if (::listen(fd_, SOMAXCONN) != 0) {
        const int saved = errno;
        ::close(fd_);
        fd_ = -1;
        ::unlink(path_.c_str());
        errno = saved;
        throw_errno("listen " + path_);
    }
    endpoint_ = "unix:" + path_;
}

UnixSocketServer::~UnixSocketServer() {
    close();
    ::unlink(path_.c_str());
    // The fd itself is closed by the SocketListener destructor.
}

TcpSocketServer::TcpSocketServer(const std::string& host, uint16_t port) {
    const ResolvedAddress resolved(host, port, /*passive=*/true);
    int last_errno = 0;
    for (const addrinfo* ai = resolved.list; ai != nullptr; ai = ai->ai_next) {
        const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            last_errno = errno;
            continue;
        }
        // Restarted servers must be able to rebind while old connections
        // linger in TIME_WAIT.
        const int reuse = 1;
        (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 && ::listen(fd, SOMAXCONN) == 0) {
            fd_ = fd;
            break;
        }
        last_errno = errno;
        ::close(fd);
    }
    if (fd_ < 0) {
        errno = last_errno;
        throw_errno("bind tcp " + (host.empty() ? "*" : host) + ":" + std::to_string(port));
    }
    // Report the port the kernel actually chose (resolves port 0).
    sockaddr_storage bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
        if (bound.ss_family == AF_INET) {
            port_ = ntohs(reinterpret_cast<const sockaddr_in&>(bound).sin_port);
        } else if (bound.ss_family == AF_INET6) {
            port_ = ntohs(reinterpret_cast<const sockaddr_in6&>(bound).sin6_port);
        }
    }
    if (port_ == 0) port_ = port;
    endpoint_ = "tcp:" + (host.empty() ? std::string("*") : host) + ":" + std::to_string(port_);
}

int SocketListener::accept_client(int timeout_ms) {
    while (!closed_.load(std::memory_order_acquire)) {
        if (timeout_ms >= 0) {
            pollfd waiter{};
            waiter.fd = fd_;
            waiter.events = POLLIN;
            const int ready = ::poll(&waiter, 1, timeout_ms);
            if (ready == 0) return kTimeout;
            if (ready < 0) {
                if (errno == EINTR) continue;
                return -1;
            }
            // POLLIN, POLLHUP or POLLERR: fall through to accept(), which
            // resolves it (a connection, or the listener was shut down).
        }
        const int client = ::accept(fd_, nullptr, nullptr);
        if (client >= 0) {
            if (closed_.load(std::memory_order_acquire)) {
                ::close(client);
                return -1;
            }
            return client;
        }
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
            // Transient resource exhaustion must not look like shutdown; back
            // off and keep serving (fds free up as connections are reaped).
            struct timespec backoff{0, 50 * 1000 * 1000};  // 50 ms
            ::nanosleep(&backoff, nullptr);
            continue;
        }
        return -1;  // listener shut down (or a hard error): stop accepting
    }
    return -1;
}

void SocketListener::close() {
    if (closed_.exchange(true, std::memory_order_acq_rel)) return;
    // shutdown() unblocks a concurrent accept(); the fd itself is closed by
    // the destructor so a racing accept never sees a reused descriptor.
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

namespace {

/// Bounded connect: with timeout_ms >= 0 the socket connects in
/// non-blocking mode, waits for writability at most timeout_ms, checks
/// SO_ERROR, and is restored to blocking before returning. A caller that
/// promises a connect budget (the cluster coordinator) must not hang for
/// the kernel's multi-minute connect timeout on a blackholed peer.
/// Returns false with errno set on failure.
/// Waits (up to timeout_ms; -1 forever) for an in-progress connect to
/// resolve, then reports its outcome via SO_ERROR. Shared by the bounded
/// path (EINPROGRESS) and the blocking path (EINTR — the connection keeps
/// establishing asynchronously after the signal; re-calling connect()
/// would yield EALREADY, not the real outcome).
bool await_connect(int fd, int timeout_ms) {
    pollfd pfd{fd, POLLOUT, 0};
    int polled;
    while ((polled = ::poll(&pfd, 1, timeout_ms)) < 0 && errno == EINTR) {
    }
    if (polled == 0) {
        errno = ETIMEDOUT;
        return false;
    }
    if (polled < 0) return false;
    int so_error = 0;
    socklen_t so_len = sizeof so_error;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &so_len) == 0 && so_error == 0) {
        return true;
    }
    if (so_error != 0) errno = so_error;
    return false;
}

/// Suppress SIGPIPE at the socket itself where the platform supports it
/// (BSD/macOS SO_NOSIGPIPE). Linux spells the same promise MSG_NOSIGNAL on
/// each send; having both means a peer dying mid-write can never raise a
/// process-killing signal regardless of which write path runs.
void set_nosigpipe(int fd) {
#ifdef SO_NOSIGPIPE
    const int on = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &on, sizeof(on));
#else
    (void)fd;
#endif
}

bool connect_bounded(int fd, const sockaddr* addr, socklen_t len, int timeout_ms) {
    if (timeout_ms < 0) {
        if (::connect(fd, addr, len) == 0) return true;
        // EINTR: the handshake continues in the background; wait it out.
        if (errno == EINTR) return await_connect(fd, -1);
        return false;
    }
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) return false;
    bool ok = ::connect(fd, addr, len) == 0;
    if (!ok && (errno == EINPROGRESS || errno == EINTR)) {
        ok = await_connect(fd, timeout_ms);
    }
    const int saved = errno;
    (void)::fcntl(fd, F_SETFL, flags);  // restore blocking mode either way
    errno = saved;
    return ok;
}

}  // namespace

int unix_socket_connect(const std::string& path, int timeout_ms) {
    const sockaddr_un addr = make_address(path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket");
    set_nosigpipe(fd);
    if (!connect_bounded(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr),
                         timeout_ms)) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throw_errno("connect " + path);
    }
    return fd;
}

int tcp_connect(const std::string& host, uint16_t port, int timeout_ms) {
    if (host.empty()) throw std::runtime_error("tcp connect: host must be non-empty");
    const ResolvedAddress resolved(host, port, /*passive=*/false);
    int last_errno = 0;
    for (const addrinfo* ai = resolved.list; ai != nullptr; ai = ai->ai_next) {
        const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            last_errno = errno;
            continue;
        }
        set_nosigpipe(fd);
        if (connect_bounded(fd, ai->ai_addr, ai->ai_addrlen, timeout_ms)) return fd;
        last_errno = errno;
        ::close(fd);
    }
    errno = last_errno;
    throw_errno("connect tcp " + host + ":" + std::to_string(port));
}

bool parse_host_port(const std::string& spec, std::string& host, uint16_t& port,
                     std::string* error, bool allow_port_zero) {
    // A bracketed IPv6 literal with no port ("[::1]") would otherwise split
    // at a colon *inside* the address and report a baffling `invalid port
    // "1]"`; catch the shape explicitly and say what is actually missing.
    if (!spec.empty() && spec.front() == '[' && spec.back() == ']') {
        if (error != nullptr) {
            *error = "missing port after bracketed IPv6 address \"" + spec + "\"" +
                     " (expected \"" + spec + ":PORT\")";
        }
        return false;
    }
    const size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
        if (error != nullptr) *error = "expected HOST:PORT, got \"" + spec + "\"";
        return false;
    }
    std::string h = spec.substr(0, colon);
    if (h.size() >= 2 && h.front() == '[' && h.back() == ']') h = h.substr(1, h.size() - 2);
    const std::string port_text = spec.substr(colon + 1);
    if (port_text.empty() || port_text.find_first_not_of("0123456789") != std::string::npos) {
        if (error != nullptr) *error = "invalid port \"" + port_text + "\"";
        return false;
    }
    unsigned long parsed = 0;
    for (const char c : port_text) {
        parsed = parsed * 10 + static_cast<unsigned long>(c - '0');
        if (parsed > 65535) {
            if (error != nullptr) *error = "port " + port_text + " is out of range";
            return false;
        }
    }
    if (parsed == 0 && !allow_port_zero) {
        if (error != nullptr) {
            *error = "port 0 is not a connectable port in \"" + spec + "\"";
        }
        return false;
    }
    host = std::move(h);
    port = static_cast<uint16_t>(parsed);
    return true;
}

bool parse_endpoint(const std::string& spec, SocketEndpoint& out, std::string* error) {
    auto fail = [error](const std::string& message) {
        if (error != nullptr) *error = message;
        return false;
    };
    if (spec.rfind("unix:", 0) == 0) {
        const std::string path = spec.substr(5);
        if (path.empty()) return fail("empty unix socket path in \"" + spec + "\"");
        out = SocketEndpoint{};
        out.is_unix = true;
        out.path_or_host = path;
        return true;
    }
    std::string host_port = spec;
    if (host_port.rfind("tcp:", 0) == 0) host_port = host_port.substr(4);
    std::string host;
    uint16_t port = 0;
    std::string parse_error;
    // Endpoints are connect targets: port 0 would only fail later at
    // connect with a bare errno, so reject it here where the flag name is
    // known.
    if (!parse_host_port(host_port, host, port, &parse_error, /*allow_port_zero=*/false)) {
        return fail("endpoint \"" + spec + "\": " + parse_error +
                    " (expected unix:PATH or HOST:PORT)");
    }
    out = SocketEndpoint{};
    out.is_unix = false;
    out.path_or_host = host;
    out.port = port;
    return true;
}

bool parse_endpoint_list(const std::string& list, std::vector<std::string>& out,
                         std::string* error) {
    out.clear();
    size_t start = 0;
    while (start <= list.size()) {
        const size_t comma = list.find(',', start);
        const std::string item =
            list.substr(start, comma == std::string::npos ? comma : comma - start);
        if (!item.empty()) {
            SocketEndpoint endpoint;
            if (!parse_endpoint(item, endpoint, error)) return false;
            out.push_back(item);
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    if (!list.empty() && out.empty()) {
        if (error != nullptr) *error = "empty endpoint list";
        return false;
    }
    return true;
}

bool write_all(int fd, std::string_view data) {
    while (!data.empty()) {
        // MSG_NOSIGNAL: a vanished peer must surface as an error return,
        // not a process-killing SIGPIPE. Falls back to write() for fds
        // (pipes) that are not sockets.
        ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK) n = ::write(fd, data.data(), data.size());
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        data.remove_prefix(static_cast<size_t>(n));
    }
    return true;
}

bool LineReader::next(std::string& line) {
    while (true) {
        const size_t newline = buffer_.find('\n');
        if (newline != std::string::npos) {
            line.assign(buffer_, 0, newline);
            buffer_.erase(0, newline + 1);
            return true;
        }
        if (max_line_ != 0 && buffer_.size() > max_line_) {
            eof_ = true;  // runaway unterminated line: drop the stream
            overflowed_ = true;
            buffer_.clear();
            return false;
        }
        if (eof_) {
            if (buffer_.empty()) return false;
            line = std::move(buffer_);
            buffer_.clear();
            return true;
        }
        char chunk[4096];
        const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR) continue;
            eof_ = true;
            buffer_.clear();  // error-truncated bytes must not become a line
            continue;
        }
        if (n == 0) {
            eof_ = true;
            continue;
        }
        buffer_.append(chunk, static_cast<size_t>(n));
    }
}

FdSink::FdSink(int fd, bool owns_fd) : fd_(fd), owns_fd_(owns_fd) {
    set_nosigpipe(fd_);
    if (owns_fd_ && kSendTimeoutSeconds > 0) {
        // Best-effort: a non-socket fd rejects the option, and write_all's
        // error handling covers the unbounded-blocking case no worse than
        // before.
        timeval timeout{};
        timeout.tv_sec = kSendTimeoutSeconds;
        (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
        // Event lines are latency-sensitive and already line-batched;
        // Nagle only delays them. Harmlessly refused on non-TCP fds.
        const int nodelay = 1;
        (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    }
}

FdSink::~FdSink() {
    if (owns_fd_) ::close(fd_);
}

void FdSink::write_line(const std::string& line) {
    // One send per event: with TCP_NODELAY, a separate newline write
    // would put each event in two segments.
    write_raw(line + '\n');
}

void FdSink::write_raw(std::string_view data) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dropped_) return;
    // Raw frames carry their own framing (HTTP heads, chunk envelopes), so
    // no newline is appended.
    if (!write_all(fd_, data)) dropped_ = true;
}

bool FdSink::dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

}  // namespace sdlc::serve
