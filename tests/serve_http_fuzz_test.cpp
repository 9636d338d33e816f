// Seeded fuzzing of the two HTTP parsers that face the network
// (src/serve/http.cpp). Like protocol_fuzz_test, every case comes from a
// fixed-seed generator, so a failure reproduces exactly.
//
// Server side: random and mutated request heads go to a live
// serve_http_listener over loopback. Every reply must end within 5 s and
// be either empty (the door closed) or responses whose status lines carry
// a status the door emits; afterwards the door must still answer
// GET /healthz. Only heads and framing are mutated: protocol_fuzz_test
// covers the NDJSON bodies, and a mutated body could start a long sweep.
//
// Client side: a scripted peer answers http_request with mutated chunked
// and Content-Length responses, sometimes holding the connection open
// after a truncated one; every call must return within its budget.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/http.h"
#include "serve/service.h"
#include "serve/socket.h"
#include "util/rng.h"

namespace sdlc::serve {
namespace {

using steady_clock = std::chrono::steady_clock;

constexpr auto kReplyBudget = std::chrono::seconds(5);

template <typename T, size_t N>
const T& pick(Xoshiro256& rng, const T (&options)[N]) {
    return options[rng.below(N)];
}

/// Bounds every read and write on `fd` by `budget` (SO_RCVTIMEO and
/// SO_SNDTIMEO), so a test never blocks on a silent peer.
void set_io_budget(int fd, std::chrono::milliseconds budget) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(budget.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((budget.count() % 1000) * 1000);
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

// ------------------------------------------------------------ server side ----

constexpr const char* kToken = "fuzz-token";

/// Request bodies stay fixed and cheap: a stats request or a width-4 sweep.
constexpr const char* kBodies[] = {
    "{\"id\": \"fz\", \"type\": \"stats\"}\n",
    "{\"id\": \"fz\", \"spec\": {\"width\": 4, \"variants\": [\"sdlc\"], "
    "\"schemes\": [\"ripple\"]}}\n",
};

struct Request {
    std::string head;  ///< request line and headers, through the blank line
    std::string body;
};

Request base_request(Xoshiro256& rng) {
    Request r;
    switch (rng.below(4)) {
        case 0:
            r.head = "GET /healthz HTTP/1.1\r\nHost: fuzz\r\n";
            break;
        case 1:
            r.head = "GET /metrics HTTP/1.1\r\nHost: fuzz\r\n";
            break;
        case 2:
            r.head = "HEAD /metrics?x=1 HTTP/1.0\r\nHost: fuzz\r\n";
            break;
        default:
            r.body = pick(rng, kBodies);
            r.head = "POST /v1/sweep HTTP/1.1\r\nHost: fuzz\r\n"
                     "Content-Type: application/x-ndjson\r\nContent-Length: " +
                     std::to_string(r.body.size()) + "\r\n";
            break;
    }
    if (rng.below(4) != 0) r.head += std::string("Authorization: Bearer ") + kToken + "\r\n";
    if (rng.below(2) == 0) r.head += "Connection: close\r\n";
    r.head += "\r\n";
    return r;
}

/// Inserts one header line right after the request line.
void insert_header(std::string& head, const std::string& line) {
    const size_t eol = head.find("\r\n");
    head.insert(eol == std::string::npos ? head.size() : eol + 2, line + "\r\n");
}

/// Applies one mutation to the head or the framing of `r`.
void mutate(Xoshiro256& rng, Request& r) {
    std::string& head = r.head;
    if (head.empty()) head = "\r\n";
    switch (rng.below(9)) {
        case 0:  // byte flip
            head[rng.below(head.size())] = static_cast<char>(rng.below(256));
            break;
        case 1:  // deletion of a short run
            head.erase(rng.below(head.size()), 1 + rng.below(8));
            break;
        case 2: {  // a framing byte inserted anywhere
            constexpr char kBytes[] = {'\r', '\n', '\0', ':', '\t', ' '};
            head.insert(head.begin() + static_cast<std::ptrdiff_t>(rng.below(head.size() + 1)),
                        pick(rng, kBytes));
            break;
        }
        case 3: {  // a slice duplicated in place
            const size_t at = rng.below(head.size());
            const size_t len = 1 + rng.below(std::min<size_t>(48, head.size() - at));
            head.insert(at, head.substr(at, len));
            break;
        }
        case 4: {  // hostile Content-Length value
            constexpr const char* kLengths[] = {
                "-1", "18446744073709551616", "99999999999999999999999", "1e3", "0x10", "",
                "+5", "4294967296", "1048577", "0", "7 7"};
            const std::string value = pick(rng, kLengths);
            const size_t at = head.find("Content-Length: ");
            if (at == std::string::npos) {
                insert_header(head, "Content-Length: " + value);
            } else {
                const size_t start = at + 16;
                const size_t eol = head.find("\r\n", start);
                head.replace(start, eol == std::string::npos ? std::string::npos : eol - start,
                             value);
            }
            break;
        }
        case 5:  // duplicate, possibly conflicting, Content-Length
            insert_header(head,
                          "Content-Length: " + std::to_string(r.body.size() + rng.below(3)));
            break;
        case 6: {  // Transfer-Encoding
            constexpr const char* kCodings[] = {"chunked", "gzip, chunked", "identity", ""};
            insert_header(head, std::string("Transfer-Encoding: ") + pick(rng, kCodings));
            break;
        }
        case 7:  // body shorter than declared
            if (r.body.empty()) {
                insert_header(head, "Content-Length: " + std::to_string(1 + rng.below(64)));
            } else {
                r.body.resize(rng.below(r.body.size()));
            }
            break;
        default:  // a long header, sometimes past the head cap
            insert_header(head,
                          "X-Pad: " + std::string(rng.below(kMaxHttpHeadBytes + 64), 'p'));
            break;
    }
}

/// One fuzz case: random bytes, or one to three pipelined requests each
/// with zero to three mutations.
std::string fuzz_case(Xoshiro256& rng) {
    if (rng.below(10) == 0) {
        std::string junk(rng.below(160), '\0');
        for (char& c : junk) c = static_cast<char>(rng.below(256));
        if (rng.below(2) == 0) junk += "\r\n\r\n";
        return junk;
    }
    std::string bytes;
    const size_t requests = rng.below(4) == 0 ? 2 + rng.below(2) : 1;
    for (size_t i = 0; i < requests; ++i) {
        Request r = base_request(rng);
        for (size_t m = rng.below(4); m > 0; --m) mutate(rng, r);
        bytes += r.head + r.body;
    }
    return bytes;
}

/// Sends `bytes`, half-closes, and reads the reply until the door closes
/// (EOF, or a reset after a rejection). False when the reply did not end
/// within kReplyBudget.
bool exchange(uint16_t port, const std::string& bytes, std::string& reply) {
    const int fd = tcp_connect("127.0.0.1", port, 5000);
    set_io_budget(fd, kReplyBudget);
    const auto start = steady_clock::now();
    (void)write_all(fd, bytes);  // the door may close before reading it all
    ::shutdown(fd, SHUT_WR);
    reply.clear();
    bool closed = false;
    char chunk[4096];
    while (true) {
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n > 0) {
            reply.append(chunk, static_cast<size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        closed = n == 0 || errno == ECONNRESET;
        break;
    }
    ::close(fd);
    return closed && steady_clock::now() - start < kReplyBudget;
}

/// Statuses the door answers with.
bool door_status(int status) {
    for (const int s : {200, 400, 401, 404, 405, 413, 429, 431, 501, 505}) {
        if (status == s) return true;
    }
    return false;
}

/// Empty, or starting with a status line; every status line in it (the
/// pipelined responses) carries a status the door emits, which is added
/// to `seen`. A request target holds no space, so "HTTP/1.1 " never occurs
/// inside a response body.
testing::AssertionResult well_formed(const std::string& reply, std::set<int>& seen) {
    if (reply.empty()) return testing::AssertionSuccess();
    if (reply.rfind("HTTP/1.1 ", 0) != 0) {
        return testing::AssertionFailure() << "no status line: " << reply.substr(0, 80);
    }
    for (size_t at = 0; at != std::string::npos; at = reply.find("HTTP/1.1 ", at + 1)) {
        int status = 0;
        if (std::sscanf(reply.c_str() + at + 9, "%3d", &status) != 1 || !door_status(status)) {
            return testing::AssertionFailure() << "unexpected status line: "
                                               << reply.substr(at, 40);
        }
        seen.insert(status);
    }
    return testing::AssertionSuccess();
}

/// A door with auth and a quota on, so 401 and 429 are reachable too.
struct FuzzedDoor {
    SweepService service{[] {
        ServiceOptions opts;
        opts.eval_threads = 1;
        opts.request_workers = 1;
        return opts;
    }()};
    TcpSocketServer listener{"127.0.0.1", 0};
    HttpOptions http = [] {
        HttpOptions h;
        h.auth_token = kToken;
        h.quota_rps = 200.0;
        h.quota_burst = 20.0;
        return h;
    }();
    std::thread loop{[this] { serve_http_listener(listener, service, http); }};

    ~FuzzedDoor() {
        service.request_shutdown();
        loop.join();
    }
};

TEST(HttpServerFuzz, MutatedRequestHeadsGetAnAnswerOrAClose) {
    FuzzedDoor door;
    Xoshiro256 rng(0xf022ed21u);
    std::set<int> seen;
    for (int round = 0; round < 2048; ++round) {
        const std::string bytes = fuzz_case(rng);
        std::string reply;
        ASSERT_TRUE(exchange(door.listener.port(), bytes, reply))
            << "case " << round << ": no close within 5 s after " << bytes.size() << " bytes";
        ASSERT_TRUE(well_formed(reply, seen)) << "case " << round;
    }
    // The cases reach every branch of the door that does not depend on
    // timing (429 depends on the quota clock).
    for (const int status : {200, 400, 401, 404, 405, 413, 431, 501, 505}) {
        EXPECT_EQ(seen.count(status), 1u) << "no case was answered " << status;
    }
    HttpClientResponse health;
    std::string error;
    ASSERT_TRUE(http_request("127.0.0.1", door.listener.port(), "GET", "/healthz", "", "",
                             health, &error))
        << error;
    EXPECT_EQ(health.status, 200);
}

// ------------------------------------------------------------ client side ----

constexpr int kClientBudgetMs = 100;

struct ClientOutcome {
    bool ok = false;
    HttpClientResponse response;
    steady_clock::duration elapsed{};
};

/// Answers one http_request from a scripted peer: read the request head,
/// write `response`, then close, or with `hold` keep the connection open
/// until the call returns (3 s at most, so a call that ignores its budget
/// fails the elapsed check instead of hanging).
ClientOutcome scripted_exchange(TcpSocketServer& listener, const std::string& response,
                                bool hold) {
    std::atomic<bool> returned{false};
    std::thread peer([&] {
        const int fd = listener.accept_client(5000);
        if (fd < 0) return;
        set_io_budget(fd, std::chrono::milliseconds(5000));
        std::string head;
        char chunk[1024];
        while (head.find("\r\n\r\n") == std::string::npos) {
            const ssize_t n = ::read(fd, chunk, sizeof chunk);
            if (n <= 0) break;
            head.append(chunk, static_cast<size_t>(n));
        }
        (void)write_all(fd, response);
        const auto until = steady_clock::now() + std::chrono::seconds(3);
        while (hold && !returned.load() && steady_clock::now() < until) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        ::close(fd);
    });
    ClientOutcome out;
    std::string error;
    const auto start = steady_clock::now();
    out.ok = http_request("127.0.0.1", listener.port(), "GET", "/metrics", "", "",
                          out.response, &error, kClientBudgetMs);
    out.elapsed = steady_clock::now() - start;
    returned.store(true);
    peer.join();
    return out;
}

std::string hex(size_t n) {
    char text[24];
    std::snprintf(text, sizeof text, "%zx", n);
    return text;
}

std::string mutated_response(Xoshiro256& rng) {
    constexpr const char* kStatusLines[] = {
        "HTTP/1.1 200 OK", "HTTP/1.1 200",  "HTTP/1.1 404 Not Found", "HTTP/1.0 200 OK",
        "HTTP/1.1 2000 OK", "HTTP/1.1 abc", "HTTP/1.1",               "ICY 200 OK",
        ""};
    const std::string payload = "{\"event\": \"done\", \"id\": \"fz\", \"ok\": true}\n";
    std::string out = pick(rng, kStatusLines);
    out += "\r\n";
    switch (rng.below(3)) {
        case 0: {  // chunked
            out += "Transfer-Encoding: chunked\r\n\r\n";
            const size_t chunks = 1 + rng.below(3);
            for (size_t c = 0; c < chunks; ++c) {
                std::string size = hex(payload.size());
                if (rng.below(4) == 0) {
                    constexpr const char* kSizes[] = {
                        "zz", "-1", "0x10", "", " 5", "ffffffffffffffffff",
                        "10000000000000000", "7fffffff", "5;ext=1"};
                    size = pick(rng, kSizes);
                }
                out += size + "\r\n" + payload;
                if (rng.below(6) != 0) out += "\r\n";  // else: a missing CRLF
            }
            if (rng.below(4) != 0) out += "0\r\n\r\n";
            break;
        }
        case 1: {  // Content-Length
            constexpr const char* kLengths[] = {"-1", "18446744073709551616", "abc", "",
                                                "18446744073709551615"};
            const size_t slack = rng.below(3);
            out += "Content-Length: " +
                   (rng.below(4) == 0 ? std::string(pick(rng, kLengths))
                                      : std::to_string(payload.size() + slack)) +
                   "\r\n\r\n" + payload;
            break;
        }
        default:  // no framing: the body runs to the close
            out += "\r\n" + payload;
            break;
    }
    if (rng.below(3) == 0) out.resize(rng.below(out.size() + 1));  // truncated
    if (rng.below(4) == 0 && !out.empty()) {
        out[rng.below(out.size())] = static_cast<char>(rng.below(256));
    }
    return out;
}

TEST(HttpClientFuzz, PinnedMalformedResponses) {
    TcpSocketServer listener("127.0.0.1", 0);

    // No reason phrase is still a response.
    ClientOutcome r =
        scripted_exchange(listener, "HTTP/1.1 200\r\nContent-Length: 2\r\n\r\nok", false);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.response.status, 200);
    EXPECT_EQ(r.response.reason, "");
    EXPECT_EQ(r.response.body, "ok");

    // A chunk size past 64 bits, or not hex at all, fails the call.
    const std::string chunked = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
    EXPECT_FALSE(
        scripted_exchange(listener, chunked + "10000000000000000\r\nxx\r\n0\r\n\r\n", false).ok);
    EXPECT_FALSE(scripted_exchange(listener, chunked + "zz\r\nxx\r\n0\r\n\r\n", false).ok);

    // Truncated mid-chunk, or short of its Content-Length, on a connection
    // the peer keeps open: the call fails within its budget.
    const std::string short_body = "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nok";
    for (const std::string& response : {chunked + "10\r\nonly-part", short_body}) {
        r = scripted_exchange(listener, response, /*hold=*/true);
        EXPECT_FALSE(r.ok);
        EXPECT_LT(r.elapsed, std::chrono::seconds(2));
    }
}

TEST(HttpClientFuzz, MutatedResponsesReturnWithinTheBudget) {
    TcpSocketServer listener("127.0.0.1", 0);
    Xoshiro256 rng(0xf022ed22u);
    for (int round = 0; round < 400; ++round) {
        const std::string response = mutated_response(rng);
        const bool hold = rng.below(32) == 0;
        const ClientOutcome r = scripted_exchange(listener, response, hold);
        ASSERT_LT(r.elapsed, std::chrono::seconds(2))
            << "case " << round << " outlived its " << kClientBudgetMs << " ms budget";
        if (r.ok) {
            EXPECT_GE(r.response.status, 100) << "case " << round;
            EXPECT_LE(r.response.status, 599) << "case " << round;
        }
    }
}

}  // namespace
}  // namespace sdlc::serve
