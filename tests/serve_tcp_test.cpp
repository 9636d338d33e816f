// TCP transport behind the ResponseSink/LineReader seam: endpoint
// parsing, ephemeral-port binding, full request/response round-trips over
// real sockets through the shared serve_listener() loop (the same code
// path serve_tool --listen-tcp runs), concurrent clients, oversized-line
// rejection, and drain-on-shutdown, including a shutdown requested before
// the loop starts.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/socket.h"
#include "serve/transport.h"
#include "util/json_parse.h"

namespace sdlc::serve {
namespace {

TEST(ParseHostPort, AcceptsAndRejects) {
    std::string host;
    uint16_t port = 0;
    std::string error;

    EXPECT_TRUE(parse_host_port("127.0.0.1:8331", host, port, &error));
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 8331);

    EXPECT_TRUE(parse_host_port("localhost:0", host, port, &error));
    EXPECT_EQ(host, "localhost");
    EXPECT_EQ(port, 0);

    EXPECT_TRUE(parse_host_port("[::1]:70", host, port, &error));
    EXPECT_EQ(host, "::1");
    EXPECT_EQ(port, 70);

    EXPECT_TRUE(parse_host_port(":9000", host, port, &error)) << "empty host = all interfaces";
    EXPECT_EQ(host, "");
    EXPECT_EQ(port, 9000);

    EXPECT_FALSE(parse_host_port("nocolon", host, port, &error));
    EXPECT_FALSE(parse_host_port("h:", host, port, &error));
    EXPECT_FALSE(parse_host_port("h:abc", host, port, &error));
    EXPECT_FALSE(parse_host_port("h:65536", host, port, &error));
    EXPECT_FALSE(parse_host_port("h:-1", host, port, &error));
}

TEST(ParseHostPort, PortZeroIsListenOnlyAndBracketedV6NeedsAPort) {
    std::string host;
    uint16_t port = 0;
    std::string error;

    // Listener specs keep port 0 (ephemeral bind)...
    EXPECT_TRUE(parse_host_port("localhost:0", host, port, &error,
                                /*allow_port_zero=*/true));
    // ...but a spec naming a peer to connect to must reject it at parse
    // time: connecting to port 0 can only fail later with a bare errno.
    EXPECT_FALSE(parse_host_port("localhost:0", host, port, &error,
                                 /*allow_port_zero=*/false));
    EXPECT_NE(error.find("port 0"), std::string::npos) << error;
    EXPECT_TRUE(parse_host_port("localhost:1", host, port, &error,
                                /*allow_port_zero=*/false));

    // "[::1]" used to split at a colon inside the address and report
    // `invalid port "1]"`; the error must name the actual problem.
    EXPECT_FALSE(parse_host_port("[::1]", host, port, &error));
    EXPECT_NE(error.find("missing port"), std::string::npos) << error;
    EXPECT_EQ(error.find("invalid port"), std::string::npos)
        << "must not misread the address tail as a port: " << error;
    EXPECT_FALSE(parse_host_port("[2001:db8::7]", host, port, &error));
    EXPECT_NE(error.find("missing port"), std::string::npos) << error;

    // Bracketed-with-port still parses on both paths.
    EXPECT_TRUE(parse_host_port("[::1]:70", host, port, &error,
                                /*allow_port_zero=*/false));
    EXPECT_EQ(host, "::1");
    EXPECT_EQ(port, 70);
}

TEST(ParseEndpoint, ParsesAndRejects) {
    SocketEndpoint endpoint;
    std::string error;
    ASSERT_TRUE(parse_endpoint("unix:/tmp/x.sock", endpoint, &error));
    EXPECT_TRUE(endpoint.is_unix);
    EXPECT_EQ(endpoint.path_or_host, "/tmp/x.sock");
    ASSERT_TRUE(parse_endpoint("127.0.0.1:7070", endpoint, &error));
    EXPECT_FALSE(endpoint.is_unix);
    EXPECT_EQ(endpoint.path_or_host, "127.0.0.1");
    EXPECT_EQ(endpoint.port, 7070);
    ASSERT_TRUE(parse_endpoint("tcp:localhost:1234", endpoint, &error));
    EXPECT_FALSE(endpoint.is_unix);
    EXPECT_EQ(endpoint.path_or_host, "localhost");
    EXPECT_EQ(endpoint.port, 1234);

    error.clear();
    EXPECT_FALSE(parse_endpoint("unix:", endpoint, &error));
    EXPECT_NE(error.find("empty unix socket path"), std::string::npos) << error;
    error.clear();
    EXPECT_FALSE(parse_endpoint("no-port-here", endpoint, &error));
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(parse_endpoint("host:notaport", endpoint, &error));
    EXPECT_NE(error.find("invalid port"), std::string::npos) << error;
    // A connect target never accepts the listen-only ephemeral port.
    EXPECT_FALSE(parse_endpoint("127.0.0.1:0", endpoint, &error));

    // Lists skip empty items, but a non-empty list must name an endpoint.
    std::vector<std::string> endpoints;
    ASSERT_TRUE(parse_endpoint_list("unix:a.sock,,127.0.0.1:9", endpoints, &error));
    EXPECT_EQ(endpoints, (std::vector<std::string>{"unix:a.sock", "127.0.0.1:9"}));
    ASSERT_TRUE(parse_endpoint_list("", endpoints, &error));
    EXPECT_TRUE(endpoints.empty());
    EXPECT_FALSE(parse_endpoint_list(",", endpoints, &error));
    EXPECT_FALSE(parse_endpoint_list("unix:a.sock,unix:", endpoints, &error));
}

TEST(TcpSocketServerTest, EphemeralPortIsReportedAndConnectable) {
    TcpSocketServer server("127.0.0.1", 0);
    EXPECT_GT(server.port(), 0) << "port 0 must resolve to the kernel-chosen port";
    EXPECT_EQ(server.endpoint(), "tcp:127.0.0.1:" + std::to_string(server.port()));

    const int client = tcp_connect("127.0.0.1", server.port());
    ASSERT_GE(client, 0);
    const int conn = server.accept_client(/*timeout_ms=*/5000);
    ASSERT_GE(conn, 0);
    // Bytes flow both ways through the accepted pair.
    ASSERT_TRUE(write_all(client, "ping\n"));
    LineReader reader(conn);
    std::string line;
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, "ping");
    ::close(conn);
    ::close(client);
}

TEST(TcpSocketServerTest, CloseUnblocksAccept) {
    TcpSocketServer server("127.0.0.1", 0);
    std::thread closer([&server] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        server.close();
    });
    EXPECT_EQ(server.accept_client(/*timeout_ms=*/-1), -1);
    closer.join();
}

// ---- full service over TCP (the serve_tool --listen-tcp code path) ----

/// A served TCP endpoint: SweepService + serve_listener on a background
/// thread, torn down by the protocol's own shutdown request.
struct TcpFixture {
    ServiceOptions opts;
    std::unique_ptr<SweepService> service;
    std::unique_ptr<TcpSocketServer> listener;
    std::thread loop;

    explicit TcpFixture(ServiceOptions o = {}) : opts(o) {
        service = std::make_unique<SweepService>(opts);
        listener = std::make_unique<TcpSocketServer>("127.0.0.1", 0);
        loop = std::thread([this] {
            serve_listener(*listener, *service, opts.max_request_bytes);
        });
    }

    ~TcpFixture() {
        if (!service->shutdown_requested()) {
            // Belt and braces for failing tests; normal paths shut down via
            // a protocol request.
            service->request_shutdown();
        }
        if (loop.joinable()) loop.join();
    }
};

/// Sends `lines` on one connection and reads events until `expect_done`
/// done events arrived (connection stays open meanwhile).
std::vector<std::string> roundtrip(uint16_t port, const std::vector<std::string>& lines,
                                   size_t expect_done) {
    const int fd = tcp_connect("127.0.0.1", port);
    EXPECT_GE(fd, 0);
    for (const std::string& line : lines) {
        EXPECT_TRUE(write_all(fd, line));
        EXPECT_TRUE(write_all(fd, "\n"));
    }
    LineReader reader(fd);
    std::vector<std::string> events;
    std::string line;
    size_t done = 0;
    while (done < expect_done && reader.next(line)) {
        events.push_back(line);
        if (line.find("\"event\": \"done\"") != std::string::npos) ++done;
    }
    ::close(fd);
    EXPECT_EQ(done, expect_done);
    return events;
}

std::string tiny_sweep_line(const std::string& id) {
    return "{\"id\": \"" + id +
           "\", \"spec\": {\"width\": 4, \"variants\": [\"sdlc\"], \"schemes\": [\"ripple\"]}}";
}

TEST(ServeTcp, StreamMatchesInProcessServiceByteForByte) {
    // The transport must be a pure pipe: the event lines a TCP client
    // reads are exactly the lines the service writes to an in-process
    // sink for the same request against the same (cold) cache state.
    std::vector<std::string> expected;
    {
        SweepService reference;
        auto sink = std::make_shared<BufferSink>();
        ASSERT_TRUE(reference.submit_line(tiny_sweep_line("t"), sink));
        // Wait for completion by polling the terminal event.
        for (int spin = 0; spin < 6000; ++spin) {
            expected = sink->lines();
            if (!expected.empty() &&
                expected.back().find("\"event\": \"done\"") != std::string::npos) {
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        ASSERT_FALSE(expected.empty());
    }

    TcpFixture fx;
    const auto events = roundtrip(fx.listener->port(), {tiny_sweep_line("t")}, 1);
    EXPECT_EQ(events, expected);

    roundtrip(fx.listener->port(), {"{\"id\": \"q\", \"type\": \"shutdown\"}"}, 1);
}

TEST(ServeTcp, ConcurrentClientsEachGetTheirOwnCompleteStream) {
    ServiceOptions opts;
    opts.request_workers = 2;
    TcpFixture fx(opts);

    constexpr int kClients = 4;
    std::vector<std::vector<std::string>> streams(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&fx, &streams, c] {
            const std::string id = "client" + std::to_string(c);
            streams[c] = roundtrip(fx.listener->port(), {tiny_sweep_line(id)}, 1);
        });
    }
    for (std::thread& t : clients) t.join();

    for (int c = 0; c < kClients; ++c) {
        const std::string id_token = "\"id\": \"client" + std::to_string(c) + "\"";
        ASSERT_FALSE(streams[c].empty());
        size_t points = 0;
        for (const std::string& line : streams[c]) {
            EXPECT_NE(line.find(id_token), std::string::npos)
                << "a connection must only ever see its own request's events: " << line;
            if (line.find("\"event\": \"point\"") != std::string::npos) ++points;
        }
        EXPECT_EQ(points, 3u);
        EXPECT_NE(streams[c].back().find("\"ok\": true"), std::string::npos);
    }

    roundtrip(fx.listener->port(), {"{\"id\": \"q\", \"type\": \"shutdown\"}"}, 1);
}

TEST(ServeTcp, OversizedUnterminatedLineGetsStructuredRejection) {
    ServiceOptions opts;
    opts.max_request_bytes = 512;
    TcpFixture fx(opts);

    const int fd = tcp_connect("127.0.0.1", fx.listener->port());
    ASSERT_GE(fd, 0);
    // Stream far past the cap without ever sending a newline.
    const std::string junk(4096, 'x');
    ASSERT_TRUE(write_all(fd, junk));
    LineReader reader(fd);
    std::string line;
    std::vector<std::string> events;
    while (events.size() < 2 && reader.next(line)) events.push_back(line);
    ::close(fd);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_NE(events[0].find("\"code\": \"too_large\""), std::string::npos) << events[0];
    EXPECT_NE(events[1].find("\"ok\": false"), std::string::npos) << events[1];

    roundtrip(fx.listener->port(), {"{\"id\": \"q\", \"type\": \"shutdown\"}"}, 1);
}

TEST(ServeTcp, ShutdownDrainsAcceptedTcpRequests) {
    ServiceOptions opts;
    opts.request_workers = 1;
    TcpFixture fx(opts);

    // One connection queues work then requests shutdown; the queued sweep
    // must still stream to completion before the server loop exits.
    const auto events = roundtrip(fx.listener->port(),
                                  {tiny_sweep_line("drain"),
                                   "{\"id\": \"q\", \"type\": \"shutdown\"}"},
                                  2);
    bool sweep_completed = false;
    for (const std::string& line : events) {
        if (line.find("\"id\": \"drain\"") != std::string::npos &&
            line.find("\"ok\": true") != std::string::npos) {
            sweep_completed = true;
        }
    }
    EXPECT_TRUE(sweep_completed);
    fx.loop.join();  // the listener loop must terminate on its own
    EXPECT_TRUE(fx.service->shutdown_requested());
}

TEST(ServeTcp, ShutdownRequestedBeforeTheLoopStartsEndsIt) {
    // An owner that starts the listener on a thread of its own can request
    // shutdown before that thread installs its hook; the loop must still
    // end instead of accepting forever.
    ServiceOptions opts;
    opts.eval_threads = 1;
    SweepService service(opts);
    TcpSocketServer listener("127.0.0.1", 0);
    service.request_shutdown();
    serve_listener(listener, service, opts.max_request_bytes);
    EXPECT_TRUE(service.shutdown_requested());
}

}  // namespace
}  // namespace sdlc::serve
