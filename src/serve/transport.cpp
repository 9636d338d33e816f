#include "serve/transport.h"

#include <sys/socket.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "serve/service.h"

namespace sdlc::serve {

void serve_connection_loop(SocketListener& listener, SweepService& service,
                           const ConnectionHandler& handler) {
    // A processed shutdown request must unblock the accept loop below.
    service.add_on_shutdown([&listener] { listener.close(); });

    struct Connection {
        int fd;
        std::shared_ptr<std::atomic<bool>> finished;
        std::thread reader;
    };
    std::vector<Connection> connections;
    auto reap_finished = [&connections] {
        for (auto it = connections.begin(); it != connections.end();) {
            if (it->finished->load(std::memory_order_acquire)) {
                it->reader.join();
                it = connections.erase(it);
            } else {
                ++it;
            }
        }
    };

    int client;
    // The 1 s accept timeout is the reap tick: dead connections release
    // their thread promptly even when no new client ever connects (their
    // fd already closes with the sink's last reference).
    while ((client = listener.accept_client(/*timeout_ms=*/1000)) != -1) {
        reap_finished();
        if (client == SocketListener::kTimeout) continue;
        Connection conn;
        conn.fd = client;
        conn.finished = std::make_shared<std::atomic<bool>>(false);
        conn.reader =
            std::thread([fd = client, finished = conn.finished, &handler] {
                // The sink lives on the handler thread, not in the accept
                // loop: when the handler returns and no in-flight request
                // holds a reference, the fd closes right here.
                const auto sink = std::make_shared<FdSink>(fd, /*owns_fd=*/true);
                handler(fd, sink);
                finished->store(true, std::memory_order_release);
            });
        connections.push_back(std::move(conn));
    }

    // Accept loop ended (shutdown request): finish every accepted request,
    // then release the connections. Handlers may still be blocked on idle
    // peers; shutting the read side down unblocks them.
    service.shutdown();
    for (Connection& conn : connections) {
        ::shutdown(conn.fd, SHUT_RD);
        conn.reader.join();
    }
    connections.clear();
}

void serve_lines(int fd, SweepService& service, const std::shared_ptr<ResponseSink>& sink) {
    LineReader reader(fd, service.options().max_request_bytes + 1);
    std::string line;
    while (reader.next(line)) {
        if (line.empty()) continue;
        if (!service.submit_line(line, sink)) break;  // draining: stop reading
    }
    // The protocol promises a machine-readable rejection for oversized
    // lines even when no newline ever arrives.
    if (reader.overflowed()) service.reject_oversized_line(*sink);
}

void serve_listener(SocketListener& listener, SweepService& service) {
    serve_connection_loop(listener, service,
                          [&service](int fd, const std::shared_ptr<FdSink>& sink) {
                              serve_lines(fd, service, sink);
                          });
}

}  // namespace sdlc::serve
