// Front-end glue shared by every stream-socket transport (Unix-domain and
// TCP) and by stdio: accept connections, frame request lines, stream
// response events.
//
// A front end only frames bytes into request lines and hands them to the
// service; SweepService admits, answers and logs each request, and its
// options() supply the request-size cap. serve_lines() is the one line
// pump, run on stdin by serve_tool and on every connection by
// serve_listener(). serve_connection_loop() owns the socket lifecycle
// common to the line and HTTP protocols: one reader thread per connection,
// one FdSink per connection owning the fd (shared with in-flight requests,
// so the descriptor closes exactly when the last response line has been
// written or dropped), periodic reaping of finished connections on the
// accept tick, and a drain-then-unblock shutdown: once the service stops
// intake the listener closes, every accepted request still streams to
// completion, idle readers are unblocked with shutdown(SHUT_RD), and all
// threads are joined before returning.
#ifndef SDLC_SERVE_TRANSPORT_H
#define SDLC_SERVE_TRANSPORT_H

#include <functional>
#include <memory>

#include "serve/socket.h"

namespace sdlc::serve {

class SweepService;  // serve/service.h

/// Per-connection protocol driver run on the connection's reader thread.
/// The sink shares ownership of `fd` (it closes when the last reference —
/// the handler's or an in-flight request's — drops); the handler must
/// return once the peer disconnects or the service starts draining.
using ConnectionHandler = std::function<void(int fd, const std::shared_ptr<FdSink>& sink)>;

/// The accept/drain lifecycle shared by every stream protocol (NDJSON
/// lines, HTTP): accepts until the service shuts down, runs `handler` on a
/// dedicated thread per connection, reaps finished connections on the 1 s
/// accept tick, and on shutdown unblocks idle handlers with
/// shutdown(SHUT_RD) and joins everything before returning. It adds a
/// shutdown hook to the service that closes `listener`, so one service
/// can run this loop on several listeners at once and a single shutdown
/// ends them all.
void serve_connection_loop(SocketListener& listener, SweepService& service,
                           const ConnectionHandler& handler);

/// Reads NDJSON request lines from `fd` and submits each to `service`,
/// answering on `sink`, until EOF, a read error, or submit_line refusing a
/// line because the service is draining. Empty lines are skipped. The line
/// buffer is bounded by the service's request-size cap, so a peer
/// streaming bytes without a newline cannot grow it without limit; such
/// an unterminated over-long line is answered with `too_large` before
/// returning.
void serve_lines(int fd, SweepService& service, const std::shared_ptr<ResponseSink>& sink);

/// Serves the NDJSON line protocol on `listener` (serve_lines on every
/// connection) until the service shuts down: a `shutdown` request on any
/// of its listeners, or request_shutdown() from another thread. Blocks
/// until every accepted connection is drained and joined.
void serve_listener(SocketListener& listener, SweepService& service);

}  // namespace sdlc::serve

#endif  // SDLC_SERVE_TRANSPORT_H
