// Front-end glue shared by every stream-socket transport (Unix-domain and
// TCP): accept connections, read request lines, stream response events.
//
// serve_listener() owns the lifecycle that used to live in serve_tool's
// socket mode and is now common to both transports, to the sweep server
// and its cluster coordinator, and to in-process tests: one reader thread
// per connection feeding the service,
// one FdSink per connection owning the fd (shared with in-flight requests,
// so the descriptor closes exactly when the last response line has been
// written or dropped), periodic reaping of finished connections on the
// accept tick, oversized-line rejection per the protocol contract, and a
// drain-then-unblock shutdown: once the service stops intake the listener
// closes, every accepted request still streams to completion, idle readers
// are unblocked with shutdown(SHUT_RD), and all threads are joined before
// returning.
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
/// shutdown(SHUT_RD) and joins everything before returning.
/// `install_shutdown_hook` wires service.on_shutdown to close the
/// listener; a tool serving one service on several listeners passes false
/// and installs one combined hook itself (SweepService holds a single
/// hook — a second install would silently drop the first listener's).
void serve_connection_loop(SocketListener& listener, SweepService& service,
                           const ConnectionHandler& handler, bool install_shutdown_hook);

/// Serves the NDJSON line protocol on `listener` until the service shuts
/// down (a `shutdown` request, or the service's shutdown hook firing from
/// another thread). Blocks until every accepted connection is drained and
/// joined. `max_request_bytes` must mirror the service's request-size cap
/// (it bounds the per-connection LineReader so a peer streaming bytes
/// without a newline cannot grow the buffer without limit). See
/// serve_connection_loop for `install_shutdown_hook`.
void serve_listener(SocketListener& listener, SweepService& service, size_t max_request_bytes,
                    bool install_shutdown_hook = true);

}  // namespace sdlc::serve

#endif  // SDLC_SERVE_TRANSPORT_H
