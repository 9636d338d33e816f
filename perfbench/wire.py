"""Clients for serve_tool's NDJSON line protocol and HTTP/1.1 front door.

Every connection is driven from one thread through a selector, so a
request's timestamps are taken when its bytes arrive, not when some other
thread gets the interpreter lock. A line connection multiplexes any number
of in-flight requests by id; an HTTP connection carries one request at a
time over keep-alive.
"""

import json
import math
import re
import selectors
import socket
import time

# The head every event line starts with: {"id": "...", "event": "..."
EVENT_HEAD = re.compile(rb'\{"id":\s*"([^"\\]*)",\s*"event":\s*"([a-z_]+)"')


class StreamError(Exception):
    pass


class Request:
    """One request as the client saw it: its event lines and when each came."""

    def __init__(self, rid, body, cls="", transport="line"):
        self.id = rid
        self.body = body
        self.cls = cls
        self.transport = transport
        self.t_send = None
        self.t_accepted = None  # a worker picked the request up
        self.t_first_point = None
        self.t_done = None
        self.done_ok = False
        self.finished = False
        self.error = None
        self.lines = []
        self.times = []
        self.kinds = []
        self.bytes = 0

    def add(self, t, kind, line):
        self.lines.append(line)
        self.times.append(t)
        self.kinds.append(kind)
        self.bytes += len(line) + 1
        if kind == "accepted" and self.t_accepted is None:
            self.t_accepted = t
        elif kind == "point" and self.t_first_point is None:
            self.t_first_point = t
        elif kind == "error" and self.error is None:
            self.error = json.loads(line).get("code", "error")
        elif kind == "done":
            self.t_done = t
            self.done_ok = json.loads(line).get("ok") is True
            self.finished = True

    def fail(self, t, why):
        if not self.finished:
            self.error = self.error or why
            self.t_done = t
            self.finished = True

    @property
    def ok(self):
        return self.finished and self.done_ok and self.error is None

    def latency_ms(self):
        return (self.t_done - self.t_send) * 1e3 if self.ok else math.inf

    def ttfp_ms(self):
        if not self.ok or self.t_first_point is None:
            return math.inf
        return (self.t_first_point - self.t_send) * 1e3

    def events(self, kind=None):
        return [json.loads(line) for line, k in zip(self.lines, self.kinds)
                if kind is None or k == kind]

    def export(self):
        """The dse_json export, from a result event or reassembled chunks."""
        data = None
        chunks = []
        for event in self.events():
            if event["event"] == "result":
                data = event["data"]
            elif event["event"] == "result_chunk":
                if event["seq"] != len(chunks):
                    raise StreamError(f"{self.id}: result_chunk gap at seq {event['seq']}")
                chunks.append(event["data"])
                if event["last"]:
                    data = "".join(chunks)
        return data


class LineSplitter:
    """Cuts a byte stream into event lines and hands each to its request."""

    def __init__(self):
        self.buf = b""
        self.pending = {}

    def feed(self, t, data):
        self.buf += data
        cut = self.buf.rfind(b"\n")
        if cut < 0:
            return []
        complete, self.buf = self.buf[:cut], self.buf[cut + 1:]
        finished = []
        for line in complete.split(b"\n"):
            if not line:
                continue
            match = EVENT_HEAD.match(line)
            if match:
                rid, kind = match.group(1).decode(), match.group(2).decode()
            else:
                event = json.loads(line)
                rid, kind = event.get("id", ""), event.get("event", "")
            req = self.pending.get(rid)
            if req is None:
                raise StreamError(f"event for unknown request {rid!r}: {line[:120]!r}")
            req.add(t, kind, line)
            if req.finished:
                del self.pending[rid]
                finished.append(req)
        return finished

    def truncate(self, t, why):
        lost = list(self.pending.values())
        for req in lost:
            req.fail(t, why)
        self.pending.clear()
        return lost


class LineConn:
    """One TCP connection speaking the NDJSON line protocol."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.lines = LineSplitter()
        self.closed = False

    def send(self, req):
        self.lines.pending[req.id] = req
        req.t_send = time.perf_counter()
        self.sock.sendall(req.body.encode() + b"\n")

    def on_readable(self, t):
        data = self.sock.recv(1 << 20)
        if not data:
            self.closed = True
            return self.lines.truncate(t, "stream closed before done")
        return self.lines.feed(t, data)

    def can_send(self):
        return True  # requests multiplex by id

    def close(self):
        self.sock.close()


class HttpConn:
    """One keep-alive HTTP/1.1 connection posting to /v1/sweep."""

    def __init__(self, port):
        self.port = port
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.lines = LineSplitter()
        self.raw = b""
        self.state = "idle"
        self.need = 0
        self.closed = False
        self.held = []  # finished requests whose response has not ended yet

    def send(self, req):
        if self.state != "idle":
            raise StreamError("HTTP connection already carries a request")
        body = req.body.encode() + b"\n"
        head = (f"POST /v1/sweep HTTP/1.1\r\nHost: 127.0.0.1:{self.port}\r\n"
                f"Content-Type: application/x-ndjson\r\nContent-Length: {len(body)}\r\n"
                "Connection: keep-alive\r\n\r\n").encode()
        self.lines.pending[req.id] = req
        self.state = "head"
        req.t_send = time.perf_counter()
        self.sock.sendall(head + body)

    def on_readable(self, t):
        data = self.sock.recv(1 << 20)
        if not data:
            self.closed = True
            return self.lines.truncate(t, "connection closed mid-response")
        self.raw += data
        finished = []
        while True:
            if self.state == "head":
                end = self.raw.find(b"\r\n\r\n")
                if end < 0:
                    break
                head, self.raw = self.raw[:end].decode("latin-1"), self.raw[end + 4:]
                status = head.split("\r\n", 1)[0].split(" ")
                if len(status) < 2 or status[1] != "200" or "chunked" not in head.lower():
                    self.closed = True
                    return finished + self.lines.truncate(t, f"HTTP status {status[1:2]}")
                self.state = "size"
            elif self.state == "size":
                end = self.raw.find(b"\r\n")
                if end < 0:
                    break
                size = int(self.raw[:end].split(b";")[0], 16)
                self.raw = self.raw[end + 2:]
                self.state, self.need = ("trailer", 2) if size == 0 else ("data", size + 2)
            elif self.state == "data":
                if len(self.raw) < self.need:
                    break
                chunk, self.raw = self.raw[:self.need - 2], self.raw[self.need:]
                self.held += self.lines.feed(t, chunk)
                self.state = "size"
            elif self.state == "trailer":
                if len(self.raw) < 2:
                    break
                self.raw = self.raw[2:]
                self.state = "idle"
                finished += self.held + self.lines.truncate(t, "response ended before done")
                self.held = []
            elif self.raw:
                raise StreamError(f"bytes on an idle HTTP connection: {self.raw[:80]!r}")
            else:
                break
        return finished

    def can_send(self):
        return self.state == "idle"

    def close(self):
        self.sock.close()


class Loop:
    """Drives connections until a condition holds or the deadline passes."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.sel = selectors.DefaultSelector()
        self.on_finish = None

    def add(self, conn):
        self.sel.register(conn.sock, selectors.EVENT_READ, conn)
        return conn

    def remove(self, conn):
        if not conn.closed:  # a closed connection was unregistered on EOF
            self.sel.unregister(conn.sock)
        conn.close()

    def run_until(self, condition):
        while not condition():
            remaining = self.deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError("benchmark deadline passed with requests in flight")
            for key, _ in self.sel.select(timeout=min(remaining, 1.0)):
                t = time.perf_counter()
                conn = key.data
                for req in conn.on_readable(t):
                    if self.on_finish is not None:
                        self.on_finish(req)
                if conn.closed:
                    self.sel.unregister(conn.sock)

    def request(self, conn, req):
        """Sends one request and waits for its terminal event (and, on
        HTTP, for the end of its response)."""
        conn.send(req)
        self.run_until(lambda: req.finished and conn.can_send())
        return req
