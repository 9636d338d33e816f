"""serve_tool processes: spawn, readiness, counters, memory and shutdown.

Every process the benchmark starts is registered here, and reap_all()
stops and waits for whatever is still running, on any exit path.
"""

import json
import os
import re
import selectors
import subprocess
import threading
import time

from wire import LineConn, Request

_LIVE = []
LISTENING = re.compile(r"serve_tool: (http )?listening on \S*?:(\d+)\n")


class Server:
    """One serve_tool listening on ephemeral loopback ports."""

    def __init__(self, exe, extra=(), http=False, deadline=None):
        args = [exe, "--listen-tcp", "127.0.0.1:0"]
        if http:
            args += ["--listen-http", "127.0.0.1:0"]
        args += list(extra)
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(args, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        _LIVE.append(self.proc)
        self.port = None
        self.http_port = None
        self.stderr = b""
        self._await_listening(http, deadline or time.perf_counter() + 30)
        self.conn = None

    def _await_listening(self, http, deadline):
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stderr, selectors.EVENT_READ)
        while self.port is None or (http and self.http_port is None):
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError(f"serve_tool did not start: {self.stderr[-400:]!r}")
            if not sel.select(timeout=min(remaining, 1.0)):
                continue
            chunk = os.read(self.proc.stderr.fileno(), 4096)
            if not chunk:
                raise RuntimeError(f"serve_tool exited at start: {self.stderr[-400:]!r}")
            self.stderr += chunk
            for http_flag, port in LISTENING.findall(self.stderr.decode(errors="replace")):
                if http_flag:
                    self.http_port = int(port)
                else:
                    self.port = int(port)
        sel.close()
        # Keep draining so later diagnostics can never fill the pipe.
        threading.Thread(target=self._drain, daemon=True).start()

    def _drain(self):
        with self.proc.stderr:
            while chunk := os.read(self.proc.stderr.fileno(), 4096):
                self.stderr = (self.stderr + chunk)[-8192:]

    def connect(self, loop):
        self.conn = loop.add(LineConn(self.port))
        return self.conn

    def verb(self, loop, verb, rid):
        """Sends a stats/metrics request on this server's line connection."""
        req = loop.request(self.conn, Request(rid, json.dumps({"id": rid, "type": verb})))
        if not req.ok:
            raise RuntimeError(f"{verb} request failed: {req.error}")
        return req.events(verb)[0]

    def vm_hwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_s(self):
        """User plus system CPU seconds of every thread so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def kill(self, loop):
        """Ends the server at once, abandoning whatever it is running."""
        loop.remove(self.conn)
        self.conn = None
        reap(self.proc)

    def stop(self, loop):
        if self.conn is None:
            self.connect(loop)
        loop.request(self.conn, Request("shutdown", '{"id": "shutdown", "type": "shutdown"}'))
        loop.remove(self.conn)
        self.conn = None
        try:
            self.proc.wait(timeout=30)
        finally:
            reap(self.proc)


def start(exe, loop, extra=(), http=False):
    """Spawns a server and waits until it answers stats. Returns (server,
    set-up seconds from spawn to the answered stats)."""
    server = Server(exe, extra, http, loop.deadline)
    server.connect(loop)
    server.verb(loop, "stats", "ready")
    return server, time.perf_counter() - server.t_spawn


class Cluster:
    """A coordinator sharding sweeps over two replicas of 2 eval threads."""

    REPLICA_THREADS = 2

    def __init__(self, exe, loop):
        extra = ["--threads", str(self.REPLICA_THREADS)]
        self.replicas = [Server(exe, extra, deadline=loop.deadline) for _ in range(2)]
        workers = ",".join(f"127.0.0.1:{r.port}" for r in self.replicas)
        self.coordinator = Server(exe, ["--workers", workers], deadline=loop.deadline)
        for i, server in enumerate(self.replicas + [self.coordinator]):
            server.connect(loop)
            server.verb(loop, "stats", f"ready-{i}")
            if server is not self.coordinator:
                loop.remove(server.conn)
                server.conn = None
        self.conn = self.coordinator.conn

    def servers(self):
        return [self.coordinator] + self.replicas

    def stop(self, loop):
        for server in self.servers():
            server.stop(loop)


def reap(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    if proc in _LIVE:
        _LIVE.remove(proc)


def reap_all():
    for proc in list(_LIVE):
        reap(proc)
