"""The benchmark's workloads, their correctness gate and their metrics.

sweep_w12 / sweep_w16  one cold default sweep per fresh server, repeated
                       until the sweeps add up to the run's seconds.
serve_mix              one resident server, three closed-loop clients.

A traced run (--trace 1) also sends the workload's sweep once through a
coordinator in front of two replicas, which is how cluster/ is measured.
"""

import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import time

import measure
import servers
from wire import HttpConn, Request

M64 = (1 << 64) - 1
SCHEMES = ["row-ripple", "wallace", "dadda", "row-fastcpa"]
MIX_CLASSES = ("w8_repeat", "w6_export", "w16_fresh")
# The mix is assumed, not recorded traffic. The weights aim at an equal
# share of server time per class, so a change to any one class moves
# throughput by about a third of its own speed-up; a w6_export costs about
# a third of the other two. Each client sends the classes in shuffled
# rounds of exactly these counts, so every seed gets the same proportions.
# Each run prints the shares it measured.
MIX_WEIGHTS = (1, 3, 1)
MIX_CLIENTS = 3
FRESH_SAMPLES = 65536  # a quarter of the default, so w16_fresh costs about a w8_repeat
EXPORT_CHUNK = 65536
SETUP_BLOCKS = 8  # setup_s: blocks of back-to-back cold starts over the run
SETUP_BLOCK = 8
FIRST_POINT_PROBES = 31  # cold sweeps timed to their first point (batch)
PROBE_REPEATS = 15
CLASS_REPEATS = 5


def splitmix64(x):
    """SplitMix64 finalizer: a bijection on 64-bit integers."""
    z = (x + 0x9E3779B97F4A7C15) & M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def fresh_seed(seed, client, k):
    """Sample seed of the k-th fresh request of a client; distinct for
    every (client, k) of a run because splitmix64 is a bijection."""
    return splitmix64(((seed & 0xFFFFFF) << 40) ^ (client << 32) ^ k)


def sweep_body(rid, spec, evals=None, export=False, chunk=0, trace_id=None, bits=False):
    body = {"id": rid, "type": "sweep", "spec": spec}
    if evals:
        body["eval"] = evals
    if export:
        body["export"] = True
    if chunk:
        body["chunk_bytes"] = chunk
    if trace_id:
        body["trace"] = {"id": trace_id, "span": trace_id[:16]}
    if bits:
        body["point_bits"] = True
    return json.dumps(body)


def dse_args(spec, evals=None):
    """dse_tool flags for the same sweep."""
    args = ["--width", str(spec["widths"][0])]
    if "variants" in spec:
        args += ["--variants", ",".join(spec["variants"])]
    if "min_depth" in spec:
        args += ["--depth-min", str(spec["min_depth"]), "--depth-max", str(spec["max_depth"])]
    if "schemes" in spec:
        args += ["--schemes", ",".join(spec["schemes"])]
    for key in ("seed", "samples"):
        if evals and key in evals:
            args += [f"--{key}", evals[key]]
    return args


def mix_sequence(seed, client):
    """The fixed, endless request sequence of one serve_mix client. A
    w16_fresh request is a 3-point slice of the default width-16 sweep's
    approximate points, drawn uniformly: one variant, one depth, three of
    the four schemes."""
    rng = random.Random(seed * 1000003 + client)
    round_ = [cls for cls, n in zip(MIX_CLASSES, MIX_WEIGHTS) for _ in range(n)]
    for k in itertools.count():
        if k % len(round_) == 0:
            rng.shuffle(round_)
        cls = round_[k % len(round_)]
        rid = f"c{client}-{k}"
        if cls == "w8_repeat":
            yield Request(rid, sweep_body(rid, {"widths": [8]}), cls, "line")
        elif cls == "w6_export":
            body = sweep_body(rid, {"widths": [6]}, export=True, chunk=EXPORT_CHUNK)
            yield Request(rid, body, cls, "http")
        else:
            depth = rng.randint(2, 16)
            drop = rng.randrange(len(SCHEMES))
            spec = {"widths": [16], "variants": [rng.choice(["sdlc", "compensated"])],
                    "min_depth": depth, "max_depth": depth,
                    "schemes": [s for i, s in enumerate(SCHEMES) if i != drop]}
            evals = {"seed": str(fresh_seed(seed, client, k)), "samples": str(FRESH_SAMPLES)}
            yield Request(rid, sweep_body(rid, spec, evals), cls, "line")


# ------------------------------------------------------------------ checks --

def unranked(point):
    return dict(point, rank=None)


def payload(req):
    """Point event lines with the request id cut off: equal payloads mean
    byte-identical points for the same request."""
    return [line[line.index(b'"event"'):] for line, kind in zip(req.lines, req.kinds)
            if kind == "point"]


def check_stream(req, ref_points):
    """Event order, counts and point values of one sweep answer."""
    if not req.ok:
        return [f"failed ({req.error})"]
    errors = []
    if req.kinds[0] != "accepted" or req.kinds[-1] != "done" or "summary" not in req.kinds:
        errors.append(f"events out of order: {req.kinds[:2]}...{req.kinds[-2:]}")
    points = req.events("point")
    if [p["index"] for p in points] != list(range(len(ref_points))):
        errors.append(f"{len(points)} point events, expected {len(ref_points)}")
    elif [unranked(p["point"]) for p in points] != [unranked(p) for p in ref_points]:
        errors.append("streamed points differ from the reference")
    return errors


def check_export(req, ref_points):
    export = req.export() if req.ok else None
    if export is None:
        return ["no export"]
    if json.loads(export)["points"] != ref_points:
        return ["exported points differ from the reference"]
    return []


def work_record(points, summary=None):
    """What one answer cost the program, independent of how fast it ran."""
    functions = set()
    sampled = 0
    for p in points:
        c = p["config"]
        exhaustive = p["error"]["samples"] == 4 ** c["width"]
        sampled += not exhaustive
        depth = 0 if c["variant"] == "accurate" else c["depth"]
        functions.add((c["width"], c["variant"], depth, None if exhaustive else c["scheme"]))
    engines = {"exhaustive": len(points) - sampled, "sampled": sampled}
    if summary and "error_engines" in summary:
        engines = {k: v for k, v in summary["error_engines"].items() if k != "cutoff"}
    return {"points": len(points), "engines": engines,
            "pairs": sum(p["error"]["samples"] for p in points), "functions": len(functions)}


# --------------------------------------------------------------- the bench --

class Bench:
    """State of one run: binaries, the event loop, samples and verdicts."""

    def __init__(self, exes, bdir, seed, seconds, trace, loop):
        self.serve, self.dse, self.replay_exe = exes
        self.bdir = bdir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.loop = loop
        self.errors = []  # (request id or None, message)
        self.requests = []
        self.busy_s = 0.0
        self.setup = []
        self.ttfp = []  # first-point latencies of cold-start probes
        self.rss = []
        self.cpu_s = 0.0
        self.work = {}
        self.cutoffs = set()
        self.layers = {}
        self.spans = []
        self.notes = []

    # --- references and helpers

    def reference(self, args):
        """Points of `dse_tool --json` for these flags, cached per binary."""
        st = os.stat(self.dse)
        key = hashlib.sha256(f"{st.st_size}:{st.st_mtime_ns}:{args}".encode()).hexdigest()[:20]
        path = os.path.join(self.bdir, "refs", key + ".json")
        if not os.path.exists(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = path + ".tmp"
            subprocess.run([self.dse, *args, "--json", tmp], check=True,
                           stdout=subprocess.DEVNULL, timeout=150)
            os.replace(tmp, path)
        with open(path) as f:
            return json.load(f)["points"]

    def run_replay(self, lines, mode, trace_out=None):
        path = os.path.join(self.bdir, f"replay-{mode}.ndjson")
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        cmd = [self.replay_exe, "--requests", path, "--mode", mode]
        if trace_out:
            spans = os.path.join(self.bdir, "client-spans.json")
            with open(spans, "w") as f:
                json.dump(self.spans, f)
            cmd += ["--spans", spans, "--trace-out", trace_out]
        remaining = self.loop.deadline - time.perf_counter()
        out = subprocess.run(cmd, check=True, capture_output=True, timeout=max(1, remaining))
        return json.loads(out.stdout)

    def judge(self, req, errors):
        self.errors += [(req.id, e) for e in errors]
        return not errors

    def record_work(self, name, record):
        if self.work.setdefault(name, record) != record:
            self.errors.append((None, f"{name}: work record changed within the run: "
                                      f"{self.work[name]} vs {record}"))

    def check_repeats(self, reqs, check_first):
        """The first answer against the reference, the rest byte-identical
        to it."""
        if not reqs:
            return
        self.judge(reqs[0], check_first(reqs[0]))
        first = payload(reqs[0])
        for req in reqs[1:]:
            if not req.ok or payload(req) != first:
                self.judge(req, check_first(req) or [f"differs from {reqs[0].id}"])

    def ok_count(self):
        bad = {rid for rid, _ in self.errors}
        return sum(1 for r in self.requests if r.ok and r.id not in bad)

    def attempted(self):
        """The timed requests plus every failed check outside them (a probe,
        a replay, a work record), so any mismatch lowers ok_ratio."""
        timed = {r.id for r in self.requests}
        outside = [rid for rid, _ in self.errors if rid not in timed]
        return len(self.requests) + outside.count(None) + len(set(outside) - {None})

    def note_cutoff(self, summary):
        if summary and "error_engines" in summary:
            self.cutoffs.add(summary["error_engines"].get("cutoff", "?"))

    def start(self, http=False):
        return servers.start(self.serve, self.loop, http=http)

    def setup_block(self, http=False):
        """One block of setup_s samples: cold starts back to back, each
        stopped at once, after one untimed start. A start that follows
        other work takes half as long again, and varies more, because the
        idle vCPUs it lands on must wake first. Blocks spread over the run
        keep a passing slowdown of the host to a few of the samples."""
        for i in range(SETUP_BLOCK + 1):
            server, seconds = self.start(http)
            if i:
                self.setup.append(seconds)
            server.stop(self.loop)

    def probe(self, conn, rid, body):
        """A request outside the timed set; returns its latency in ms. A
        failure still fails the run."""
        req = self.loop.request(conn, Request(rid, body))
        if not req.ok:
            self.errors.append((rid, f"failed ({req.error})"))
        return req.latency_ms()

    def first_point_probes(self, count, spec, evals, ref):
        """Cold sweeps timed to their first point event (ttfp), after which
        the server is killed. A run holds only a few whole cold sweeps;
        these give the first-point median its samples."""
        for _ in range(count):
            server, _ = self.start()
            rid = f"probe-{len(self.ttfp)}"
            req = Request(rid, sweep_body(rid, spec, evals))
            server.conn.send(req)
            self.loop.run_until(lambda: req.t_first_point is not None or req.finished)
            server.kill(self.loop)
            points = req.events("point")
            if not points or unranked(points[0]["point"]) != unranked(ref[0]):
                self.errors.append((None, f"{req.id}: first point differs from the reference"))
            else:
                self.ttfp.append((req.t_first_point - req.t_send) * 1e3)

    def warm_up(self, http=False):
        """A discarded pass: the first exec after a build is several times
        slower than the steady state."""
        server, _ = self.start(http)
        req = Request("warmup", sweep_body("warmup", {"widths": [8]}))
        self.loop.request(server.conn, req)
        server.stop(self.loop)

    def trace_id(self, n):
        return f"{splitmix64(self.seed ^ n):016x}{splitmix64(n):016x}"

    def client_spans(self, req, tid):
        """The benchmark's own spans of one request: send to each event."""
        root = tid[:16]
        spans = [{"name": f"client {req.id}", "tier": "client", "id": root,
                  "parent": "0" * 16, "start": 0.0, "dur": req.t_done - req.t_send}]
        prev = req.t_send
        for i, (t, kind) in enumerate(zip(req.times, req.kinds)):
            spans.append({"name": kind, "tier": "client", "id": f"{splitmix64(i + 1):016x}",
                          "parent": root, "start": prev - req.t_send, "dur": t - prev})
            prev = t
        return spans

    def traced_request(self, conn, rid, spec, n, **body):
        """One request carrying a trace context and exact point bits; its
        client and server spans join the run's trace."""
        tid = self.trace_id(n)
        req = self.loop.request(conn, Request(rid, sweep_body(rid, spec, trace_id=tid, bits=True,
                                                              **body)))
        if not req.ok:
            self.errors.append((None, f"{rid}: traced request failed ({req.error})"))
            return req, []
        done = req.events("done")[0]
        self.spans.append({"request": rid, "trace_id": tid,
                           "spans": self.client_spans(req, tid) + done.get("spans", [])})
        return req, [p["bits"] for p in req.events("point")]

    def replay_layers(self, lines, served_bits):
        """Per-layer split from the in-process replay; its points must equal
        the served ones bit for bit."""
        trace_out = os.path.join(self.bdir, "traces", f"{self.name}-seed{self.seed}.json")
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        result = self.run_replay(lines, "replay", trace_out)
        for line, got, bits in zip(lines, result["requests"], served_bits):
            if got["bits"] != bits:
                self.errors.append((None, f"replay of {json.loads(line)['id']} differs from "
                                          "the served points"))
        layers = result["layers"]
        shares = {k: layers.pop(k) for k in list(layers) if k.startswith("share.")}
        self.layers.update(layers)
        self.notes.append("replayed busy-time share per layer: " + ", ".join(
            f"{k[6:]} {v:.1%}" for k, v in shares.items()))
        self.notes.append(f"trace written to {trace_out}")

    def scrape_stages(self, server):
        text = server.verb(self.loop, "metrics", "scrape")["data"]
        for stage in ("queue_wait", "evaluate", "serialize"):
            total = stage_value(text, "sum", stage)
            count = stage_value(text, "count", stage)
            self.layers[f"serve.{stage}_ms"] = 1e3 * total / count if count else 0.0


def stage_value(text, field, stage):
    match = re.search(rf'^sdlc_serve_stage_duration_seconds_{field}\{{stage="{stage}"\}} (\S+)',
                      text, re.M)
    return float(match.group(1)) if match else 0.0


# ------------------------------------------------------------- workloads --

def batch(b, width):
    spec = {"widths": [width]}
    # Exhaustive widths ignore the seed; the sampled width draws its pairs
    # from it, so every run seed is a different sample of the same work.
    evals = {"seed": str(splitmix64(b.seed) >> 1)} if width == 16 else None
    ref = b.reference(dse_args(spec, evals))
    b.warm_up()

    def one_sweep(rid, traced=False):
        server, _ = b.start()
        if traced:
            req, bits = b.traced_request(server.conn, rid, spec, 1, evals=evals, export=True)
        else:
            req = b.loop.request(server.conn, Request(rid, sweep_body(rid, spec, evals, True)))
            bits = None
        b.rss.append(server.vm_hwm_mb())
        b.cpu_s += server.cpu_s()
        if b.trace and not traced:
            b.scrape_stages(server)
        server.stop(b.loop)
        return req, bits

    # Set-up blocks and first-point probes are paced with the timed sweeps,
    # so all three samples cover the same stretch of the run.
    def pace(share):
        if b.trace:
            return
        while len(b.setup) < SETUP_BLOCK * min(SETUP_BLOCKS, 1 + int(SETUP_BLOCKS * share)):
            b.setup_block()
        b.first_point_probes(min(FIRST_POINT_PROBES, int(FIRST_POINT_PROBES * share))
                             - len(b.ttfp), spec, evals, ref)

    run = []
    while not run or b.busy_s < b.seconds and not b.trace:
        pace(b.busy_s / b.seconds)
        req = one_sweep(f"sweep-{len(run)}")[0]
        run.append(req)
        b.busy_s += req.t_done - req.t_send
    pace(1.0)
    b.requests = run

    for req in run:
        if b.judge(req, check_stream(req, ref) + check_export(req, ref)):
            export = json.loads(req.export())
            b.note_cutoff(export["summary"])
            b.record_work(f"w{width}", work_record(export["points"], export["summary"]))
    b.check_repeats(run, lambda r: check_stream(r, ref))

    if b.trace:
        _, bits = one_sweep("traced", traced=True)
        b.layers["serve.bytes_per_req"] = run[0].bytes
        server, _ = b.start(http=True)
        http = b.loop.add(HttpConn(server.http_port))
        transport_probe(b, server.conn, http)
        class_probe(b, server.conn, http)
        trace_overhead_probe(b, server.conn)
        b.loop.remove(http)
        server.stop(b.loop)
        cluster_sweep(b, spec, ref, evals)
        b.replay_layers([run[0].body], [bits])


def transport_probe(b, line, http):
    """The same width-6 export request alternated on each transport."""
    times = {"line": [], "http": []}
    for i in range(PROBE_REPEATS):
        for transport, conn in (("line", line), ("http", http)):
            rid = f"probe-{transport}-{i}"
            times[transport].append(
                b.probe(conn, rid, sweep_body(rid, {"widths": [6]}, None, True, EXPORT_CHUNK)))
    b.layers["serve.line_p50_ms"] = measure.median(times["line"])
    b.layers["serve.http_p50_ms"] = measure.median(times["http"])


def trace_overhead_probe(b, line):
    """The default width-8 sweep alternately untraced and traced on an
    otherwise idle server: the difference of the two medians."""
    spec8 = {"widths": [8]}
    plain, traced = [], []
    for i in range(PROBE_REPEATS):
        plain.append(b.probe(line, f"plain-{i}", sweep_body(f"plain-{i}", spec8)))
        traced.append(b.probe(line, f"traced-{i}", sweep_body(f"traced-{i}", spec8,
                                                             trace_id=b.trace_id(1000 + i))))
    b.layers["obs.trace_overhead_ms"] = measure.median(traced) - measure.median(plain)


def class_probe(b, line, http):
    """serve_mix's request classes one at a time on an idle server (the
    batch workloads' traced runs), each answer checked."""
    picked = {cls: [] for cls in MIX_CLASSES}
    for req in mix_sequence(b.seed, 0):
        if len(picked[req.cls]) < CLASS_REPEATS:
            picked[req.cls].append(req)
        if all(len(reqs) == CLASS_REPEATS for reqs in picked.values()):
            break
    for reqs in picked.values():
        for req in reqs:
            b.loop.request(http if req.transport == "http" else line, req)
    ref8 = b.reference(["--width", "8"])
    ref6 = b.reference(["--width", "6"])
    b.check_repeats(picked["w8_repeat"], lambda r: check_stream(r, ref8))
    b.check_repeats(picked["w6_export"], lambda r: check_stream(r, ref6) + check_export(r, ref6))
    checked = b.run_replay([r.body for r in picked["w16_fresh"]], "check")["requests"]
    for req, ref in zip(picked["w16_fresh"], checked):
        b.judge(req, check_stream(req, ref["points"]))
    for cls, reqs in picked.items():
        b.layers[f"serve.{cls}_p50_ms"] = measure.median([r.latency_ms() for r in reqs])


def cluster_sweep(b, spec, ref, evals=None):
    """The workload's sweep through a coordinator and two replicas: its
    answer must equal the single-server one, and its counters fill
    cluster.*."""
    cluster = servers.Cluster(b.serve, b.loop)
    req = b.loop.request(cluster.conn, Request("cluster", sweep_body("cluster", spec, evals,
                                                                     export=True)))
    stats = cluster.coordinator.verb(b.loop, "stats", "stats")
    cluster.stop(b.loop)
    b.judge(req, check_stream(req, ref) + check_export(req, ref))
    workers = stats["cluster"]["workers"]
    b.layers.update({
        "cluster.sweep_ms": req.latency_ms(),
        "cluster.dispatched": sum(w["dispatched"] for w in workers),
        "cluster.retried": sum(w["retried"] for w in workers),
        "cluster.local_shards": stats["cluster"]["local_shards"],
        "cluster.worker_busy_s": sum(w["busy_seconds"] for w in workers),
        "cluster.worker_bytes": sum(w["bytes"] for w in workers),
    })


def serve_mix(b):
    ref8 = b.reference(["--width", "8"])
    ref6 = b.reference(["--width", "6"])
    b.warm_up(http=True)

    server, _ = b.start(http=True)
    line = server.conn
    https = [b.loop.add(HttpConn(server.http_port)) for _ in range(MIX_CLIENTS)]
    sequences = [mix_sequence(b.seed, c) for c in range(MIX_CLIENTS)]
    inflight = [None] * MIX_CLIENTS
    run = []
    t_end = 0.0

    def send_next(client):
        req = next(sequences[client])
        req.client = client
        conn = line if req.transport == "line" else https[client]
        if conn.closed:
            inflight[client] = None
            return
        inflight[client] = req
        conn.send(req)

    def finished(req):
        run.append(req)
        inflight[req.client] = None
        if time.perf_counter() < t_end:
            send_next(req.client)

    # The closed loop runs in segments with a set-up block before each, so
    # the set-up samples cover the same stretch of the run as the requests.
    cpu0 = server.cpu_s()
    for _ in range(SETUP_BLOCKS):
        if not b.trace:
            b.setup_block(http=True)
        t0 = time.perf_counter()
        t_end = t0 + b.seconds / SETUP_BLOCKS
        b.loop.on_finish = finished
        for client in range(MIX_CLIENTS):
            send_next(client)
        b.loop.run_until(lambda: all(r is None for r in inflight))
        b.loop.on_finish = None
        b.busy_s += time.perf_counter() - t0
    b.cpu_s = server.cpu_s() - cpu0
    b.rss.append(server.vm_hwm_mb())
    b.requests = run

    by_class = {cls: [r for r in run if r.cls == cls] for cls in MIX_CLASSES}
    b.notes.append(class_shares(by_class))
    b.check_repeats(by_class["w8_repeat"], lambda r: check_stream(r, ref8))
    b.check_repeats(by_class["w6_export"], lambda r: check_stream(r, ref6))
    for req in by_class["w6_export"]:
        b.judge(req, check_export(req, ref6))
    fresh = by_class["w16_fresh"]
    if fresh:
        checked = b.run_replay([r.body for r in fresh], "check")["requests"]
        for req, ref in zip(fresh, checked):
            b.judge(req, check_stream(req, ref["points"]))
    for cls, reqs in by_class.items():
        for req in reqs:
            if req.ok:
                b.record_work(cls, work_record([p["point"] for p in req.events("point")]))

    if b.trace:
        mix_layers(b, server, line, https[0], by_class, ref8)
    for conn in https:
        b.loop.remove(conn)
    server.stop(b.loop)


def mix_layers(b, server, line, http, by_class, ref8):
    """Per-layer probes on the resident server after the timed loop."""
    b.scrape_stages(server)
    b.layers["serve.bytes_per_req"] = sum(r.bytes for r in b.requests) / len(b.requests)
    seen = set()
    repeats = 0
    for req in b.requests:
        key = req.body.replace(f'"id": "{req.id}"', "")
        repeats += key in seen
        seen.add(key)
    b.layers["serve.repeat_share"] = repeats / len(b.requests)
    for cls, reqs in by_class.items():
        latencies = [r.latency_ms() for r in reqs]
        b.layers[f"serve.{cls}_p50_ms"] = measure.median(latencies) if latencies else 0.0

    transport_probe(b, line, http)
    trace_overhead_probe(b, line)

    # Replay one request of each class; the served bits come from traced
    # copies of the same requests.
    spec8, spec6 = {"widths": [8]}, {"widths": [6]}
    replayed = [sweep_body("w8", spec8), sweep_body("w6", spec6, None, True, EXPORT_CHUNK)]
    served = [b.traced_request(line, "w8", spec8, 100)[1],
              b.traced_request(line, "w6", spec6, 101, export=True, chunk=EXPORT_CHUNK)[1]]
    fresh = by_class["w16_fresh"]
    if fresh:
        body = json.loads(fresh[0].body)
        replayed.append(sweep_body("w16", body["spec"], body["eval"]))
        served.append(b.traced_request(line, "w16", body["spec"], 102, evals=body["eval"])[1])
    cluster_sweep(b, spec8, ref8)
    b.replay_layers(replayed, served)


def class_shares(by_class):
    """The mix's measured weighting: each class's share of the requests
    and of the server time (a worker's pickup, the accepted event, to done)."""
    count = sum(len(reqs) for reqs in by_class.values())
    server_s = {cls: sum(r.t_done - r.t_accepted for r in reqs
                         if r.ok and r.t_accepted is not None)
                for cls, reqs in by_class.items()}
    total_s = sum(server_s.values()) or 1.0
    return "serve_mix share of requests / of server time: " + ", ".join(
        f"{cls} {len(reqs) / max(1, count):.1%} / {server_s[cls] / total_s:.1%}"
        for cls, reqs in by_class.items())


def run(b, name):
    b.name = name
    if name == "sweep_w12":
        batch(b, 12)
    elif name == "sweep_w16":
        batch(b, 16)
    elif name == "serve_mix":
        serve_mix(b)
    else:
        raise ValueError(f"unknown workload {name}")


WORKLOADS = ("sweep_w12", "sweep_w16", "serve_mix")


END_TO_END_UNITS = {"setup_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms",
                    "ttfp_p50_ms": "ms", "throughput_rps": "1/s", "cpu_ms_per_req": "ms",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def end_to_end(b):
    """The end-to-end metrics of the run, by name (units: END_TO_END_UNITS).
    A failed run gives what it measured, ok_ratio always; a metric without
    a finite value (no samples, or a failure at its percentile) is left out."""
    latencies = [r.latency_ms() for r in b.requests]
    ttfp = b.ttfp + [r.ttfp_ms() for r in b.requests]
    ok = b.ok_count()
    metrics = {
        "setup_s": measure.median(b.setup) if b.setup else math.nan,
        "req_p50_ms": measure.percentile(latencies, 50) if latencies else math.nan,
        "req_p90_ms": measure.percentile(latencies, 90) if latencies else math.nan,
        "ttfp_p50_ms": measure.percentile(ttfp, 50) if ttfp else math.nan,
        "throughput_rps": ok / b.busy_s if b.busy_s > 0 else math.nan,
        "cpu_ms_per_req": 1e3 * b.cpu_s / len(latencies) if latencies else math.nan,
        "peak_rss_mb": measure.median(b.rss) if b.rss else math.nan,
        "ok_ratio": ok / max(1, b.attempted()),
    }
    return {name: value for name, value in metrics.items() if math.isfinite(value)}
