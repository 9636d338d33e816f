"""Self-tests of the benchmark harness (no build needed).

    python3 perfbench/run.py --self-test
"""

import itertools
import json
import math
import os
import sys
import unittest

import measure
import workloads
from wire import HttpConn, LineSplitter, Request

HERE = os.path.dirname(os.path.abspath(__file__))


class Statistics(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(measure.median(values), 3.0)
        self.assertEqual(measure.quartiles(values), (1.5, 4.5))
        self.assertAlmostEqual(measure.spread(values), 1.0)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(measure.percentile(values, 50), 50)
        self.assertEqual(measure.percentile(values, 90), 90)
        self.assertEqual(measure.percentile([7.0], 90), 7.0)

    def test_failures_count_as_slowest(self):
        values = [1.0] * 95 + [math.inf] * 5
        self.assertEqual(measure.percentile(values, 90), 1.0)
        self.assertEqual(measure.percentile(values, 99), math.inf)

    def test_percentile_rule_needs_ten_samples_beyond(self):
        self.assertTrue(measure.tail_supported(100, 90))
        self.assertFalse(measure.tail_supported(99, 90))
        self.assertTrue(measure.tail_supported(1000, 99))
        self.assertFalse(measure.tail_supported(999, 99))
        self.assertFalse(measure.tail_supported(13, 90))


class MixGenerator(unittest.TestCase):
    def take(self, seed, client, n=400):
        return [(r.cls, r.body) for r in itertools.islice(workloads.mix_sequence(seed, client), n)]

    def test_same_seed_same_sequence(self):
        self.assertEqual(self.take(7, 0), self.take(7, 0))
        self.assertNotEqual(self.take(7, 0), self.take(8, 0))
        self.assertNotEqual(self.take(7, 0), self.take(7, 1))

    def test_every_round_holds_the_weights(self):
        size = sum(workloads.MIX_WEIGHTS)
        sequence = [cls for cls, _ in self.take(3, 2, 40 * size)]
        rounds = {tuple(sequence[i:i + size]) for i in range(0, len(sequence), size)}
        self.assertGreater(len(rounds), 1)  # shuffled
        for r in rounds:
            self.assertEqual([r.count(cls) for cls in workloads.MIX_CLASSES],
                             list(workloads.MIX_WEIGHTS))

    def test_fresh_seeds_never_repeat_within_a_run(self):
        seeds = []
        for client in range(workloads.MIX_CLIENTS):
            for cls, body in self.take(11, client, 3000):
                if cls == "w16_fresh":
                    seeds.append(json.loads(body)["eval"]["seed"])
        self.assertGreater(len(seeds), 1000)
        self.assertEqual(len(seeds), len(set(seeds)))

    def test_fresh_requests_are_three_point_width16_slices(self):
        for cls, body in self.take(5, 1):
            spec = json.loads(body)["spec"]
            if cls == "w16_fresh":
                self.assertEqual(spec["widths"], [16])
                self.assertEqual(spec["min_depth"], spec["max_depth"])
                self.assertEqual(len(spec["schemes"]), 3)


def stream(rid, points, done=True):
    lines = [f'{{"id": "{rid}", "event": "accepted", "type": "sweep", "points": {points}}}']
    lines += [f'{{"id": "{rid}", "event": "point", "index": {i}, "point": {{}}}}'
              for i in range(points)]
    lines.append(f'{{"id": "{rid}", "event": "summary", "points": {points}}}')
    if done:
        lines.append(f'{{"id": "{rid}", "event": "done", "ok": true}}')
    return ("\n".join(lines) + "\n").encode()


class Streams(unittest.TestCase):
    def test_complete_stream_succeeds(self):
        splitter = LineSplitter()
        req = Request("r", "{}")
        req.t_send = 0.0
        splitter.pending["r"] = req
        data = stream("r", 3)
        finished = splitter.feed(1.0, data[:17]) + splitter.feed(2.0, data[17:])
        self.assertEqual(finished, [req])
        self.assertTrue(req.ok)
        self.assertEqual(req.kinds.count("point"), 3)

    def test_truncated_stream_is_a_failure(self):
        splitter = LineSplitter()
        req = Request("r", "{}")
        req.t_send = 0.0
        splitter.pending["r"] = req
        self.assertEqual(splitter.feed(1.0, stream("r", 3, done=False)), [])
        splitter.truncate(2.0, "stream closed before done")
        self.assertTrue(req.finished)
        self.assertFalse(req.ok)
        self.assertEqual(req.latency_ms(), math.inf)

    def test_http_response_without_done_is_a_failure(self):
        conn = HttpConn.__new__(HttpConn)
        conn.lines, conn.raw, conn.state, conn.need = LineSplitter(), b"", "head", 0
        conn.closed, conn.held = False, []
        req = Request("h", "{}")
        req.t_send = 0.0
        conn.lines.pending["h"] = req
        body = stream("h", 2, done=False)
        response = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                    + f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n")

        class Sock:
            def recv(self, _):
                return response
        conn.sock = Sock()
        self.assertEqual(conn.on_readable(1.0), [req])
        self.assertFalse(req.ok)


def answered(rid, t_done, ok=True):
    req = Request(rid, "{}")
    req.t_send = 0.0
    for t, line in ((t_done / 2, f'{{"id": "{rid}", "event": "point"}}'),
                    (t_done, f'{{"id": "{rid}", "event": "done", "ok": {str(ok).lower()}}}')):
        req.add(t, json.loads(line)["event"], line)
    return req


class FailedRuns(unittest.TestCase):
    def bench(self, requests):
        b = workloads.Bench(("serve", "dse", "replay"), "", 1, 1, 0, None)
        b.requests = requests
        b.busy_s = 1.0
        b.setup = [0.002]
        return b

    def test_failed_request_lowers_ok_ratio_and_hides_infinite_tails(self):
        b = self.bench([answered(f"r{i}", 0.01) for i in range(4)] + [answered("bad", 0.01, False)])
        metrics = workloads.end_to_end(b)
        self.assertAlmostEqual(metrics["ok_ratio"], 0.8)
        self.assertNotIn("req_p90_ms", metrics)  # the failure sits at the 90th percentile
        self.assertAlmostEqual(metrics["req_p50_ms"], 10.0)
        self.assertAlmostEqual(metrics["setup_s"], 0.002)

    def test_failed_check_outside_the_timed_requests_counts_as_an_attempt(self):
        b = self.bench([answered("r0", 0.01), answered("r1", 0.01)])
        b.errors = [(None, "replay differs"), ("probe-3", "failed"), ("probe-3", "again")]
        self.assertEqual(b.attempted(), 4)
        self.assertAlmostEqual(workloads.end_to_end(b)["ok_ratio"], 0.5)

    def test_run_without_requests_still_reports_ok_ratio(self):
        b = self.bench([])
        b.setup, b.busy_s = [], 0.0
        self.assertEqual(workloads.end_to_end(b), {"ok_ratio": 0.0})


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        path = os.path.join(HERE, "..", "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to the benchmark")
        import run
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(run.PER_LAYER_UNITS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(e2e, workloads.END_TO_END_UNITS)


def main():
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    return 0 if unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful() else 1
