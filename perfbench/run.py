#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --compare RECORD.json ...

Run from the root of a checkout. The first run builds serve_tool, dse_tool
and the replay tool from source into $CARGO_TARGET_DIR (default
.bench_build)/perfbench. --trace 0 prints every end-to-end metric, --trace 1
every per-layer metric; the last line of stdout is the result object. Each
run also leaves a record under <build>/runs/ that --compare reads; it
refuses to compare runs whose work records differ. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave the checkout's source tree untouched

import measure  # noqa: E402
import servers  # noqa: E402
import workloads  # noqa: E402
from wire import Loop  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170
TARGETS = ("serve_tool", "dse_tool", "perfbench_replay")

PER_LAYER_UNITS = {
    "error.eval_s": "s", "error.sliced_share": "ratio", "error.scalar_share": "ratio",
    "error.sampled_share": "ratio", "error.kernel_s": "s", "error.accumulate_s": "s",
    "error.pairs": "count", "error.ns_per_pair": "ns",
    "error.points_sliced": "count", "error.points_scalar": "count",
    "error.points_sampled": "count", "error.distinct_ratio": "ratio",
    "error.calibrate_s": "s",
    "netlist.build_s": "s", "tech.synth_s": "s", "tech.synth_runs": "count",
    "dse.enumerate_s": "s", "dse.cache_hit_ratio": "ratio", "dse.pareto_s": "s",
    "dse.export_s": "s", "dse.export_bytes": "bytes",
    "serve.parse_us": "us", "serve.point_event_us": "us", "serve.queue_wait_ms": "ms",
    "serve.evaluate_ms": "ms", "serve.serialize_ms": "ms", "serve.bytes_per_req": "bytes",
    "serve.repeat_share": "ratio", "serve.line_p50_ms": "ms", "serve.http_p50_ms": "ms",
    "serve.w8_repeat_p50_ms": "ms", "serve.w6_export_p50_ms": "ms",
    "serve.w16_fresh_p50_ms": "ms",
    "cluster.sweep_ms": "ms", "cluster.dispatched": "count", "cluster.retried": "count",
    "cluster.local_shards": "count", "cluster.worker_busy_s": "s",
    "cluster.worker_bytes": "bytes", "cluster.split_functions": "count",
    "obs.trace_overhead_ms": "ms",
}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def build(bdir):
    """Configures once, then builds the three targets (a no-op when current)."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
                            *generator], stdout=log, stderr=subprocess.STDOUT, check=True)
        jobs = str(len(os.sched_getaffinity(0)))
        subprocess.run(["cmake", "--build", bdir, "--target", *TARGETS, "-j", jobs],
                       stdout=log, stderr=subprocess.STDOUT, check=True)
    exes = []
    for target in TARGETS:
        found = [os.path.join(d, target) for d in (os.path.join(bdir, "program"), bdir)
                 if os.path.isfile(os.path.join(d, target))]
        if not found:
            fail(f"built {target} not found under {bdir}", 1)
        exes.append(os.path.abspath(found[0]))
    return exes


def cpu_times():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return sum(fields[:8]), fields[7]  # total (without guest), steal


def source_digest():
    """Identity of the program under test (the checkout is not a git tree)."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files)
        for path in sorted(paths):
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def machine_record(bdir):
    flags, model = set(), "?"
    with open("/proc/cpuinfo") as f:
        for line in f:
            key, _, value = line.partition(":")
            if key.strip() == "model name" and model == "?":
                model = value.strip()
            elif key.strip() == "flags" and not flags:
                flags = set(value.split())
    build_type = "?"
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    with open("/proc/loadavg") as f:
        load = [float(x) for x in f.read().split()[:3]]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "avx512f": "avx512f" in flags, "gfni": "gfni" in flags,
            "build_type": build_type, "source": source_digest(), "loadavg": load}


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in metrics.items()}})


def compare(paths):
    """Median and quartiles per metric, refusing runs whose work differs."""
    groups = {}
    for path in paths:
        with open(path) as f:
            record = json.load(f)
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    for (workload, trace), records in sorted(groups.items()):
        works = {json.dumps(r["work"], sort_keys=True) for r in records}
        if len(works) > 1:
            fail(f"{workload}: work records differ between runs, refusing to compare:\n  "
                 + "\n  ".join(sorted(works)), 1)
        print(f"{workload} (trace {trace}, {len(records)} runs)")
        for name in records[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in records]
            med = measure.median(values)
            line = f"  {name:28s} median {med:.6g} {records[0]['metrics'][name]['unit']}"
            if len(values) >= 2 and med:
                q1, q3 = measure.quartiles(values)
                line += f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {(q3 - q1) / med:.2%}"
            print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs="+", metavar="RECORD")
    args = parser.parse_args()

    if args.self_test:
        import selftest
        sys.exit(selftest.main())
    if args.compare:
        compare(args.compare)
        return
    if args.workload is None:
        parser.error("--workload is required")
    for path in ("CMakeLists.txt", "src", os.path.join("tools", "serve_tool.cpp")):
        if not os.path.exists(path):
            fail(f"run from the root of a checkout of the program ({path} is missing)")

    bdir = build_dir()
    try:
        exes = build(bdir)
    except subprocess.CalledProcessError:
        fail(f"build failed, see {os.path.join(bdir, 'build.log')}", 1)
    machine = machine_record(bdir)
    total0, steal0 = cpu_times()
    loop = Loop(time.perf_counter() + RUN_LIMIT_S)
    bench = workloads.Bench(exes, bdir, args.seed, args.seconds, args.trace, loop)
    try:
        workloads.run(bench, args.workload)
    except Exception as e:  # a crash is a failed run, reported like one
        bench.errors.append((None, f"{type(e).__name__}: {e}"))
    finally:
        servers.reap_all()
    total1, steal1 = cpu_times()
    machine["steal_share"] = (steal1 - steal0) / max(1, total1 - total0)
    machine["cutoffs"] = sorted(bench.cutoffs)

    attempted = max(1, bench.attempted())
    ok = bench.ok_count()
    correct = not bench.errors and ok == attempted
    # A failed run still prints what it measured, ok_ratio included.
    if args.trace:
        metrics = {name: (float(bench.layers.get(name, 0.0)), unit)
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: (value, workloads.END_TO_END_UNITS[name])
                   for name, value in workloads.end_to_end(bench).items()}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine, "work": bench.work,
              "correct": correct, "metrics": {k: {"value": v, "unit": u}
                                              for k, (v, u) in metrics.items()}}
    runs = os.path.join(bdir, "runs")
    os.makedirs(runs, exist_ok=True)
    with open(os.path.join(runs, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1)

    for rid, message in bench.errors:
        print(f"perfbench: {rid or args.workload}: {message}", file=sys.stderr)
    print(json.dumps({"machine": machine}))
    print(json.dumps({"work": bench.work}))
    if not args.trace:
        n = len(bench.requests)
        bench.notes.append(f"{n} timed requests; req_p90_ms " + (
            "has at least ten beyond it" if measure.tail_supported(n, 90) else
            "has fewer than ten beyond it: read it as the run's slowest requests"))
    for note in bench.notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:26s} {value:14.6g} {unit}")
    print(result_line(correct, attempted, attempted - ok, metrics))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
