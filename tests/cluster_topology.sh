#!/usr/bin/env bash
# Distributed sweeps must be byte-identical across cluster topologies, end
# to end over real processes and sockets:
#   - no workers (the single-node reference)
#   - a worker list where every worker is dead (full local fallback)
#   - 1 worker, 3 workers, and the 3-worker list reordered
#   - a worker killed -9 mid-sweep
#   - a dead worker in an otherwise healthy list
#   - a slow worker (a stalling endpoint) forcing shard-timeout retries
#   - a fixed cutoff of 0 ("sample everything") through one worker
# Every topology must reproduce `dse_tool --json` exactly and exit 0; the
# worker fleet is an accelerator, never a result-changing dependency.
# Usage: cluster_topology.sh /path/to/dse_tool /path/to/serve_tool
set -u

dse="${1:?usage: cluster_topology.sh dse_tool serve_tool}"
serve="${2:?usage: cluster_topology.sh dse_tool serve_tool}"
workdir="$(mktemp -d)"
cleanup() {
    # shellcheck disable=SC2046
    kill $(jobs -p) 2>/dev/null
    wait 2>/dev/null
    rm -rf "$workdir"
}
trap cleanup EXIT
cd "$workdir"

SWEEP="--width 6"
failures=0

fail() {
    echo "FAIL: $1" >&2
    failures=$((failures + 1))
}

wait_for_socket() { # path
    for _ in $(seq 600); do [ -S "$1" ] && return 0; sleep 0.05; done
    fail "server never bound $1"
    return 1
}

check_identical() { # name file
    if cmp -s ref.json "$2"; then
        echo "ok: $1 export byte-identical"
    else
        fail "$1 export differs from reference"
    fi
}

# Counter fields from dse_tool's "cluster:" summary line.
cluster_field() { # file field-name
    sed -n "s/^cluster: .*[^0-9]\([0-9][0-9]*\) $2.*/\1/p" "$1"
}

# ---- reference: no workers -------------------------------------------------
"$dse" $SWEEP --json ref.json >/dev/null || fail "reference sweep failed"

# ---- every worker dead: the whole sweep runs locally -----------------------
"$dse" $SWEEP --workers "unix:$workdir/never1.sock,unix:$workdir/never2.sock" \
    --shard-retries 0 --json alldead.json >alldead.txt \
    || fail "all-dead-workers sweep failed"
check_identical "all workers dead" alldead.json
local_shards=$(cluster_field alldead.txt local)
[ "${local_shards:-0}" -gt 0 ] || fail "all-dead run reported no local shards"
completed=$(cluster_field alldead.txt completed)
[ "${completed:-1}" -eq 0 ] || fail "all-dead run reported completed shards"

# ---- one worker ------------------------------------------------------------
"$serve" --listen w1.sock --threads 2 2>/dev/null &
wait_for_socket w1.sock

"$dse" $SWEEP --workers unix:w1.sock --json one.json >one.txt \
    || fail "1-worker sweep failed"
check_identical "1 worker" one.json
completed=$(cluster_field one.txt completed)
[ "${completed:-0}" -gt 0 ] || fail "1-worker run completed no shards remotely"

# A fixed cutoff of 0 samples every point on the replica too: the shard
# sub-request pins it, so the replica never promotes points to exhaustive.
"$dse" $SWEEP --exhaustive-max-width 0 --json ref_cut0.json >/dev/null \
    || fail "cutoff-0 reference sweep failed"
"$dse" $SWEEP --exhaustive-max-width 0 --workers unix:w1.sock --json cut0.json >cut0.txt \
    || fail "cutoff-0 1-worker sweep failed"
if cmp -s ref_cut0.json cut0.json; then
    echo "ok: cutoff 0 (1 worker) export byte-identical"
else
    fail "cutoff-0 1-worker export differs from the single-node one"
fi
completed=$(cluster_field cut0.txt completed)
[ "${completed:-0}" -gt 0 ] || fail "cutoff-0 run completed no shards remotely"

# ---- three workers ---------------------------------------------------------
"$serve" --listen w2.sock --threads 2 2>/dev/null &
wait_for_socket w2.sock
"$serve" --listen w3.sock --threads 2 2>/dev/null &
wait_for_socket w3.sock
WORKERS="unix:w1.sock,unix:w2.sock,unix:w3.sock"

"$dse" $SWEEP --workers "$WORKERS" --json three.json >three.txt \
    || fail "3-worker sweep failed"
check_identical "3 workers" three.json
local_shards=$(cluster_field three.txt local)
[ "${local_shards:-1}" -eq 0 ] || fail "3-worker run fell back locally"

# The shard cut is fixed, so a reordered worker list changes only who
# computes what, never the bytes.
"$dse" $SWEEP --workers "unix:w3.sock,unix:w1.sock,unix:w2.sock" \
    --json reorder.json >reorder.txt || fail "reordered-worker sweep failed"
check_identical "3 workers reordered" reorder.json

# A second (warm) run against the same fleet also matches the single-node
# warm run's export: exports carry no cache counters, so warmth never
# shows in the bytes.
"$dse" $SWEEP --json ref_warm.json --repeat 2 >/dev/null \
    || fail "single-node repeat sweep failed"
"$dse" $SWEEP --workers "$WORKERS" --json warm.json --repeat 2 >warm.txt \
    || fail "3-worker repeat sweep failed"
cmp -s ref_warm.json warm.json || fail "repeat-run cluster export differs"
echo "ok: repeat run byte-identical"

# ---- tracing is invisible to the export ------------------------------------
# A traced distributed sweep must still byte-match the untraced single-node
# reference, and the Chrome trace must stitch in worker-tier spans from the
# shard done events.
"$dse" $SWEEP --workers "$WORKERS" --trace-out cluster_trace.json \
    --json traced_export.json >traced.txt || fail "traced cluster sweep failed"
check_identical "traced (cluster)" traced_export.json
[ -s cluster_trace.json ] || fail "traced run wrote no trace file"
grep -q '"shard_dispatch"' cluster_trace.json \
    || fail "trace carries no shard-dispatch spans"
grep -q '"pid": 3' cluster_trace.json || fail "trace carries no worker-tier spans"

# ---- worker killed mid-sweep -----------------------------------------------
"$serve" --listen victim.sock --threads 1 2>/dev/null &
victim=$!
wait_for_socket victim.sock
"$dse" $SWEEP --workers "unix:w1.sock,unix:victim.sock" --shards 16 \
    --json killed.json >killed.txt &
sweep=$!
sleep 0.08
kill -9 "$victim" 2>/dev/null
wait "$sweep"
[ $? -eq 0 ] || fail "sweep with killed worker exited non-zero"
check_identical "worker killed mid-sweep" killed.json

# ---- dead worker in the list -----------------------------------------------
"$dse" $SWEEP --workers "unix:w1.sock,unix:$workdir/never3.sock" \
    --json deadone.json >deadone.txt || fail "dead-worker sweep failed"
check_identical "dead worker in list" deadone.json
completed=$(cluster_field deadone.txt completed)
[ "${completed:-0}" -gt 0 ] || fail "dead-worker run completed no shards"

# ---- slow worker: shard timeouts retry on the healthy peer -----------------
# A listener that accepts connections and never writes stands in for a
# stalled replica: it produces no bytes, which must trip the read-silence
# budget and requeue the shard.
python3 - slow.sock <<'PY' 2>/dev/null &
import socket, sys
srv = socket.socket(socket.AF_UNIX)
srv.bind(sys.argv[1])
srv.listen(16)
held = []
while True:
    held.append(srv.accept()[0])  # hold the connection open, never answer
PY
wait_for_socket slow.sock
"$dse" $SWEEP --workers "unix:w1.sock,unix:slow.sock" --shard-timeout-ms 100 \
    --json slow.json >slow.txt || fail "slow-worker sweep failed"
check_identical "slow worker (timeout retry)" slow.json
retried=$(cluster_field slow.txt retried)
[ "${retried:-0}" -gt 0 ] || fail "slow worker recorded no shard retries"

exit "$failures"
