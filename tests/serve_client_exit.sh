#!/usr/bin/env bash
# serve_tool --client exit-status contract, end to end over a real server,
# plus the serve_tool / dse_tool / sdlc / bench usage contract:
#   0  every request succeeded
#   1  the server answered an error event / a request failed
#   2  usage error
#   3  transport failure (cannot connect, stream dropped early)
# and a check that `sdlc eval` prints what dse_tool exports for one point.
# Usage: serve_client_exit.sh /path/to/serve_tool /path/to/dse_tool /path/to/sdlc
#        /path/to/bench_binary
set -u

args_usage="usage: serve_client_exit.sh serve_tool dse_tool sdlc bench"
tool="${1:?$args_usage}"
dse="${2:?$args_usage}"
sdlc="${3:?$args_usage}"
bench="${4:?$args_usage}"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

failures=0
check_exit() { # name expected actual
    if [ "$3" -ne "$2" ]; then
        echo "FAIL: $1: expected exit $2, got $3" >&2
        failures=$((failures + 1))
    else
        echo "ok: $1 (exit $3)"
    fi
}

sock="$workdir/dse.sock"
"$tool" --listen "$sock" --threads 1 2>server.log &
server=$!
# Generous bind wait: ctest -j on a loaded box can starve the server
# briefly at startup.
for _ in $(seq 600); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "FAIL: server never bound $sock" >&2; cat server.log >&2; exit 1; }

# A successful tiny sweep exits 0.
echo '{"id":"ok","spec":{"width":4,"variants":["sdlc"],"schemes":["ripple"]}}' >good.ndjson
"$tool" --client good.ndjson --socket "$sock" --quiet
check_exit "successful sweep" 0 $?

# A server-side error event (unparseable request) must exit non-zero.
echo 'this is not json' >bad.ndjson
"$tool" --client bad.ndjson --socket "$sock" --quiet
check_exit "parse error from server" 1 $?

# A schema-invalid request (error event with the request's id) too.
echo '{"id":"r","spec":{"width":4},"typo":true}' >invalid.ndjson
"$tool" --client invalid.ndjson --socket "$sock" --quiet
check_exit "invalid request" 1 $?

# A failing request among successes still fails the whole run.
cat >mixed.ndjson <<'EOF'
{"id":"good1","spec":{"width":4,"variants":["sdlc"],"schemes":["ripple"]}}
{"id":"bad1","spec":{"width":99}}
EOF
"$tool" --client mixed.ndjson --socket "$sock" --quiet
check_exit "mixed success + failure" 1 $?

# A deadline-exceeded sweep is a failure to the caller.
echo '{"id":"late","spec":{"width":8},"deadline_ms":1}' >late.ndjson
"$tool" --client late.ndjson --socket "$sock" --quiet
check_exit "deadline exceeded" 1 $?

# An exhaustive cutoff above 16 is rejected at parse time (invalid_request,
# exit 1) instead of starting a 2^48-pair point that neither cancel nor the
# deadline can stop; `timeout` turns a hang into a failure.
echo '{"id":"wide","spec":{"widths":[24]},"eval":{"exhaustive_max_width":24},"deadline_ms":500}' >wide.ndjson
timeout 30 "$tool" --client wide.ndjson --socket "$sock" --quiet 2>/dev/null
check_exit "exhaustive cutoff above 16" 1 $?

# Zero samples would report every sampled point as error-free: rejected at
# parse time (invalid_request, exit 1).
echo '{"id":"nosamples","spec":{"width":12},"eval":{"exhaustive_max_width":10,"samples":"0"}}' >nosamples.ndjson
timeout 30 "$tool" --client nosamples.ndjson --socket "$sock" --quiet 2>/dev/null
check_exit "zero samples" 1 $?

# Two chunked exports multiplexed over one connection: per-id reassembly
# must keep the interleaved streams apart and exit 0.
cat >multi.ndjson <<'EOF'
{"id":"m1","spec":{"width":4,"variants":["sdlc"],"schemes":["ripple"]},"export":true,"chunk_bytes":64}
{"id":"m2","spec":{"width":4,"variants":["sdlc"],"schemes":["wallace"]},"export":true,"chunk_bytes":64}
EOF
"$tool" --client multi.ndjson --socket "$sock" --quiet --output multi.json
check_exit "multiplexed chunked exports" 0 $?
if [ ! -s multi.json ]; then
    echo "FAIL: multiplexed chunked export produced no output file" >&2
    failures=$((failures + 1))
fi

# Chunked export reassembly still exits 0 and writes the payload.
echo '{"id":"chunky","spec":{"width":4,"variants":["sdlc"],"schemes":["ripple"]},"export":true,"chunk_bytes":128}' >chunky.ndjson
"$tool" --client chunky.ndjson --socket "$sock" --quiet --output chunked.json
rc=$?
check_exit "chunked export" 0 $rc
if [ ! -s chunked.json ]; then
    echo "FAIL: chunked export produced no output file" >&2
    failures=$((failures + 1))
fi

# --scrape robustness: a healthy server yields clean exposition text (0)
# carrying the uptime/build_info gauges; pointing serve_tool's scraper at an
# endpoint speaking another dialect is a transport-grade failure (3).
"$tool" --scrape --socket "$sock" >scrape.txt
check_exit "scrape healthy server" 0 $?
grep -q '^sdlc_serve_build_info{version=' scrape.txt || {
    echo "FAIL: scrape output lacks sdlc_serve_build_info" >&2
    failures=$((failures + 1))
}
grep -q '^sdlc_serve_uptime_seconds ' scrape.txt || {
    echo "FAIL: scrape output lacks sdlc_serve_uptime_seconds" >&2
    failures=$((failures + 1))
}
# The foreign endpoint: a one-shot listener that answers any request line
# with JSON carrying no "event" field.
xsock="$workdir/xwire.sock"
python3 - "$xsock" <<'PY' &
import socket, sys
srv = socket.socket(socket.AF_UNIX)
srv.bind(sys.argv[1])
srv.listen(1)
conn, _ = srv.accept()
conn.recv(65536)
conn.sendall(b'{"id": "x", "ok": true}\n')
conn.close()
PY
xwire=$!
for _ in $(seq 600); do [ -S "$xsock" ] && break; sleep 0.1; done
timeout 30 "$tool" --scrape --socket "$xsock" 2>/dev/null
check_exit "serve scrape against foreign endpoint" 3 $?
kill "$xwire" 2>/dev/null
wait "$xwire" 2>/dev/null

echo '{"id":"q","type":"shutdown"}' >quit.ndjson
"$tool" --client quit.ndjson --socket "$sock" --quiet
check_exit "shutdown request" 0 $?
wait "$server"
check_exit "server exit" 0 $?

# Transport failure: nothing listens here any more.
"$tool" --client good.ndjson --socket "$sock" --quiet 2>/dev/null
check_exit "connect to dead socket" 3 $?

# Usage errors are exit 2, even for malformed numeric option values.
"$tool" --request-workers abc </dev/null 2>/dev/null
check_exit "non-numeric option value" 2 $?
"$tool" --client good.ndjson 2>/dev/null
check_exit "client without destination" 2 $?

# stdio mode answers an unterminated over-long line with too_large and
# logs it like the socket transports do.
head -c 5000 /dev/zero | tr '\0' x |
    "$tool" --max-request-bytes 100 --access-log stdio_access.log >stdio_big.txt
check_exit "stdio oversized line" 0 $?
grep -q '"code": "too_large"' stdio_big.txt || {
    echo "FAIL: stdio oversized line got no too_large event" >&2
    failures=$((failures + 1))
}
too_large_lines=$(grep -c '"outcome": "too_large"' stdio_access.log)
if [ "${too_large_lines:-0}" -ne 1 ]; then
    echo "FAIL: stdio access log has $too_large_lines too_large lines, want 1" >&2
    failures=$((failures + 1))
else
    echo "ok: stdio oversized line logged"
fi

# Cluster flag usage contract, serve_tool: malformed worker specs, shard
# knobs without a worker list, and cluster flags in client/scrape mode are
# usage errors (2) before anything binds or runs.
"$tool" --workers "no-port-here" </dev/null 2>/dev/null
check_exit "malformed worker spec" 2 $?
"$tool" --workers "unix:" </dev/null 2>/dev/null
check_exit "empty unix worker path" 2 $?
"$tool" --workers "," </dev/null 2>/dev/null
check_exit "empty worker list" 2 $?
"$tool" --shards 8 </dev/null 2>/dev/null
check_exit "shards without workers" 2 $?
"$tool" --shard-timeout-ms 100 </dev/null 2>/dev/null
check_exit "shard timeout without workers" 2 $?
"$tool" --shard-retries 1 </dev/null 2>/dev/null
check_exit "shard retries without workers" 2 $?
"$tool" --workers unix:w.sock --shards 0 </dev/null 2>/dev/null
check_exit "zero shards" 2 $?
"$tool" --workers unix:w.sock --shards abc </dev/null 2>/dev/null
check_exit "non-numeric shards" 2 $?
"$tool" --client good.ndjson --socket "$sock" --workers unix:w.sock 2>/dev/null
check_exit "workers in client mode" 2 $?
"$tool" --scrape --socket "$sock" --shards 4 2>/dev/null
check_exit "shards in scrape mode" 2 $?

# Observability flag usage contract: --access-log and --trace-out are
# server-side options; dangling values are usage errors.
"$tool" --client good.ndjson --socket "$sock" --access-log a.log 2>/dev/null
check_exit "access log in client mode" 2 $?
"$tool" --scrape --socket "$sock" --trace-out t.json 2>/dev/null
check_exit "trace out in scrape mode" 2 $?
"$tool" --access-log 2>/dev/null
check_exit "access log without value" 2 $?
"$dse" --trace-out 2>/dev/null
check_exit "dse_tool trace-out without value" 2 $?
timeout 30 "$dse" --width 20 --exhaustive-max-width 20 >/dev/null 2>&1
check_exit "dse_tool exhaustive cutoff above 16" 2 $?
"$dse" --exhaustive-max-width -1 >/dev/null 2>&1
check_exit "dse_tool negative exhaustive cutoff" 2 $?
timeout 30 "$dse" --width 12 --exhaustive-max-width 10 --samples 0 >/dev/null 2>&1
check_exit "dse_tool zero samples" 2 $?

# sdlc eval: bad sample counts and an exhaustive width above 16 are usage
# errors before any evaluation; `timeout` turns a runaway loop into a
# failure.
timeout 30 "$sdlc" eval --width 16 --samples 0 >/dev/null 2>&1
check_exit "sdlc eval zero samples" 2 $?
timeout 30 "$sdlc" eval --width 16 --samples -5 >/dev/null 2>&1
check_exit "sdlc eval negative samples" 2 $?
timeout 30 "$sdlc" eval --width 16 --samples 5000000000 >/dev/null 2>&1
check_exit "sdlc eval samples out of range" 2 $?
timeout 30 "$sdlc" eval --exhaustive --width 20 >/dev/null 2>&1
check_exit "sdlc eval exhaustive width above 16" 2 $?

# The command-line contract of every binary: a misspelt option, a missing
# value, or a value that does not parse whole and in range exits 2 with an
# error line and the usage text, before any sweep or table runs.
check_usage() { # name command...
    local name="$1"
    shift
    timeout 30 "$@" >/dev/null 2>usage_err.txt
    local rc=$?
    check_exit "$name" 2 $rc
    if [ "$rc" -eq 2 ] && ! { grep -q '^error: ' usage_err.txt &&
        grep -q -e '^usage' -e '^options:' usage_err.txt; }; then
        echo "FAIL: $name: no error line and usage text on stderr" >&2
        failures=$((failures + 1))
    fi
}
check_usage "dse_tool width with trailing garbage" "$dse" --width 8x
check_usage "dse_tool non-numeric width" "$dse" --width abc
check_usage "dse_tool malformed width range" "$dse" --widths 4-x
check_usage "dse_tool fractional depth" "$dse" --depth-min 2.5
check_usage "dse_tool malformed hex seed" "$dse" --seed 0xzz
check_usage "dse_tool non-numeric filter bound" "$dse" --max-nmed abc
check_usage "dse_tool thread count out of range" "$dse" --threads 99999999999
check_usage "dse_tool sample count above 2^64" "$dse" --samples 99999999999999999999
check_usage "dse_tool negative top" "$dse" --top -1
check_usage "dse_tool unknown distribution" "$dse" --dist gausian
check_usage "sdlc eval misspelt option" "$sdlc" eval --sample 5
check_usage "bench misspelt option" "$bench" --quik
check_usage "bench option without value" "$bench" --csv

# The service's numeric options and --reject-overload are server options
# too: a client or scraper given one is a usage error, malformed or not,
# before it connects (the socket is gone, so a connect would exit 3).
check_usage "threads in client mode" "$tool" --client good.ndjson --socket "$sock" \
    --threads abc --request-workers -5 --max-request-bytes zz
check_usage "request workers in client mode" "$tool" --client good.ndjson --socket "$sock" \
    --request-workers 2
check_usage "queue capacity in client mode" "$tool" --client good.ndjson --socket "$sock" \
    --queue-capacity 8
check_usage "max request bytes in client mode" "$tool" --client good.ndjson --socket "$sock" \
    --max-request-bytes 4096
check_usage "reject overload in client mode" "$tool" --client good.ndjson --socket "$sock" \
    --reject-overload
check_usage "threads in scrape mode" "$tool" --scrape --socket "$sock" --threads 2
check_usage "reject overload in scrape mode" "$tool" --scrape --socket "$sock" --reject-overload

timeout 30 "$sdlc" eval --help >/dev/null 2>&1
check_exit "sdlc eval --help" 0 $?

# Seeds keep strtoull's bases: hex and decimal spellings of one seed export
# the same bytes, and the largest 64-bit seed is accepted.
seed_sweep="--width 12 --exhaustive-max-width 10 --samples 4096 --variants sdlc
    --depth-min 2 --depth-max 2 --schemes ripple"
# shellcheck disable=SC2086
"$dse" $seed_sweep --seed 0x5d1c5eed --json seed_hex.json >/dev/null &&
    "$dse" $seed_sweep --seed 1562140397 --json seed_dec.json >/dev/null &&
    cmp -s seed_hex.json seed_dec.json
check_exit "hex and decimal seeds export the same bytes" 0 $?
# shellcheck disable=SC2086
"$dse" $seed_sweep --seed 18446744073709551615 >/dev/null
check_exit "largest 64-bit seed" 0 $?

# sdlc eval runs the sweep engine: it prints the NMED, MRED and ER that
# dse_tool exports for the same point, exhaustive at width 12 and sampled
# (default seed, 2^18 pairs) at width 16.
eval_matches_export() { # name width sdlc-eval-args...
    local name="$1" width="$2"
    shift 2
    "$dse" --width "$width" --variants sdlc --depth-min 2 --depth-max 2 --schemes ripple \
        --json "point_w$width.json" >/dev/null &&
        "$sdlc" eval --width "$width" --depth 2 "$@" >"eval_w$width.txt" &&
        python3 - "eval_w$width.txt" "point_w$width.json" <<'PY'
import json, sys
printed = {}
for line in open(sys.argv[1]):
    for key in ("MRED (%)", "NMED", "ER (%)"):
        if line.startswith(key + " "):
            printed[key] = line[len(key):].strip()
error = json.load(open(sys.argv[2]))["points"][0]["error"]
exported = {"MRED (%)": "%.5f" % (error["mred"] * 100), "NMED": "%.8f" % error["nmed"],
            "ER (%)": "%.2f" % (error["error_rate"] * 100)}
if printed != exported:
    sys.exit(f"printed {printed}, exported {exported}")
PY
    if [ $? -eq 0 ]; then
        echo "ok: $name"
    else
        echo "FAIL: $name" >&2
        failures=$((failures + 1))
    fi
}
eval_matches_export "sdlc eval matches the width-12 export" 12
eval_matches_export "sdlc eval matches the width-16 export" 16 --samples 262144

# Cluster flag usage contract, dse_tool (exit 2 = usage, before any sweep).
"$dse" --workers "no-port-here" 2>/dev/null
check_exit "dse_tool malformed worker spec" 2 $?
"$dse" --workers "unix:" 2>/dev/null
check_exit "dse_tool empty unix worker path" 2 $?
"$dse" --workers "," 2>/dev/null
check_exit "dse_tool empty worker list" 2 $?
"$dse" --shards 8 2>/dev/null
check_exit "dse_tool shards without workers" 2 $?
"$dse" --shard-timeout-ms 100 2>/dev/null
check_exit "dse_tool shard timeout without workers" 2 $?
"$dse" --shard-retries 1 2>/dev/null
check_exit "dse_tool shard retries without workers" 2 $?
"$dse" --workers unix:w.sock --shards 0 2>/dev/null
check_exit "dse_tool zero shards" 2 $?

# End to end: a coordinator serving a client sweep through one worker
# replica exits 0 all the way down.
wsock="$workdir/worker.sock"
"$tool" --listen "$wsock" --threads 1 2>/dev/null &
worker=$!
for _ in $(seq 600); do [ -S "$wsock" ] && break; sleep 0.1; done
coord="$workdir/coord.sock"
"$tool" --listen "$coord" --threads 1 --workers "unix:$wsock" --shards 2 \
    --access-log coord_access.log 2>/dev/null &
coordinator=$!
for _ in $(seq 600); do [ -S "$coord" ] && break; sleep 0.1; done
"$tool" --client good.ndjson --socket "$coord" --quiet
check_exit "sweep through coordinator" 0 $?
echo '{"id":"q","type":"shutdown"}' >quitc.ndjson
"$tool" --client quitc.ndjson --socket "$coord" --quiet
wait "$coordinator"
check_exit "coordinator exit" 0 $?
# One structured access-log line per request: the sweep and the shutdown.
access_lines=$(wc -l <coord_access.log)
if [ "${access_lines:-0}" -ne 2 ]; then
    echo "FAIL: coordinator access log has $access_lines lines, want 2" >&2
    failures=$((failures + 1))
else
    echo "ok: coordinator access log (2 lines)"
fi
grep -q '"verb": "sweep"' coord_access.log || {
    echo "FAIL: access log lacks the sweep line" >&2
    failures=$((failures + 1))
}
"$tool" --client quitc.ndjson --socket "$wsock" --quiet
wait "$worker"
check_exit "worker exit" 0 $?

# ---- HTTP front door: negatives over raw sockets + usage contract ----

# Raw HTTP/1.1 exchange over /dev/tcp; requests carry Connection: close so
# the server ends the response with EOF and `cat` terminates. Connects are
# retried briefly: under `ctest -j` load the accept loop can lag a moment.
http_exchange() { # port payload
    for _ in $(seq 50); do
        if exec 3<>"/dev/tcp/127.0.0.1/$1"; then
            printf '%s' "$2" >&3
            cat <&3
            exec 3<&- 3>&-
            return 0
        fi
        sleep 0.1
    done 2>/dev/null
    return 1
}
check_http() { # name expected_status response
    status=$(printf '%s' "$3" | head -n1 | tr -d '\r' | cut -d' ' -f2)
    if [ "${status:-none}" != "$2" ]; then
        echo "FAIL: $1: expected HTTP $2, got ${status:-<none>}" >&2
        failures=$((failures + 1))
    else
        echo "ok: $1 (HTTP $status)"
    fi
}
CRLF=$'\r\n'

printf 'contract-secret\n' >token.txt
hsock="$workdir/http.sock"
"$tool" --listen "$hsock" --threads 1 --listen-http 127.0.0.1:0 \
    --auth-token-file token.txt --quota-rps 0.001 --quota-burst 1 \
    2>http_server.log &
http_server=$!
hport=""
for _ in $(seq 600); do
    hport=$(sed -n 's/^serve_tool: http listening on tcp:127\.0\.0\.1:\([0-9]*\)$/\1/p' http_server.log)
    [ -n "$hport" ] && break
    sleep 0.1
done
if [ -z "$hport" ]; then
    echo "FAIL: HTTP listener never reported its port" >&2
    cat http_server.log >&2
    failures=$((failures + 1))
else
    # /healthz needs no token; everything else without one is 401.
    resp=$(http_exchange "$hport" "GET /healthz HTTP/1.1${CRLF}Host: x${CRLF}Connection: close${CRLF}${CRLF}")
    check_http "healthz without token" 200 "$resp"
    resp=$(http_exchange "$hport" "GET /metrics HTTP/1.1${CRLF}Host: x${CRLF}Connection: close${CRLF}${CRLF}")
    check_http "metrics without token" 401 "$resp"
    printf '%s' "$resp" | grep -qi '^www-authenticate: Bearer' || {
        echo "FAIL: 401 lacks a WWW-Authenticate challenge" >&2
        failures=$((failures + 1))
    }
    body='{"id":"h1","spec":{"width":4,"variants":["sdlc"],"schemes":["ripple"]}}'
    post="POST /v1/sweep HTTP/1.1${CRLF}Host: x${CRLF}Connection: close${CRLF}Content-Length: ${#body}${CRLF}"
    resp=$(http_exchange "$hport" "${post}${CRLF}${body}")
    check_http "sweep without token" 401 "$resp"
    # Wrong method / unknown path, authenticated.
    auth="Authorization: Bearer contract-secret${CRLF}"
    resp=$(http_exchange "$hport" "GET /v1/sweep HTTP/1.1${CRLF}Host: x${CRLF}${auth}Connection: close${CRLF}${CRLF}")
    check_http "sweep with wrong method" 405 "$resp"
    resp=$(http_exchange "$hport" "GET /no/such HTTP/1.1${CRLF}Host: x${CRLF}${auth}Connection: close${CRLF}${CRLF}")
    check_http "unknown path" 404 "$resp"
    # First authenticated sweep is admitted and completes...
    resp=$(http_exchange "$hport" "${post}${auth}${CRLF}${body}")
    check_http "authenticated sweep" 200 "$resp"
    printf '%s' "$resp" | grep -q '"ok": true' || {
        echo "FAIL: admitted sweep did not stream a done event" >&2
        failures=$((failures + 1))
    }
    # ...and the drained token bucket sheds the next one with Retry-After,
    # leaking no sweep events.
    resp=$(http_exchange "$hport" "${post}${auth}${CRLF}${body}")
    check_http "quota-shed sweep" 429 "$resp"
    printf '%s' "$resp" | grep -qi '^retry-after: [0-9]' || {
        echo "FAIL: 429 lacks a Retry-After hint" >&2
        failures=$((failures + 1))
    }
    printf '%s' "$resp" | grep -q '"event"' && {
        echo "FAIL: quota-shed response leaked sweep events" >&2
        failures=$((failures + 1))
    }
    # The stock scraper path: exit 0 with the token, 3 without.
    "$tool" --scrape --http "127.0.0.1:$hport" --auth-token-file token.txt >/dev/null
    check_exit "HTTP scrape with token" 0 $?
    "$tool" --scrape --http "127.0.0.1:$hport" 2>/dev/null
    check_exit "HTTP scrape without token" 3 $?
fi
echo '{"id":"q","type":"shutdown"}' >quith.ndjson
"$tool" --client quith.ndjson --socket "$hsock" --quiet
wait "$http_server"
check_exit "HTTP server exit" 0 $?

# Usage contract for the HTTP flags: every misuse is exit 2 before
# anything binds.
"$tool" --http 127.0.0.1:1 </dev/null 2>/dev/null
check_exit "--http without --scrape" 2 $?
"$tool" --quota-rps 5 </dev/null 2>/dev/null
check_exit "quota-rps without --listen-http" 2 $?
"$tool" --listen-http 127.0.0.1:0 --quota-burst 5 </dev/null 2>/dev/null
check_exit "quota-burst without quota-rps" 2 $?
"$tool" --auth-token-file token.txt </dev/null 2>/dev/null
check_exit "auth token file without HTTP endpoint" 2 $?
"$tool" --listen-http 127.0.0.1:0 --quota-rps abc </dev/null 2>/dev/null
check_exit "non-numeric quota-rps" 2 $?
"$tool" --listen-http 127.0.0.1:0 --quota-rps 0 </dev/null 2>/dev/null
check_exit "zero quota-rps" 2 $?
"$tool" --listen-http nonsense </dev/null 2>/dev/null
check_exit "malformed --listen-http endpoint" 2 $?
"$tool" --listen-http 127.0.0.1:0 --auth-token-file "$workdir/no-such-token" </dev/null 2>/dev/null
check_exit "unreadable auth token file" 2 $?
"$tool" --scrape --http 127.0.0.1:0 2>/dev/null
check_exit "HTTP scrape of port 0" 2 $?
"$tool" --client good.ndjson --tcp 127.0.0.1:0 2>/dev/null
check_exit "client connect to port 0" 2 $?

exit "$failures"
