#!/usr/bin/env bash
# Golden-file regression for dse_tool's exports: the JSON and CSV exports
# of the canonical width-4 sweep, and three Monte-Carlo sweeps above the
# exhaustive cutoff, must byte-match the fixtures committed under
# tests/golden/. Catches export format drift (field renames, number
# formatting, row-order changes) and any change to a sampled metric in the
# export's 12 significant digits: a change to the seeded draws or to the
# products shows there (eval_engine_test's SampledEngine tests pin the
# accumulation order, to the bit). 5000 samples is 78 blocks of 64 pairs
# and a tail of 8.
#
# The fixtures are legitimate to regenerate ONLY when the export format or
# the sampled estimator changes on purpose:
#   dse_tool --width 4 --json tests/golden/dse_w4.json --csv tests/golden/dse_w4.csv
#   dse_tool --widths 15-17 --schemes ripple --samples 5000 \
#       --json tests/golden/dse_w15_17_sampled.json
#   dse_tool --width 24 --schemes ripple --samples 5000 --dist sparse \
#       --json tests/golden/dse_w24_sampled_sparse.json
#   dse_tool --width 32 --schemes ripple --samples 5000 --dist gaussian \
#       --json tests/golden/dse_w32_sampled_gaussian.json
# Usage: golden_export.sh /path/to/dse_tool /path/to/tests/golden
set -u

dse="${1:?usage: golden_export.sh /path/to/dse_tool /path/to/golden_dir}"
golden="${2:?usage: golden_export.sh /path/to/dse_tool /path/to/golden_dir}"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

"$dse" --width 4 --json "$workdir/out.json" --csv "$workdir/out.csv" >/dev/null || {
    echo "FAIL: width-4 sweep failed" >&2
    exit 1
}

failures=0
for kind in json csv; do
    if cmp -s "$golden/dse_w4.$kind" "$workdir/out.$kind"; then
        echo "ok: $kind export matches golden fixture"
    else
        echo "FAIL: $kind export drifted from tests/golden/dse_w4.$kind:" >&2
        diff "$golden/dse_w4.$kind" "$workdir/out.$kind" | head -20 >&2
        failures=$((failures + 1))
    fi
done

check_sampled() { # fixture dse_tool-args...
    local fixture="$1"
    shift
    if ! "$dse" "$@" --json "$workdir/$fixture" >/dev/null; then
        echo "FAIL: sweep for $fixture failed" >&2
        failures=$((failures + 1))
    elif cmp -s "$golden/$fixture" "$workdir/$fixture"; then
        echo "ok: sampled export matches $fixture"
    else
        echo "FAIL: sampled export drifted from tests/golden/$fixture:" >&2
        diff "$golden/$fixture" "$workdir/$fixture" | head -20 >&2
        failures=$((failures + 1))
    fi
}
check_sampled dse_w15_17_sampled.json --widths 15-17 --schemes ripple --samples 5000
check_sampled dse_w24_sampled_sparse.json --width 24 --schemes ripple --samples 5000 \
    --dist sparse
check_sampled dse_w32_sampled_gaussian.json --width 32 --schemes ripple --samples 5000 \
    --dist gaussian
exit "$failures"
