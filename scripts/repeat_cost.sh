#!/usr/bin/env bash
# Cost of a repeated serve request, per request kind. For each of eval,
# search, whatif, net and surrogate it pipes 20,000 copies of one
# request, each with its own `id`, through
# `ulm batch --no-timing --parallelism 1`, 3 times, and records the wall
# time per line in microseconds (median and IQR over the runs). The first
# copy is a miss; every other copy is a repeat, so the number is the cost
# of a repeat plus a share of one miss and of process start-up.
#
# The result is one row of BENCH_serve_repeat.json at the repo root,
# stamped with the commit (`git describe --always --dirty`, or
# REPEAT_SHA) and the core count. Rows are keyed by LABEL: a rerun
# replaces the row with its label and keeps the others, so rows measured
# from two builds sit side by side.
#
# Usage: scripts/repeat_cost.sh [label]        (default label: change)
#   ULM=path/to/ulm   the binary to measure (default target/release/ulm,
#                     built first when it is the default)
#   REPEAT_SHA=sha    the commit the row is stamped with, when ULM was
#                     built from another checkout
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:-change}"
lines=20000
runs=3
out=BENCH_serve_repeat.json
if [[ -z "${ULM:-}" ]]; then
    cargo build --release -q -p ulm
    ULM=target/release/ulm
fi
sha="${REPEAT_SHA:-$(git describe --always --dirty)}"

toy_mapping='{"spatial":{"factors":[["K",2],["B",2]]},"stack":{"loops":[{"dim":"C","size":2},{"dim":"C","size":2},{"dim":"C","size":2},{"dim":"B","size":2},{"dim":"K","size":2}]},"allocs":{"values":[{"bounds":[0,5]},{"bounds":[0,5]},{"bounds":[3,5]}]}}'
# Each request without its leading `{"id":N,`.
declare -A request=(
    [eval]="\"kind\":\"eval\",\"arch\":\"toy\",\"layer\":\"4x4x8\",\"mapping\":$toy_mapping}"
    [search]='"kind":"search","arch":"case16","layer":"64x96x640"}'
    [whatif]='"kind":"whatif","arch":"case16","layer":"64x96x640","set":["mem.GB.bw=2x"]}'
    [net]='"kind":"net","arch":"toy","net":"attention-decode"}'
    [surrogate]='"kind":"surrogate","arch":"case16","layer":"128x96x640","template":"64x96x640"}'
)
kinds=(eval search whatif net surrogate)

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Prints "median iqr" of the numbers on stdin (linear-interpolated
# quartiles).
quartiles() {
    sort -g | awk '
        { v[NR] = $1 }
        function q(p,    h, lo) {
            h = (NR - 1) * p + 1; lo = int(h)
            return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        END { printf "%.3f %.3f\n", q(0.5), q(0.75) - q(0.25) }'
}

row="{\"label\":\"$label\",\"sha\":\"$sha\",\"nproc\":$(nproc),\"lines\":$lines,\"runs\":$runs"
for kind in "${kinds[@]}"; do
    input="$tmp/$kind.ndjson"
    awk -v n="$lines" -v body="${request[$kind]}" \
        'BEGIN { for (i = 1; i <= n; i++) printf "{\"id\":%d,%s\n", i, body }' >"$input"
    samples=()
    for _ in $(seq "$runs"); do
        start=$(date +%s%N)
        "$ULM" batch --no-timing --parallelism 1 <"$input" >"$tmp/out" 2>/dev/null
        end=$(date +%s%N)
        if [[ "$(grep -c '"ok":true' "$tmp/out")" != "$lines" ]]; then
            echo "error: not every $kind line was answered" >&2
            exit 1
        fi
        samples+=("$(awk -v ns=$((end - start)) -v n="$lines" 'BEGIN { printf "%.4f", ns / 1000 / n }')")
    done
    read -r median iqr < <(printf '%s\n' "${samples[@]}" | quartiles)
    echo "$label $kind: ${median} us/line (IQR ${iqr}; runs ${samples[*]})"
    row+=",\"${kind}_us\":{\"median\":$median,\"iqr\":$iqr}"
done
row+="}"

# One row per line; keep the other labels' rows.
kept=()
if [[ -f "$out" ]]; then
    while IFS= read -r line; do
        kept+=("$line")
    done < <(grep -E '^    \{"label":' "$out" | sed -E 's/,$//' | grep -v "^    {\"label\":\"$label\"," || true)
fi
{
    echo '{'
    echo "  \"bench\": \"wall time per line of ${lines} identical requests (distinct ids) through ulm batch --no-timing --parallelism 1, median and IQR over ${runs} runs, microseconds; written by scripts/repeat_cost.sh\","
    echo '  "rows": ['
    all=("${kept[@]}" "    $row")
    for i in "${!all[@]}"; do
        sep=","
        (( i == ${#all[@]} - 1 )) && sep=""
        echo "${all[$i]}$sep"
    done
    echo '  ]'
    echo '}'
} >"$out.tmp"
mv "$out.tmp" "$out"
echo "==> $out"
cat "$out"
