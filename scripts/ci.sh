#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, build and the full test suite.
#
# Everything runs offline — all dependencies are path crates vendored
# under vendor/, so no registry access is required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> no Box<dyn Error> in library crates (use ulm_error::UlmError)"
if grep -rnE "Box<dyn (std::error::)?Error" crates/*/src --include="*.rs" | grep -v "^crates/cli/src/main.rs:"; then
    echo "error: library code must use the typed UlmError, not Box<dyn Error>" >&2
    exit 1
fi

echo "==> link constants are read only through crates/model/src/slots.rs"
# Every Step-1 body reads port bandwidths and endpoints through the
# `ArchSlots` tables; delta.rs only compares port identities.
if grep -rn "\.port(" crates/model/src --include="*.rs" |
    grep -vE "^crates/model/src/(slots|delta)\.rs:"; then
    echo "error: a .port( lookup outside slots.rs/delta.rs bypasses the shared link constants" >&2
    exit 1
fi

echo "==> one level of parallelism: mapper and network code starts no threads"
# A search or a network evaluation runs on its caller's thread; the
# callers (the DSE across designs, serve's worker pool) parallelize. Each
# file is cut at its test module (a #[cfg(test)] in column 0): tests may
# run callers side by side.
threads_started=0
for f in $(find crates/mapper/src crates/network/src -name '*.rs' | sort); do
    if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ":" $0 }' "$f" |
        grep -E "thread::(scope|spawn|Builder)"; then
        threads_started=1
    fi
done
if (( threads_started )); then
    echo "error: a mapping search or network evaluation must not start threads; parallelize in its caller" >&2
    exit 1
fi

echo "==> one transport: only the reactor accepts connections"
# `ulm serve` is the epoll reactor, which bounds its connections; no other
# library or binary code runs an accept loop. Each file is cut at its
# test module (a #[cfg(test)] in column 0).
accepts=0
for f in $(find crates/*/src -name '*.rs' -not -path 'crates/reactor/src/*' | sort); do
    if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ":" $0 }' "$f" |
        grep -E "\.(accept|incoming)\("; then
        accepts=1
    fi
done
if (( accepts )); then
    echo "error: only crates/reactor may accept connections; serve TCP through ulm_reactor::Reactor" >&2
    exit 1
fi

echo "==> every pub fn is named outside its own file (reachability floor)"
bash scripts/check_reachable.sh

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q

echo "==> cargo bench --no-run (benches compile)"
cargo bench --workspace --no-run

echo "==> search-equivalence + allocation-free gates (release)"
cargo test --release -q -p ulm-mapper --test search_equivalence --test batch_alloc_free

echo "==> ordering-class walk oracle (release: class walk vs permutation walk)"
cargo test --release -q -p ulm-mapper --test class_walk

echo "==> search_fast oracle (release: the kernel's winner scalars equal search's report, bit for bit)"
cargo test --release -q -p ulm-mapper --test search_fast

echo "==> dse oracle (release: evaluate_design equals the report path on every design of a small pool)"
cargo test --release -q -p ulm-dse --lib explore::tests::evaluate_design_matches_the_report_path

echo "==> dse determinism (release: folded sampled spaces are per thread, so --threads 1 and 3 must print the same front and counters)"
# Only the wall clock may differ. Then the fold oracle proptests: a search
# that reads a fold equals a fresh thread's unfolded search.
mask_wall() { sed -E 's/"wall_ms": ?[0-9.eE+-]+/"wall_ms": 0/'; }
dse_serial="$(target/release/ulm dse --json --stats --threads 1 | mask_wall)"
dse_threaded="$(target/release/ulm dse --json --stats --threads 3 | mask_wall)"
if [[ "$dse_serial" != *'"cache_hits"'* || "$dse_serial" != "$dse_threaded" ]]; then
    echo "error: ulm dse --threads 1 and --threads 3 printed different fronts or counters" >&2
    diff <(echo "$dse_serial") <(echo "$dse_threaded") >&2 || true
    exit 1
fi
cargo test --release -q -p ulm-mapper --test search_fast fold

echo "==> batched-search vs evaluate_ordering reference gate (release)"
cargo test --release -q -p ulm --test batch_equivalence

echo "==> Step-2 union oracle (release: the closed form equals the interval sweep, bit for bit on integral chains of up to 10^4 periods)"
cargo test --release -q -p ulm-periodic --test proptest_union

echo "==> JSON codec oracle + slice-by-8 CRC proptests (release)"
cargo test --release -q -p ulm-serve --test serde_roundtrip
cargo test --release -q -p ulm-serve --lib store::tests

echo "==> cache hit path (release: answers from the answer store are byte-identical; hits never wait on a slow miss)"
cargo test --release -q -p ulm-serve --test hit_path --test slow_miss

echo "==> lowered-IR consistency proptests (release: pins, fusion, KV-cache)"
cargo test --release -q -p ulm --test lowered_consistency

echo "==> shared-search oracle proptests (release: one search per distinct layer shape)"
cargo test --release -q -p ulm-network --test shared_search

echo "==> surrogate-vs-evaluate_fast differential proptests (release)"
cargo test --release -q -p ulm --test surrogate_props

echo "==> batch perf smoke (batched search must beat the evaluate_ordering reference walk)"
cargo run --release -q -p ulm --example batch_perf_smoke

echo "==> reactor serve smoke (epoll transport + durable cache)"
if [[ "$(uname -s)" == "Linux" ]]; then
    cargo build --release -q -p ulm --example reactor_smoke
    SMOKE_TMP="$(mktemp -d)"
    trap 'rm -rf "$SMOKE_TMP"' EXIT
    serve_log="$SMOKE_TMP/serve.log"

    # Starts `ulm serve` on an ephemeral port with its stdin on a
    # fifo we hold open (closing it is the graceful-shutdown signal) and
    # parses the bound address off stderr. Sets SERVE_PID and ADDR.
    start_reactor() {
        local tag="$1"
        shift
        mkfifo "$SMOKE_TMP/stdin.$tag"
        timeout 300 target/release/ulm serve --port 0 --no-timing \
            --shutdown-on-stdin-close --cache-dir "$SMOKE_TMP/cache" "$@" \
            <"$SMOKE_TMP/stdin.$tag" 2>"$serve_log" &
        SERVE_PID=$!
        exec {SERVE_STDIN}>"$SMOKE_TMP/stdin.$tag"
        ADDR=""
        for _ in $(seq 1 100); do
            ADDR="$(sed -nE 's/.*serving NDJSON evaluation requests on (127\.0\.0\.1:[0-9]+).*/\1/p' "$serve_log" | head -n1)"
            [[ -n "$ADDR" ]] && return 0
            sleep 0.1
        done
        echo "error: reactor server never reported its address" >&2
        cat "$serve_log" >&2
        return 1
    }

    # Closes the server's stdin and requires a clean (drained) exit.
    stop_reactor() {
        exec {SERVE_STDIN}>&-
        wait "$SERVE_PID"
        grep -q "drained=true" "$serve_log"
    }

    # Run 1: cold cache — 10k idle connections held open around a working
    # pipelined batch that must be answered fresh (cached:false).
    start_reactor run1
    target/release/examples/reactor_smoke "$ADDR" --idle 10000 --expect-cached false
    stop_reactor

    # Run 2: restart on the same cache dir — the same request must now be
    # answered from the warmed disk cache without re-evaluation — plus a
    # slow client that the idle timeout has to reap.
    start_reactor run2 --idle-timeout-ms 300
    grep -q "warmed 1 entries" "$serve_log"
    target/release/examples/reactor_smoke "$ADDR" --expect-cached true --slow-client-ms 2000
    stop_reactor
else
    echo "    (skipped: the epoll reactor needs Linux)"
fi

echo "==> net cache smoke (a repeated net request is a byte-identical cache hit)"
# One worker, so the stats line runs after both nets.
net_line='{"id":1,"kind":"net","arch":"toy","net":"attention-decode","mapper":{"max_exhaustive":200,"samples":20}}'
net_out="$(printf '%s\n%s\n%s\n' "$net_line" "$net_line" '{"id":2,"kind":"stats"}' |
    target/release/ulm batch --no-timing --parallelism 1 2>/dev/null)"
net_first="$(sed -n 1p <<<"$net_out")"
net_second="$(sed -n 2p <<<"$net_out")"
net_hits="$(sed -n 3p <<<"$net_out" | sed -nE 's/.*"cache":\{"hits":([0-9]+).*/\1/p')"
if [[ "$net_first" != *'"ok":true'* || "$net_first" != "$net_second" ]]; then
    echo "error: a repeated net request did not get an identical answer" >&2
    exit 1
fi
if (( ${net_hits:-0} < 1 )); then
    echo "error: a repeated net request was not answered from the cache (hits=${net_hits:-none})" >&2
    exit 1
fi

echo "==> repeat smoke (search, eval, whatif and surrogate repeats are spliced from the stored answer, byte for byte)"
# Each kind's line three times, then stats; one worker, so stats runs
# last. A repeat must equal the first answer but for its flag: `cached`,
# or `specialized_reused` for a surrogate.
toy_mapping='{"spatial":{"factors":[["K",2],["B",2]]},"stack":{"loops":[{"dim":"C","size":2},{"dim":"C","size":2},{"dim":"C","size":2},{"dim":"B","size":2},{"dim":"K","size":2}]},"allocs":{"values":[{"bounds":[0,5]},{"bounds":[0,5]},{"bounds":[3,5]}]}}'
repeat_lines=(
    'search|cached|{"id":1,"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}'
    "eval|cached|{\"id\":1,\"kind\":\"eval\",\"arch\":\"toy\",\"layer\":\"4x4x8\",\"mapping\":$toy_mapping}"
    'whatif|cached|{"id":1,"kind":"whatif","arch":"case16","layer":"8x16x64","mapper":{"max_exhaustive":200,"samples":20},"set":["mem.GB.bw=2x"]}'
    'surrogate|specialized_reused|{"id":1,"kind":"surrogate","arch":"toy","layer":"4x4x8","template":"4x4x16","mapper":{"max_exhaustive":100,"samples":10}}'
)
for entry in "${repeat_lines[@]}"; do
    IFS='|' read -r kind flag line <<<"$entry"
    repeat_out="$(printf '%s\n%s\n%s\n%s\n' "$line" "$line" "$line" '{"id":2,"kind":"stats"}' |
        target/release/ulm batch --no-timing --parallelism 1 2>/dev/null)"
    repeat_first="$(sed -n 1p <<<"$repeat_out")"
    repeat_second="$(sed -n 2p <<<"$repeat_out")"
    repeat_third="$(sed -n 3p <<<"$repeat_out")"
    if [[ "$repeat_first" != *"\"$flag\":false"* || "$repeat_second" != "$repeat_third" ||
        "$repeat_second" != "${repeat_first/\"$flag\":false/\"$flag\":true}" ]]; then
        echo "error: a repeated $kind did not get the first answer's bytes" >&2
        exit 1
    fi
    if [[ "$kind" == search ]]; then
        search_hits="$(sed -n 4p <<<"$repeat_out" | sed -nE 's/.*"cache":\{"hits":([0-9]+).*/\1/p')"
        if (( ${search_hits:-0} < 2 )); then
            echo "error: repeated searches were not answered from the cache (hits=${search_hits:-none})" >&2
            exit 1
        fi
    fi
done

echo "==> surrogate store smoke (three specialization keys stay resident across rounds)"
# Three keys, sent twice in the same order: every second-round answer must
# come from a stored specialization. One worker, so stats runs last.
surrogate_lines=()
for template in 8x16x64 16x16x64 8x32x64; do
    surrogate_lines+=("{\"kind\":\"surrogate\",\"arch\":\"case16\",\"layer\":\"32x32x64\",\"template\":\"$template\",\"mapper\":{\"max_exhaustive\":200,\"samples\":20}}")
done
surrogate_out="$(printf '%s\n' "${surrogate_lines[@]}" "${surrogate_lines[@]}" '{"kind":"stats"}' |
    target/release/ulm batch --no-timing --parallelism 1 2>/dev/null)"
surrogate_reused="$(sed -n 4,6p <<<"$surrogate_out" | grep -c '"specialized_reused":true' || true)"
surrogate_hits="$(sed -n 7p <<<"$surrogate_out" | sed -nE 's/.*"surrogate":\{"requests":[0-9]+,"hits":([0-9]+).*/\1/p')"
if (( surrogate_reused != 3 )); then
    echo "error: only ${surrogate_reused} of 3 repeated surrogate keys reused their specialization" >&2
    exit 1
fi
if [[ "${surrogate_hits:-}" != 3 ]]; then
    echo "error: /stats reports ${surrogate_hits:-no} surrogate hits, expected 3" >&2
    exit 1
fi

echo "==> batch stats reproducibility (two --parallelism 2 runs print the same bytes)"
# Every request kind once (no two lines share a cache or specialization
# key), a stats line, the memoized kinds again, and a stats line last. A
# stats line runs alone, after the lines before it, so two runs at two
# workers must agree byte for byte, stats included. (`toy_mapping` is the
# repeat smoke's.)
repro_round=(
    '{"id":1,"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}'
    "{\"id\":2,\"kind\":\"eval\",\"arch\":\"toy\",\"layer\":\"4x4x8\",\"mapping\":$toy_mapping}"
    '{"id":3,"kind":"net","arch":"toy","net":"attention-decode","mapper":{"max_exhaustive":200,"samples":20}}'
    '{"id":4,"kind":"whatif","arch":"case16","gb_bw":128,"layer":"8x16x64","mapper":{"max_exhaustive":200,"samples":20},"set":["mem.GB.bw=2x"]}'
    '{"id":5,"kind":"surrogate","arch":"case16","layer":"32x32x64","template":"8x16x64","mapper":{"max_exhaustive":200,"samples":20}}'
)
repro_corpus="$(printf '%s\n' "${repro_round[@]}" \
    '{"id":6,"kind":"surrogate","arch":"case16","layer":"64x32x64","template":"16x16x64","mapper":{"max_exhaustive":200,"samples":20}}' \
    '{"id":7,"kind":"search","arch":"nope","layer":"4x4x8"}' 'not json' '{"id":8,"kind":"stats"}' \
    "${repro_round[@]}" '{"id":9,"kind":"/stats"}')"
repro_first="$(target/release/ulm batch --no-timing --parallelism 2 <<<"$repro_corpus" 2>/dev/null)"
repro_second="$(target/release/ulm batch --no-timing --parallelism 2 <<<"$repro_corpus" 2>/dev/null)"
if [[ "$(tail -n1 <<<"$repro_first")" != *'"kind":"stats"'* ]]; then
    echo "error: the reproducibility corpus did not end with a stats answer" >&2
    exit 1
fi
if [[ "$repro_first" != "$repro_second" ]]; then
    echo "error: two --no-timing --parallelism 2 runs of one corpus printed different bytes" >&2
    diff <(echo "$repro_first") <(echo "$repro_second") >&2 || true
    exit 1
fi

echo "==> attention + fusion smoke (fused vs layer-by-layer differential)"
fused_out="$(target/release/ulm network --net attention-decode --arch fusion --fuse logit+attend@LB)"
base_out="$(target/release/ulm network --net attention-decode --arch fusion)"
grep -q "fused @LB: 1 edge(s)" <<<"$fused_out"
fused_cc="$(sed -nE 's/^network: .*, ([0-9]+) cycles .*/\1/p' <<<"$fused_out")"
base_cc="$(sed -nE 's/^network: .*, ([0-9]+) cycles .*/\1/p' <<<"$base_out")"
if (( fused_cc >= base_cc )); then
    echo "error: fusing logit+attend at the LB did not cut network latency (${fused_cc} vs ${base_cc})" >&2
    exit 1
fi
# An unknown layer in a fuse spec must exit non-zero with a fuse/* code.
fuse_err="$(mktemp)"
if target/release/ulm network --net attention-decode --arch fusion \
    --fuse nope+attend@LB >/dev/null 2>"$fuse_err"; then
    echo "error: ulm network accepted a fusion over an unknown layer" >&2
    exit 1
fi
grep -q "error\[fuse/unknown-layer\]" "$fuse_err"
rm -f "$fuse_err"

echo "==> whatif smoke (incremental delta path vs cold evaluation)"
# --verify re-evaluates the modified design from scratch inside the CLI
# and fails unless the incremental result is bit-identical.
target/release/ulm whatif --arch case16 --layer 64x96x640 \
    --max-exhaustive 2000 --samples 50 \
    --set mem.GB.bw=2x --verify >/dev/null
# A bogus knob path must exit non-zero with a namespaced knob/* code.
whatif_err="$(mktemp)"
if target/release/ulm whatif --arch case16 --layer 64x96x640 \
    --set mem.NOPE.bw=2x >/dev/null 2>"$whatif_err"; then
    echo "error: ulm whatif accepted an unknown memory" >&2
    exit 1
fi
grep -q "error\[knob/unknown-memory\]" "$whatif_err"
rm -f "$whatif_err"

echo "==> calibrate + surrogate smoke (fit, verify, surrogate-vs-full differential)"
CAL_TMP="$(mktemp -d)"
# Fit RealBW constants against sim traces; --verify asserts the applied
# architecture carries exactly the fitted per-port bandwidths.
target/release/ulm calibrate --arch case16 --verify \
    --out "$CAL_TMP/case16.cal.json" >/dev/null
grep -q '"id": "cal-' "$CAL_TMP/case16.cal.json"
# Specialize once, sweep the batch dim; --verify re-derives every point
# through the generic from-scratch path and fails on any bit mismatch —
# both uncalibrated and with the fitted constants applied.
target/release/ulm surrogate --arch case16 --layer 64x96x640 \
    --b-list 16,32,64,128,256 --verify >/dev/null
target/release/ulm surrogate --arch case16 --layer 64x96x640 \
    --calibration "$CAL_TMP/case16.cal.json" --b-list 16,64,256 --verify >/dev/null
# A malformed measurement CSV must exit non-zero with a calibrate/* code.
cal_err="$(mktemp)"
printf 'layer,b,k,c,mem,port,busy_cycles\nl1,4,4,8,GB,notaport,12.5\n' >"$CAL_TMP/bad.csv"
if target/release/ulm calibrate --arch case16 \
    --measurements "$CAL_TMP/bad.csv" >/dev/null 2>"$cal_err"; then
    echo "error: ulm calibrate accepted a malformed measurements CSV" >&2
    exit 1
fi
grep -q "error\[calibrate/" "$cal_err"
rm -rf "$CAL_TMP" "$cal_err"

echo "CI OK"
