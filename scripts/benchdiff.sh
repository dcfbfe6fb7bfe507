#!/usr/bin/env bash
# benchdiff.sh — compare a fresh benchmark run against the committed
# baseline and fail loudly on hot-path regressions.
#
#   scripts/benchdiff.sh [baseline] [new] [threshold-pct] [obs-threshold-pct]
#
# Defaults: bench_baseline.txt bench.txt 20 10. Both files are `go test
# -bench` output (any -count; the minimum over runs of one benchmark is
# compared — see best() below). Benchmarks present in only one file are
# reported but never fail the diff (new benchmarks appear, machines differ
# in sub-benchmark sets).
#
# Guarded benchmarks: E7 and E9 (the write hot path whose trajectory the
# adaptive-round work reclaimed), E12 (the fast-path/fallback split itself),
# E13 (the pipelined wire transport) and E16 (the adaptive read path:
# write-back elision + read coalescing + certified-table cache) — a
# >threshold% ns/op regression on any of them exits non-zero, so the cost
# silently creeping back fails CI instead of shifting the recorded
# trajectory. E9 and E13 carry the obs instrumentation in their hot path
# (flush counters, latency histograms, per-round RoundStats), so they get
# the tighter obs threshold: the observability layer's overhead budget is
# <10%, and this gate is what enforces it. E13 additionally gates the
# pipelining win itself: the pipelined sub-benchmark must stay at least 3x
# the lock-step baseline's throughput. The adaptive-read win is gated
# absolutely at the end (see the E7 adaptive-read gate below): stable reads
# must stay >=2x under the pre-elision 4-round read, and the marginal cost
# per extra concurrent reader must stay collapsed.
#
# benchstat is used for the human-readable report when installed; the
# pass/fail decision is computed with awk so the gate needs nothing beyond
# POSIX tools + bash.
set -euo pipefail

baseline=${1:-bench_baseline.txt}
new=${2:-bench.txt}
threshold=${3:-20}
obs_threshold=${4:-10} # instrumented E9/E13: the obs overhead budget

if [[ ! -f "$baseline" ]]; then
    echo "benchdiff: baseline $baseline not found" >&2
    exit 2
fi
if [[ ! -f "$new" ]]; then
    echo "benchdiff: new results $new not found (run 'make bench' first)" >&2
    exit 2
fi

if command -v benchstat >/dev/null 2>&1; then
    benchstat "$baseline" "$new" || true
    echo
fi

# Best (minimum) ns/op per benchmark name: "BenchmarkX/sub-N  <iters>  <ns>
# ns/op ...". The min over a file's runs, not the mean: on shared/virtualized
# runners CPU-steal spikes inflate individual runs by 30%+, and the fastest
# run is the most repeatable estimate of what the code actually costs.
best() {
    awk '$1 ~ /^Benchmark/ && $4 == "ns/op" {
        name = $1
        sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
        if (!(name in min) || $3 + 0 < min[name]) min[name] = $3 + 0
    }
    END { for (n in min) printf "%s %.1f\n", n, min[n] }' "$1"
}

fail=0
while read -r name base_ns; do
    case "$name" in
        BenchmarkE9*|BenchmarkE13*) t=$obs_threshold ;;
        BenchmarkE7*|BenchmarkE12*|BenchmarkE16*) t=$threshold ;;
        *) continue ;;
    esac
    new_ns=$(best "$new" | awk -v n="$name" '$1 == n { print $2 }')
    if [[ -z "$new_ns" ]]; then
        echo "benchdiff: $name: only in baseline (skipped)"
        continue
    fi
    verdict=$(awk -v b="$base_ns" -v n="$new_ns" -v t="$t" 'BEGIN {
        pct = (n - b) / b * 100
        printf "%+.1f%%", pct
        exit (pct > t) ? 1 : 0
    }') && ok=1 || ok=0
    if [[ $ok == 0 ]]; then
        echo "benchdiff: REGRESSION $name: $base_ns -> $new_ns ns/op ($verdict > ${t}%)"
        fail=1
    else
        echo "benchdiff: ok $name: $base_ns -> $new_ns ns/op ($verdict, gate ${t}%)"
    fi
done < <(best "$baseline" | sort)

# Surface benchmarks that exist only in the new run (informational).
comm -13 <(best "$baseline" | cut -d' ' -f1 | sort) <(best "$new" | cut -d' ' -f1 | sort) |
    while read -r name; do echo "benchdiff: $name: new benchmark (no baseline)"; done

# E13 gate: pipelined throughput must stay >= 3x lock-step in the NEW run.
pipe=$(best "$new" | awk '$1 == "BenchmarkE13PipelinedStorePut/pipelined" { print $2 }')
lock=$(best "$new" | awk '$1 == "BenchmarkE13PipelinedStorePut/lockstep" { print $2 }')
if [[ -n "$pipe" && -n "$lock" ]]; then
    if awk -v p="$pipe" -v l="$lock" 'BEGIN { exit (l / p >= 3) ? 0 : 1 }'; then
        speedup=$(awk -v p="$pipe" -v l="$lock" 'BEGIN { printf "%.1fx", l / p }')
        echo "benchdiff: ok E13 pipelining speedup: lock-step $lock -> pipelined $pipe ns/op ($speedup >= 3x)"
    else
        echo "benchdiff: REGRESSION E13: pipelined ($pipe ns/op) is not >=3x faster than lock-step ($lock ns/op)"
        fail=1
    fi
fi

# Adaptive-read gate: the hit/elision/coalescing win must hold in the NEW
# run (stable reads take 1 round since the fast hit, 2 before it; the gate
# counts nanoseconds, not rounds, so either clears it), measured against the
# pre-adaptive (always-4-round) read path's recorded minima — hardcoded here, NOT read from the baseline file, because the
# committed baseline now bakes the adaptive numbers in and a drifting
# reference would let the win erode silently.
#
#   ref1/ref8: E7LiveRead/t=1 R=1/R=8 minima from the last pre-adaptive
#   baseline (4-round reads, per-Get reader checkout, full decode per Get).
#
# Two conditions:
#   1. Stable single-reader reads at least 2x faster than the 4-round path
#      (fast hit + elision + certified-table cache): new R=1 min * 2 <= ref1.
#   2. The linear R-scaling is collapsed (read coalescing): the marginal
#      cost per extra concurrent reader, (R8-R1)/7, must be at most half
#      the pre-adaptive slope. Note R=8's absolute saving exceeds R=1's —
#      adding readers now buys more than it costs.
ref1=20264
ref8=53432
new1=$(best "$new" | awk '$1 == "BenchmarkE7LiveRead/t=1/R=1" { print $2 }')
new8=$(best "$new" | awk '$1 == "BenchmarkE7LiveRead/t=1/R=8" { print $2 }')
if [[ -n "$new1" && -n "$new8" ]]; then
    if awk -v n="$new1" -v r="$ref1" 'BEGIN { exit (n * 2 <= r) ? 0 : 1 }'; then
        speedup=$(awk -v n="$new1" -v r="$ref1" 'BEGIN { printf "%.1fx", r / n }')
        echo "benchdiff: ok adaptive-read stable: $ref1 (4-round ref) -> $new1 ns/op ($speedup >= 2x)"
    else
        echo "benchdiff: REGRESSION adaptive-read: stable R=1 read ($new1 ns/op) is not >=2x under the 4-round reference ($ref1 ns/op)"
        fail=1
    fi
    if awk -v n1="$new1" -v n8="$new8" -v r1="$ref1" -v r8="$ref8" \
        'BEGIN { exit ((n8 - n1) * 2 <= (r8 - r1)) ? 0 : 1 }'; then
        slopes=$(awk -v n1="$new1" -v n8="$new8" -v r1="$ref1" -v r8="$ref8" \
            'BEGIN { printf "%.0f -> %.0f ns/reader", (r8 - r1) / 7, (n8 - n1) / 7 }')
        echo "benchdiff: ok adaptive-read scaling: per-reader slope $slopes (>=2x collapse)"
    else
        echo "benchdiff: REGRESSION adaptive-read: per-reader slope ($new1 -> $new8 ns/op over R=1..8) not collapsed >=2x vs reference ($ref1 -> $ref8)"
        fail=1
    fi
else
    echo "benchdiff: adaptive-read gate skipped (E7LiveRead t=1 R=1/R=8 missing from $new)"
fi

if [[ $fail != 0 ]]; then
    echo "benchdiff: FAILED — hot-path benchmarks regressed beyond ${threshold}%" >&2
    exit 1
fi
echo "benchdiff: all guarded benchmarks within ${threshold}% of baseline"
