#!/usr/bin/env bash
# Observability smoke drill: launch a 4-daemon cluster with -debug-addr,
# drive a little traffic, then verify every debug surface end to end:
#
#   1. /metrics serves Prometheus text with live (non-zero) counters
#   2. /debug/vars serves the JSON snapshot
#   3. /debug/pprof answers
#   4. storctl stats scrapes all four daemons into one table
#   5. a traced storctl run against a half-dead cluster dumps per-op round
#      traces on failure (the dump-on-failure path, forced deliberately)
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/bin/" ./cmd/storaged ./cmd/storctl

ports=(7151 7152 7153 7154)
debug_ports=(8151 8152 8153 8154)
servers="127.0.0.1:7151,127.0.0.1:7152,127.0.0.1:7153,127.0.0.1:7154"

echo "== launch 4 daemons with -debug-addr"
for id in 1 2 3 4; do
  "$workdir/bin/storaged" -id "$id" -addr "127.0.0.1:${ports[$((id - 1))]}" \
    -debug-addr "127.0.0.1:${debug_ports[$((id - 1))]}" \
    -data-dir "$workdir/data/s$id" >"$workdir/s$id.log" 2>&1 &
  pids[$id]=$!
  disown "${pids[$id]}" # silence bash's job-control obituaries for kill -9
done
for id in 1 2 3 4; do
  for _ in $(seq 1 100); do
    grep -q "serving" "$workdir/s$id.log" 2>/dev/null && break
    sleep 0.05
  done
done

ctl() { "$workdir/bin/storctl" -servers "$servers" -t 1 -shards 8 "$@"; }

echo "== traffic"
for i in $(seq 1 6); do ctl put "smoke:$i" "v$i" >/dev/null; done
ctl get "smoke:3" >/dev/null
# A client's own read path mix: on a settled shard every read, a handle's
# first included, decides on its first round.
ctl getburst smoke 6 >"$workdir/getburst.out"
grep -Eq 'read path 1/2/4 rounds: [0-9.]+/[0-9.]+/[0-9.]+' "$workdir/getburst.out" || {
  echo "FAIL: getburst did not print its read path mix:"; cat "$workdir/getburst.out"; exit 1
}
cat "$workdir/getburst.out"

echo "== /metrics (Prometheus text, live counters)"
curl -sf "http://127.0.0.1:8151/metrics" >"$workdir/metrics.out"
grep -q '^# TYPE tcpnet_server_requests_total counter' "$workdir/metrics.out" || {
  echo "FAIL: missing TYPE line:"; head -40 "$workdir/metrics.out"; exit 1
}
grep -q '^tcpnet_server_requests_total [1-9]' "$workdir/metrics.out" || {
  echo "FAIL: request counter not live:"; head -40 "$workdir/metrics.out"; exit 1
}
grep -q '^persist_wal_append_us{quantile="0.5"}' "$workdir/metrics.out" || {
  echo "FAIL: WAL latency summary missing:"; head -40 "$workdir/metrics.out"; exit 1
}

grep -q '^server_write_promoted_total [1-9]' "$workdir/metrics.out" || {
  echo "FAIL: no WRITE travelled by reference (value-eliding writes):"; grep '^server_' "$workdir/metrics.out"; exit 1
}

echo "== /debug/vars (JSON snapshot)"
curl -sf "http://127.0.0.1:8151/debug/vars" | grep -q '"counters"' || {
  echo "FAIL: /debug/vars not JSON"; exit 1
}

echo "== /debug/pprof"
curl -sf "http://127.0.0.1:8151/debug/pprof/cmdline" >/dev/null || {
  echo "FAIL: pprof unreachable"; exit 1
}

echo "== storctl stats (4-daemon table)"
"$workdir/bin/storctl" stats \
  127.0.0.1:8151 127.0.0.1:8152 127.0.0.1:8153 127.0.0.1:8154 >"$workdir/stats.out"
grep -q 'tcpnet_server_requests_total' "$workdir/stats.out" || {
  echo "FAIL: stats table missing request counter:"; cat "$workdir/stats.out"; exit 1
}
grep -q 'read path 1/2/4 rounds (ratio)' "$workdir/stats.out" || {
  echo "FAIL: stats table missing the read path mix row:"; cat "$workdir/stats.out"; exit 1
}
grep -q 'suspects (sid:dissent run)' "$workdir/stats.out" || {
  echo "FAIL: stats table missing the suspects row:"; cat "$workdir/stats.out"; exit 1
}
grep -Eq 'writes promoted:spliced:need-value +[0-9]+:[0-9]+:[0-9]+' "$workdir/stats.out" || {
  echo "FAIL: stats table missing the write form row:"; cat "$workdir/stats.out"; exit 1
}
head -5 "$workdir/stats.out"

echo "== dump-on-failure: traced op against a dead quorum must print traces"
kill -9 "${pids[2]}" "${pids[3]}" "${pids[4]}" # 1 of 4 alive: rounds cannot certify
if ctl -trace 1 get "smoke:1" >"$workdir/fail.out" 2>&1; then
  echo "FAIL: get succeeded against a dead quorum"; exit 1
fi
grep -q "failed-op round traces" "$workdir/fail.out" || {
  echo "FAIL: no trace dump on failure:"; cat "$workdir/fail.out"; exit 1
}
grep -Eq '^\s+round 1 ' "$workdir/fail.out" || {
  echo "FAIL: trace dump has no rounds:"; cat "$workdir/fail.out"; exit 1
}

echo "PASS: observability smoke"
