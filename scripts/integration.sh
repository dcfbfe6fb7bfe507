#!/usr/bin/env bash
# Integration drill for the durability + repair + multi-writer subsystems,
# against real binaries and real processes (the in-process tests cannot
# kill -9):
#
#   1. build storaged/storctl, launch a 4-daemon cluster with data dirs
#   2. storctl put/get + single-register write
#   3. kill -9 one daemon mid-deployment, restart it from its data dir
#      (a WAL replay), verify every key still reads back; then stop it with
#      SIGTERM: it compacts, and the restart boots from the snapshot alone
#   4. wipe a second daemon (machine replacement), restart it blank,
#      storctl repair it from the live quorum, verify its state by probe
#   5. multi-writer drill: restart one daemon Byzantine (-chaos flaky with
#      -chaos-drop), hammer ONE key from two concurrent storctl put
#      processes with distinct -writer identities, then certify by quorum
#      read that exactly one of the written values survived
#   6. coalesced-read drill: storctl getburst re-reads the pipelined burst
#      against a -chaos flaky daemon that is kill -9'd mid-flight
#   7. live replace drill: daemon 4 Leaves the configuration, is kill -9'd,
#      and a fresh daemon Joins on a NEW port — all while a write burst and
#      a read burst are in flight with zero failed ops
#   8. kill a third daemon and verify reads still certify
#
# Every drill ends with storctl doctor: no register anywhere may hold two
# values at one timestamp. The deployment is sized for four client processes
# (-readers 4), and storctl processes that run at the same time — operator
# commands included — each take their own -writer id.
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

ports=(7101 7102 7103 7104)
servers="127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103,127.0.0.1:7104"

debug_ports=(8101 8102 8103 8104)

start_daemon() { # $1 = object id; remaining args pass through (e.g. -chaos)
  local id=$1
  shift
  # Rotate the log: wait_serving greps for "serving", which must come from
  # THIS launch, not a previous lifetime's line.
  [ -f "$workdir/s$id.log" ] && mv "$workdir/s$id.log" "$workdir/s$id.log.prev"
  "$workdir/bin/storaged" -id "$id" -addr "127.0.0.1:${ports[$((id - 1))]}" \
    -debug-addr "127.0.0.1:${debug_ports[$((id - 1))]}" \
    -data-dir "$workdir/data/s$id" -fsync batch "$@" >"$workdir/s$id.log" 2>&1 &
  pids[$id]=$!
  disown "${pids[$id]}" # silence bash's job-control obituaries for kill -9
}

wait_serving() { # $1 = object id
  local id=$1
  for _ in $(seq 1 100); do
    grep -q "serving" "$workdir/s$id.log" 2>/dev/null && return 0
    sleep 0.05
  done
  echo "FAIL: daemon $id never came up"; cat "$workdir/s$id.log"; exit 1
}

echo "== launch 4 durable daemons"
for id in 1 2 3 4; do start_daemon "$id"; done
for id in 1 2 3 4; do wait_serving "$id"; done

ctl() { "$workdir/bin/storctl" -servers "$servers" -t 1 -shards 8 -readers 4 "$@"; }

doctor() { # $1 = the drill it closes; fails on any diverged pair
  ctl doctor >"$workdir/doctor.out" || { echo "FAIL: doctor after $1:"; cat "$workdir/doctor.out"; exit 1; }
  grep -q "OK doctor" "$workdir/doctor.out" || { echo "FAIL: doctor output after $1:"; cat "$workdir/doctor.out"; exit 1; }
}

echo "== populate"
for i in $(seq 1 8); do ctl put "key:$i" "value-$i" >/dev/null; done
ctl write "register-payload" >/dev/null

echo "== obs: /metrics + /debug/vars + pprof + storctl stats"
# The populate traffic above must already show up in daemon 1's counters.
curl -sf "http://127.0.0.1:8101/metrics" >"$workdir/metrics.out"
grep -q '^tcpnet_server_requests_total [1-9]' "$workdir/metrics.out" || {
  echo "FAIL: /metrics missing live request counter:"; head -30 "$workdir/metrics.out"; exit 1
}
grep -q '^persist_wal_appends_total [1-9]' "$workdir/metrics.out" || {
  echo "FAIL: /metrics missing WAL append counter:"; head -30 "$workdir/metrics.out"; exit 1
}
curl -sf "http://127.0.0.1:8101/debug/vars" | grep -q '"tcpnet_server_requests_total"' || {
  echo "FAIL: /debug/vars missing counters"; exit 1
}
curl -sf "http://127.0.0.1:8101/debug/pprof/cmdline" >/dev/null || {
  echo "FAIL: /debug/pprof unreachable"; exit 1
}
"$workdir/bin/storctl" stats 127.0.0.1:8101 127.0.0.1:8102 127.0.0.1:8103 127.0.0.1:8104 >"$workdir/stats.out"
grep -q 'tcpnet_server_requests_total' "$workdir/stats.out" || {
  echo "FAIL: storctl stats table:"; cat "$workdir/stats.out"; exit 1
}

echo "== kill -9 daemon 2 mid-deployment"
kill -9 "${pids[2]}"
ctl put "during:downtime" "still-writable" >/dev/null # 3 live objects = S-t

echo "== restart daemon 2 from its data dir (replays its WAL)"
# A crash leaves the log behind: the restart below is a replay of wire-frame
# records, not a snapshot load.
[ -n "$(find "$workdir/data/s2" -name 'wal-*.log' -size +0)" ] || {
  echo "FAIL: killed daemon 2 left no WAL records to replay:"; ls -l "$workdir/data/s2"; exit 1
}
start_daemon 2
wait_serving 2
for i in $(seq 1 8); do
  out=$(ctl get "key:$i")
  [[ "$out" == "\"value-$i\""* ]] || { echo "FAIL: key:$i => $out"; exit 1; }
done
out=$(ctl get "during:downtime")
[[ "$out" == '"still-writable"'* ]] || { echo "FAIL: downtime key => $out"; exit 1; }
# The restarted daemon recovered state from disk, not a blank slate.
probe=$(ctl probe 2)
if grep -q "reg 0: pw=(0" <<<"$probe"; then
  echo "FAIL: daemon 2 restarted blank:"; echo "$probe"; exit 1
fi

doctor "kill -9 + WAL replay"

echo "== graceful stop of daemon 2: SIGTERM compacts, the restart boots from the snapshot"
# A planned stop must leave nothing to replay: a snapshot, and no records in
# any WAL generation the snapshot does not already cover.
kill -TERM "${pids[2]}"
for _ in $(seq 1 100); do
  kill -0 "${pids[2]}" 2>/dev/null || break
  sleep 0.05
done
if kill -0 "${pids[2]}" 2>/dev/null; then echo "FAIL: daemon 2 ignored SIGTERM"; exit 1; fi
snap=$(find "$workdir/data/s2" -name 'snap-*.snap' | sort | tail -1)
[ -n "$snap" ] || { echo "FAIL: graceful stop left no snapshot:"; ls -l "$workdir/data/s2"; exit 1; }
snapgen=$(basename "$snap" .snap)
snapgen=${snapgen#snap-}
for wal in $(find "$workdir/data/s2" -name 'wal-*.log' -size +0); do
  gen=$(basename "$wal" .log)
  if [[ "${gen#wal-}" < "$snapgen" ]]; then # generations are zero-padded: string order is numeric order
    echo "FAIL: graceful stop left records older than snapshot $snapgen:"; ls -l "$workdir/data/s2"; exit 1
  fi
done
start_daemon 2
wait_serving 2
for i in $(seq 1 8); do
  out=$(ctl get "key:$i")
  [[ "$out" == "\"value-$i\""* ]] || { echo "FAIL: after graceful restart key:$i => $out"; exit 1; }
done
probe=$(ctl probe 2)
if grep -q "reg 0: pw=(0" <<<"$probe"; then
  echo "FAIL: daemon 2 booted blank from its snapshot:"; echo "$probe"; exit 1
fi

doctor "graceful stop + snapshot boot"

echo "== replace daemon 3 (wipe + blank restart + quorum repair)"
kill -9 "${pids[3]}"
rm -rf "$workdir/data/s3"
start_daemon 3
wait_serving 3
ctl repair 3
probe=$(ctl probe 3)
if grep -q "reg 0: pw=(0" <<<"$probe"; then
  echo "FAIL: repair left daemon 3 blank:"; echo "$probe"; exit 1
fi

doctor "wipe + repair"

echo "== multi-writer drill: concurrent puts to ONE key under -chaos-drop"
# Daemon 1 turns Byzantine-flaky: it drops about half its replies. The
# multi-writer protocol must still let two independent processes write
# concurrently and certify the outcome (t=1 budget covers the flaky object).
kill -9 "${pids[1]}"
start_daemon 1 -chaos flaky -chaos-drop 0.5 -chaos-seed 42
wait_serving 1
mwkey="mw:contended"
(for i in $(seq 1 6); do
  ctl -writer 1 put "$mwkey" "A-$i" >/dev/null
done) &
wa=$!
(for i in $(seq 1 6); do
  ctl -writer 2 put "$mwkey" "B-$i" >/dev/null
done) &
wb=$!
wait "$wa" "$wb"
# The quorum read must certify one of the two final writes: every earlier
# value of a writer is dominated by that writer's own later timestamps.
out=$(ctl -writer 1 get "$mwkey")
[[ "$out" == '"A-6"'* || "$out" == '"B-6"'* ]] || {
  echo "FAIL: contended key => $out (want A-6 or B-6)"; exit 1
}
# Both identities observe the same certified value.
out2=$(ctl -writer 2 get "$mwkey")
[[ "${out2%% *}" == "${out%% *}" ]] || {
  echo "FAIL: readers disagree after quiescence: $out vs $out2"; exit 1
}

echo "== restore daemon 1 to honest (budget back to t=1 for the next drill)"
kill -9 "${pids[1]}"
start_daemon 1
wait_serving 1

doctor "multi-writer"

echo "== pipelined burst: kill -9 + restart a daemon mid-flight"
# storctl burst drives many concurrent puts through ONE pipelined connection
# set (batched cross-shard frames, request-id multiplexing). Daemon 2 dies
# by kill -9 while the burst is in flight: the mux must fail that
# connection's in-flight rounds without stalling the rest, the quorum of 3
# live daemons absorbs the loss, and after restart the redial folds daemon 2
# back in. Every key of the burst must read back afterwards.
burstn=600
# -trace 1 traces every op: if the burst fails, the failed ops' round-level
# anatomy (which objects answered, what each reply bundle carried) dumps to
# burst.out next to the error.
ctl -trace 1 -writer 1 burst "burst" "$burstn" >"$workdir/burst.out" 2>&1 &
burst_pid=$!
sleep 0.15
kill -9 "${pids[2]}"
sleep 0.2
start_daemon 2
wait_serving 2
wait "$burst_pid" || { echo "FAIL: burst errored:"; cat "$workdir/burst.out"; exit 1; }
grep -q "OK burst" "$workdir/burst.out" || { echo "FAIL: burst output:"; cat "$workdir/burst.out"; exit 1; }
for i in 1 $((burstn / 2)) $burstn; do
  out=$(ctl get "burst:$i")
  [[ "$out" == "\"v$i\""* ]] || { echo "FAIL: burst:$i => $out"; exit 1; }
done

doctor "pipelined burst"

echo "== flaky daemon: burst must survive sub-bundle drops"
# Restart daemon 1 flaky: 30% of its replies — and of the sub-replies of its
# batched replies, which it answers one by one — silently vanish. The t=1
# budget covers it; a second burst must still complete and certify.
kill -9 "${pids[1]}"
start_daemon 1 -chaos flaky -chaos-drop 0.3 -chaos-seed 7
wait_serving 1
ctl -trace 1 -writer 1 burst "chaosburst" 120 >"$workdir/chaosburst.out" 2>&1 || {
  echo "FAIL: chaos burst errored (per-op round traces follow):"
  cat "$workdir/chaosburst.out"; exit 1
}
out=$(ctl get "chaosburst:120")
[[ "$out" == '"v120"'* ]] || { echo "FAIL: chaosburst:120 => $out"; exit 1; }

echo "== coalesced-read burst vs the flaky daemon, kill -9 mid-flight"
# getburst re-reads every key of the pipelined burst: 16 workers through ONE
# store, so Gets landing on a shard with a read already in flight share the
# next one's rounds. Daemon 1 is still dropping 30% of its reply sub-bundles;
# mid-flight it is kill -9'd and restarted honest. Every certified v<i>
# must still come back: elision refuses while the quorum view is disturbed
# and the 4-round fallback carries the reads.
ctl -trace 1 -writer 2 getburst "burst" "$burstn" >"$workdir/getburst.out" 2>&1 &
getburst_pid=$!
sleep 0.1
kill -9 "${pids[1]}"
sleep 0.2
start_daemon 1
wait_serving 1
wait "$getburst_pid" || { echo "FAIL: getburst errored:"; cat "$workdir/getburst.out"; exit 1; }
grep -q "OK getburst" "$workdir/getburst.out" || { echo "FAIL: getburst output:"; cat "$workdir/getburst.out"; exit 1; }

doctor "flaky daemon + coalesced-read burst"

echo "== live replace drill: leave + kill -9 + join on a new port under fire"
# Membership churn under load: while a write burst and a read burst hammer
# the cluster, daemon 4 Leaves the configuration and is kill -9'd, and a
# fresh daemon on a NEW port (blank data dir) Joins the vacant slot with
# migrated state. Both bursts must complete with ZERO failed client ops —
# the clients chase the wrong-epoch redirect to the new configuration
# transparently — and every later storctl invocation still reaches the
# cluster through the now-stale -servers bootstrap list. Three processes at
# once, three identities: the write burst is 3, the read burst 2, the
# operator's leave and join the default 0.
ctl config >"$workdir/config.out"
grep -q "^epoch 1" "$workdir/config.out" || {
  echo "FAIL: pre-replace config:"; cat "$workdir/config.out"; exit 1
}
ctl -trace 1 -writer 3 burst "livemove" 1200 >"$workdir/livemove.out" 2>&1 &
live_burst=$!
ctl -trace 1 -writer 2 getburst "burst" "$burstn" >"$workdir/livemove-get.out" 2>&1 &
live_get=$!
sleep 0.15
ctl leave 4 >"$workdir/leave.out" || { echo "FAIL: leave:"; cat "$workdir/leave.out"; exit 1; }
kill -9 "${pids[4]}"
mv "$workdir/s4.log" "$workdir/s4.log.old"
"$workdir/bin/storaged" -id 4 -addr "127.0.0.1:7105" -debug-addr "127.0.0.1:8105" \
  -data-dir "$workdir/data/s4b" -fsync batch >"$workdir/s4.log" 2>&1 &
pids[4]=$!
disown "${pids[4]}"
wait_serving 4
ctl join "127.0.0.1:7105" >"$workdir/join.out" || {
  echo "FAIL: join:"; cat "$workdir/join.out"; exit 1
}
wait "$live_burst" || { echo "FAIL: live-replace burst errored:"; cat "$workdir/livemove.out"; exit 1; }
grep -q "OK burst" "$workdir/livemove.out" || { echo "FAIL: live-replace burst output:"; cat "$workdir/livemove.out"; exit 1; }
wait "$live_get" || { echo "FAIL: live-replace getburst errored:"; cat "$workdir/livemove-get.out"; exit 1; }
grep -q "OK getburst" "$workdir/livemove-get.out" || { echo "FAIL: live-replace getburst output:"; cat "$workdir/livemove-get.out"; exit 1; }
# The decided configuration: epoch 3 (leave, then join) with slot 4 moved.
ctl config >"$workdir/config.out"
grep -q "^epoch 3" "$workdir/config.out" || {
  echo "FAIL: post-replace epoch:"; cat "$workdir/config.out"; exit 1
}
grep -q "slot 4: 127.0.0.1:7105" "$workdir/config.out" || {
  echo "FAIL: post-replace slot 4:"; cat "$workdir/config.out"; exit 1
}
# Writes that landed mid-churn and pre-churn keys all read back.
out=$(ctl get "livemove:1200")
[[ "$out" == '"v1200"'* ]] || { echo "FAIL: livemove:1200 => $out"; exit 1; }
out=$(ctl get "key:1")
[[ "$out" == '"value-1"'* ]] || { echo "FAIL: key:1 after replace => $out"; exit 1; }

# doctor dials the daemons directly: from here on, the new membership's.
live_servers="127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103,127.0.0.1:7105"
servers=$live_servers doctor "live replace"

echo "== kill daemon 4: reads must still certify (budget restored by repair)"
kill -9 "${pids[4]}"
out=$(ctl read)
[[ "$out" == '"register-payload"'* ]] || { echo "FAIL: read => $out"; exit 1; }
for i in 1 5 8; do
  out=$(ctl get "key:$i")
  [[ "$out" == "\"value-$i\""* ]] || { echo "FAIL: key:$i => $out"; exit 1; }
done

servers=$live_servers doctor "degraded reads"

if [[ "${TORTURE:-}" == "full" ]]; then
  # Nightly configuration: the full-scale deterministic torture suite —
  # three seeded fault schedules over 224 simulated clients each, every
  # per-key history decided by the atomicity checker. A failure prints the
  # seed and a replay command.
  echo "== full torture suite (TORTURE=full)"
  go test -run TestTortureFull -v -timeout 1800s ./internal/torture/ -args -torture.full
fi

echo "PASS: durability + repair integration"
