#!/bin/sh
# One-command CI gate: lint, build, full test suite, then end-to-end
# smokes of the engines, of structured CLI errors for bad count flags
# (--scale, --max-steps, --seeds, --trials, --queue-cap), of explore (each
# sweep checked against its replay oracle), serve (crash recovery, store
# faults, clients that hang up or stall mid-frame, the decode and reply
# memos, one recording per half under load), population, the
# leave-one-out multi campaign and mc (litmus sweeps, private machines'
# schedule-independent reports, a watchdog in a machine run), of the
# perfbench workloads' oracles and of the bench/probe.exe views.
#
#   ./tools/ci.sh
#
# Exits non-zero on the first failing stage.  No stage gates on speed:
# every check here is a correctness check, so a busy host cannot fail it.
# Simulator speed is measured by perfbench/ (see perfbench/README.md).
set -e
cd "$(dirname "$0")/.."

echo "== lint =="
dune build tools/check/lint.exe
./_build/default/tools/check/lint.exe

echo "== build =="
dune build

echo "== test =="
dune runtest

echo "== engine differential: reference vs compiled =="
# The run reports are fully deterministic (no wall-clock in them), so the
# two engines must print byte-identical bytes — instructions, cycles,
# misses, every power figure, program output — for both ISAs.
ENG_DIR=$(mktemp -d)
for eng in reference compiled; do
  dune exec bin/powerfits.exe -- run --benchmarks crc32,sha,qsort \
    --engine "$eng" >"$ENG_DIR/$eng.out"
done
cmp -s "$ENG_DIR/reference.out" "$ENG_DIR/compiled.out" || {
  echo "ci: compiled engine diverges from reference"; exit 1; }
rm -rf "$ENG_DIR"

echo "== negative smoke: bad input is a structured error =="
# A count flag below 1 is bad input: the CLI must refuse each of these
# as a structured invalid-config error with a non-zero exit, never run
# with it and never die on an escaped exception ("Fatal error").  Each
# runs under timeout, so a regression that starts the daemon fails the
# stage instead of hanging it.
dune build bin/powerfits.exe
NEG_DIR=$(mktemp -d)
NEG_OUT="$NEG_DIR/out"
for args in "run crc32 --scale 0" "run crc32 --max-steps 0" \
  "mc --litmus --seeds 0" "inject crc32 --trials 0" \
  "serve --queue-cap 0 --socket $NEG_DIR/pf.sock"; do
  # $args is split into words on purpose
  if timeout 60 ./_build/default/bin/powerfits.exe $args >"$NEG_OUT" 2>&1
  then
    echo "ci: $args exited 0"; cat "$NEG_OUT"; exit 1
  fi
  grep -q "invalid-config" "$NEG_OUT" || {
    echo "ci: $args did not report invalid-config"; cat "$NEG_OUT"; exit 1; }
  if grep -q "Fatal error" "$NEG_OUT"; then
    echo "ci: $args escaped as an exception"; cat "$NEG_OUT"; exit 1
  fi
done
rm -rf "$NEG_DIR"

echo "== explore smoke grid: sweep engine vs replay oracle =="
# explore always evaluates with the single-pass sweep engine.  The smoke
# grid holds both paper points, so --cross-check re-evaluates them with
# the replay engine and exits 5 unless every shared point is
# bit-identical.
dune exec bin/powerfits.exe -- explore --grid smoke --benchmarks crc32,sha \
  --cross-check --jobs 2

echo "== explore dense grid: sweep engine vs replay oracle =="
# The same oracle check on the 1058-geometry dense grid.
dune exec bin/powerfits.exe -- explore --grid dense --benchmarks crc32,sha \
  --cross-check --jobs 2

echo "== serve smoke: crash recovery =="
# Start a daemon armed to die (exit 42) mid-write on its second store
# write, drive it until it crashes, then restart on the same store and
# prove: (a) the committed first entry is served as a cache hit, (b) the
# torn temp file is swept, (c) a hand-corrupted record is quarantined —
# never served — and recomputed.
SERVE_DIR=$(mktemp -d)
SOCK="$SERVE_DIR/pf.sock"
STORE="$SERVE_DIR/store"
dune build bin/powerfits.exe tools/loadgen.exe
PF=./_build/default/bin/powerfits.exe
LOADGEN=./_build/default/tools/loadgen.exe
# the client's connect backoff covers ~0.1s; give the daemon however
# long it needs to bind before driving it
wait_for_sock() {
  i=0
  while [ ! -S "$SOCK" ] && [ "$i" -lt 100 ]; do sleep 0.1; i=$((i+1)); done
  [ -S "$SOCK" ] || { echo "ci: daemon never bound $SOCK"; exit 1; }
}

"$PF" serve --socket "$SOCK" --store "$STORE" \
  --jobs 2 --no-fsync --crash-at 2:mid-write >"$SERVE_DIR/crash.log" 2>&1 &
SERVE_PID=$!
wait_for_sock
# two distinct requests: the second store write trips the injected crash
set +e
"$LOADGEN" --socket "$SOCK" --requests 8 --conns 1 \
  --benchmarks crc32,bitcount >/dev/null 2>&1
wait $SERVE_PID
SERVE_STATUS=$?
set -e
[ "$SERVE_STATUS" -eq 42 ] || {
  echo "ci: expected injected crash exit 42, got $SERVE_STATUS"; cat "$SERVE_DIR/crash.log"; exit 1; }
ls "$STORE"/objects/*.tmp.* >/dev/null 2>&1 || {
  echo "ci: mid-write crash left no torn temp file"; exit 1; }

# corrupt the one committed record so recovery must quarantine it: chop
# the trailing CRC byte — any truncation is detected by construction
REC=$(ls "$STORE"/objects/*.rec | head -n1)
truncate -s -1 "$REC"
# the crashed daemon left its socket file behind; clear it so
# wait_for_sock sees the NEW daemon's bind, not the stale inode
rm -f "$SOCK"

"$PF" serve --socket "$SOCK" --store "$STORE" \
  --jobs 2 --no-fsync --max-requests 12 >"$SERVE_DIR/recover.log" 2>&1 &
SERVE_PID=$!
wait_for_sock
"$LOADGEN" --socket "$SOCK" --requests 12 --conns 2 \
  --benchmarks crc32,bitcount
wait $SERVE_PID
grep -q "quarantined=1" "$SERVE_DIR/recover.log" || {
  echo "ci: recovery did not quarantine the corrupted record"; cat "$SERVE_DIR/recover.log"; exit 1; }
grep -q "swept_temps=1" "$SERVE_DIR/recover.log" || {
  echo "ci: recovery did not sweep the torn temp file"; cat "$SERVE_DIR/recover.log"; exit 1; }
rm -rf "$SERVE_DIR"

echo "== serve smoke: store-fault campaign =="
FAULT_DIR=$(mktemp -d)
dune exec bin/powerfits.exe -- serve --selftest "$FAULT_DIR"
rm -rf "$FAULT_DIR"

echo "== serve smoke: clients that hang up =="
# Twenty clients each send a status frame and hang up without reading
# the reply.  The daemon must survive every one of them (an unignored
# SIGPIPE on the reply's write once ended it with exit 141), count each
# in client_gone, and then answer a normal load run; --max-requests lets
# it stop by itself.
HUP_DIR=$(mktemp -d)
SOCK="$HUP_DIR/pf.sock"
dune build tools/check/hangup.exe
"$PF" serve --socket "$SOCK" --jobs 2 --max-requests 24 \
  >"$HUP_DIR/serve.log" 2>&1 &
SERVE_PID=$!
wait_for_sock
./_build/default/tools/check/hangup.exe --socket "$SOCK" --count 20
kill -0 "$SERVE_PID" 2>/dev/null || {
  echo "ci: daemon died on a client that hung up"; cat "$HUP_DIR/serve.log"; exit 1; }
"$LOADGEN" --socket "$SOCK" --requests 4 --conns 1
wait "$SERVE_PID" || {
  echo "ci: daemon exited non-zero after hang-ups"; cat "$HUP_DIR/serve.log"; exit 1; }
grep -q "client_gone=20 " "$HUP_DIR/serve.log" || {
  echo "ci: hang-ups not counted as client_gone"; cat "$HUP_DIR/serve.log"; exit 1; }
rm -rf "$HUP_DIR"

echo "== serve smoke: a client that stalls mid-frame =="
# A client sends 2 of a frame's 4 header bytes and holds its connection.
# The daemon reads frames on one accept loop, so it must give up on the
# frame at its read deadline (2 s), answer the staller with a
# watchdog-timeout error, and serve a load run queued behind it.  A
# liveness check, not a speed check: the bound is generous.
STALL_DIR=$(mktemp -d)
SOCK="$STALL_DIR/pf.sock"
"$PF" serve --socket "$SOCK" --jobs 2 --max-requests 5 \
  >"$STALL_DIR/serve.log" 2>&1 &
SERVE_PID=$!
wait_for_sock
./_build/default/tools/check/hangup.exe --socket "$SOCK" --stall 30 \
  >"$STALL_DIR/stall.out" &
STALL_PID=$!
i=0
while ! grep -q stalling "$STALL_DIR/stall.out" 2>/dev/null \
  && [ "$i" -lt 100 ]; do sleep 0.1; i=$((i+1)); done
timeout 20 "$LOADGEN" --socket "$SOCK" --requests 4 --conns 1 || {
  echo "ci: a stalled client blocked the daemon"; cat "$STALL_DIR/serve.log"; exit 1; }
wait "$STALL_PID" || {
  echo "ci: the stalled client got no timeout reply"; exit 1; }
wait "$SERVE_PID"
grep -q "timeouts=1 " "$STALL_DIR/serve.log" || {
  echo "ci: the stall was not counted"; cat "$STALL_DIR/serve.log"; exit 1; }
rm -rf "$STALL_DIR"

echo "== serve smoke: decode memo over inline programs =="
# Two generated programs shipped inline beside the named corpus: every
# request must be answered without error, repeated frames must be served
# from the daemon's decode memo (memo_hits in the shutdown line), and
# repeated warm hits from its reply memo (memo_replies).
MEMO_DIR=$(mktemp -d)
SOCK="$MEMO_DIR/pf.sock"
"$PF" serve --socket "$SOCK" --store "$MEMO_DIR/store" --jobs 2 --no-fsync \
  --max-requests 200 >"$MEMO_DIR/serve.log" 2>&1 &
SERVE_PID=$!
wait_for_sock
"$LOADGEN" --socket "$SOCK" --requests 200 --conns 2 --corpus generated:2:7
wait "$SERVE_PID"
grep -Eq "errors=0 .*memo_hits=[1-9].* memo_replies=[1-9]" \
  "$MEMO_DIR/serve.log" || {
  echo "ci: memo smoke saw errors, or no memo hits or replies"
  cat "$MEMO_DIR/serve.log"; exit 1; }
rm -rf "$MEMO_DIR"

echo "== serve smoke: each recording half recorded once under load =="
# Four clients draw 200 requests from the 21 named keys (3 programs x 7
# requests) against a fresh daemon with two workers, so requests that
# need one recording half arrive together.  They must wait for its one
# recording: the shutdown line must count 6 recordings (an ARM and a
# FITS half per program) and 6 replays (each half at 8 KB), and no
# errors.
ONCE_DIR=$(mktemp -d)
SOCK="$ONCE_DIR/pf.sock"
"$PF" serve --socket "$SOCK" --store "$ONCE_DIR/store" --jobs 2 --no-fsync \
  --max-requests 200 >"$ONCE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
wait_for_sock
"$LOADGEN" --socket "$SOCK" --requests 200 --conns 4
wait "$SERVE_PID"
grep -Eq "errors=0 .*trace_recordings=6 .*trace_replays=6 " \
  "$ONCE_DIR/serve.log" || {
  echo "ci: a recording half or a replay ran more than once, or errors"
  cat "$ONCE_DIR/serve.log"; exit 1; }
rm -rf "$ONCE_DIR"

echo "== population smoke: seeded run, jobs-independent digest =="
# A 64-program campaign at two jobs counts: the stdout report (digest,
# calibration, distribution, every table) must be byte-identical — the
# population promise is bit-exact replay from (count, seed) alone.
POP_DIR=$(mktemp -d)
"$PF" population --count 64 --seed 42 --jobs 1 >"$POP_DIR/j1.out"
"$PF" population --count 64 --seed 42 --jobs 3 >"$POP_DIR/j3.out"
cmp -s "$POP_DIR/j1.out" "$POP_DIR/j3.out" || {
  echo "ci: population report differs between --jobs 1 and --jobs 3"; exit 1; }
grep -q "population digest: " "$POP_DIR/j1.out" || {
  echo "ci: population report lacks a digest line"; exit 1; }
rm -rf "$POP_DIR"

echo "== multi smoke: leave-one-out campaign, jobs-independent =="
# Shared, per-application and leave-one-out ISAs for four programs: nine
# ISA syntheses, the synthesis-heavy campaign.  Its report must be
# byte-identical at --jobs 1 and --jobs 2.
MULTI_DIR=$(mktemp -d)
for j in 1 2; do
  "$PF" multi --loo --programs crc32,sha,qsort,fft --jobs "$j" \
    >"$MULTI_DIR/j$j.out"
done
cmp -s "$MULTI_DIR/j1.out" "$MULTI_DIR/j2.out" || {
  echo "ci: multi --loo report differs between --jobs 1 and --jobs 2"
  diff "$MULTI_DIR/j1.out" "$MULTI_DIR/j2.out"; exit 1; }
rm -rf "$MULTI_DIR"

echo "== multicore smoke: litmus sweeps and private machines =="
# Every litmus test (SB, MP, LB, CoWW, CoRR, fenced SB, IRIW) runs across
# a seeded interleaving sweep; any outcome outside the operational model's
# allowed set makes the CLI exit 3, and the summary line must report zero
# forbidden outcomes.  The same 1000-seed sweep at --jobs 1 and --jobs 2
# must print the same bytes: the histogram is jobs-independent.  A
# one-seed round-robin MP run smokes the deterministic scheduler.
#
# A benchmark machine has no shared window, so it runs its cores one
# after another and its report cannot depend on the schedule: round-robin
# and seeded-random must print the same bytes apart from the machine:
# line, which names the policy and seed.  At --max-steps 131000, crc32's
# counting run (130,875 steps) fits but its FITS run (131,645) does not,
# so the machine run itself must fail: exit 4 with a structured
# watchdog-timeout from fits.run, never an escaped exception.
MC_DIR=$(mktemp -d)
"$PF" mc --litmus --seeds 1000 --jobs 1 >"$MC_DIR/litmus1.out"
"$PF" mc --litmus --seeds 1000 --jobs 2 >"$MC_DIR/litmus.out"
grep -q "forbidden=0" "$MC_DIR/litmus.out" || {
  echo "ci: litmus sweep reported forbidden outcomes"; cat "$MC_DIR/litmus.out"; exit 1; }
cmp -s "$MC_DIR/litmus1.out" "$MC_DIR/litmus.out" || {
  echo "ci: litmus histogram differs between --jobs 1 and --jobs 2"
  diff "$MC_DIR/litmus1.out" "$MC_DIR/litmus.out"; exit 1; }
"$PF" mc --litmus --test mp --sched rr --seeds 1 >"$MC_DIR/rr.out"
grep -q "forbidden=0" "$MC_DIR/rr.out" || {
  echo "ci: round-robin MP litmus reported forbidden outcomes"; exit 1; }
for sched in rr random; do
  "$PF" mc --benchmarks crc32,sha,qsort,fft --cores 4 --isa fits \
    --sched "$sched" --seed 7 >"$MC_DIR/private-$sched.out"
  grep -v '^machine:' "$MC_DIR/private-$sched.out" >"$MC_DIR/report-$sched.out"
done
cmp -s "$MC_DIR/report-rr.out" "$MC_DIR/report-random.out" || {
  echo "ci: a private machine's report depends on its schedule"
  diff "$MC_DIR/report-rr.out" "$MC_DIR/report-random.out"; exit 1; }
rc=0
"$PF" mc --benchmarks crc32 --cores 4 --isa fits --max-steps 131000 \
  >"$MC_DIR/watchdog.out" 2>&1 || rc=$?
[ "$rc" -eq 4 ] || {
  echo "ci: mc past its step budget exited $rc, not 4"
  cat "$MC_DIR/watchdog.out"; exit 1; }
grep -q 'watchdog-timeout \[fits.run\]' "$MC_DIR/watchdog.out" || {
  echo "ci: mc past its step budget did not fail in the FITS run"
  cat "$MC_DIR/watchdog.out"; exit 1; }
if grep -q "Fatal error" "$MC_DIR/watchdog.out"; then
  echo "ci: mc past its step budget escaped as an exception"
  cat "$MC_DIR/watchdog.out"; exit 1
fi
rm -rf "$MC_DIR"

echo "== perfbench smoke: every workload's oracle, one short run each =="
# One 1-second run per workload: the run must pass its oracle (Eval
# outputs, the replay points, a fresh Service.compute, the litmus
# forbidden sets) with no failed operation.  The rates are not checked.
for w in suite population dse-dense serve mc; do
  LINE=$(bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 \
    --trace 0 | tail -n1)
  case "$LINE" in
    *'"correct":true'*'"failed":0,'*) ;;
    *) echo "ci: perfbench workload $w failed its oracle: $LINE"; exit 1 ;;
  esac
done

echo "== probe smoke =="
dune build bench/probe.exe
./_build/default/bench/probe.exe --blocks crc32 >/dev/null
./_build/default/bench/probe.exe --attrib crc32

echo "ci: all gates passed"
