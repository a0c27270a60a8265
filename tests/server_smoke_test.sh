#!/bin/sh
# Daemon smoke test for imsr_serve + imsr_loadgen, run as two cells:
#
#   1. cache+batching enabled — boot the server on a unix socket with
#      timed background snapshot publishes, drive a bursty Zipf-skewed
#      closed loop against it, and assert zero failed requests AND a
#      nonzero cache-hit counter (Zipf 0.9 re-asks for hot users between
#      publishes, so a working snapshot-versioned cache must hit).
#   2. --batch_max=1 --cache_mb=0 — the unbatched pop-score-respond
#      loop, same zero-failure bar, and the stats line must report a
#      fully idle cache (no lookups happen when the budget is zero).
#   3. --retrieval=ivf --cache_mb=0 — every request runs the IVF probe,
#      scan and re-rank against snapshots (and fresh indexes) publishing
#      mid-flight, same zero-failure bar.
#   4. the loadgen's open loop (--rate): Poisson sends at a fixed rate,
#      never gated on responses, against the cached server; same bar.
#
# Every cell asserts SIGTERM produces a graceful drain and exit code 0.
# Finally, out-of-range numeric flags must be rejected with a usage error
# (exit 2) before the server builds anything, or before the loadgen
# connects.
set -e

SERVE="$1"
LOADGEN="$2"
WORKDIR="$(mktemp -d)"
LOADGEN_FLAGS=""

fail() {
  echo "server_smoke_test: $1" >&2
  [ -n "$SERVER_LOG" ] && [ -s "$SERVER_LOG" ] && \
    sed 's/^/  server: /' "$SERVER_LOG" >&2
  exit 1
}

cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

# run_cell <name> <extra imsr_serve flags...>
# Boots the server, runs the load (plus $LOADGEN_FLAGS), SIGTERMs, and
# leaves the server log in $SERVER_LOG and the loadgen JSON in $RESULT for
# per-cell asserts.
run_cell() {
  CELL="$1"
  shift
  SOCK="$WORKDIR/imsr_$CELL.sock"
  SERVER_LOG="$WORKDIR/server_$CELL.log"
  RESULT="$WORKDIR/load_$CELL.json"

  # A small synthetic corpus boots in well under a second; --publish_ms
  # keeps fresh snapshot versions landing while the load runs.
  "$SERVE" --items=2000 --users=10000 --socket="$SOCK" --shards=2 \
    --publish_ms=50 "$@" >"$SERVER_LOG" 2>&1 &
  SERVER_PID=$!

  # Wait for the listening line (the socket file appears with it).
  i=0
  while ! grep -q "listening on" "$SERVER_LOG" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "$CELL: server did not start"
    kill -0 "$SERVER_PID" 2>/dev/null || \
      fail "$CELL: server exited during boot"
    sleep 0.1
  done

  # Bursty, hot-user-skewed load. Depth+bursts overshoot the shard queues
  # on purpose; overloaded responses are fine (admission control working),
  # failures are not.
  "$LOADGEN" --socket="$SOCK" --connections=4 --depth=8 --requests=8000 \
    --users=10000 --zipf=0.9 --burst_every=40 --burst_size=8 --seed=7 \
    $LOADGEN_FLAGS --json_out="$RESULT" || \
    fail "$CELL: loadgen reported failures"
  test -s "$RESULT" || fail "$CELL: loadgen wrote no JSON"

  python3 - "$RESULT" "$CELL" <<'EOF'
import json, sys
result = json.load(open(sys.argv[1]))
cell = sys.argv[2]
assert result['failures'] == 0, f"{cell}: failed requests: {result}"
assert result['sent'] == 8000, f"{cell}: short send: {result}"
assert result['ok'] + result['errors'] + result['overloaded'] == 8000, \
    f"{cell}: responses lost: {result}"
assert result['errors'] == 0, f"{cell}: unexpected error responses: {result}"
assert result['qps'] > 0 and result['p99_ms'] >= result['p50_ms'] > 0, \
    f"{cell}: nonsense latency report: {result}"
print(f'{cell} load ok:', result['qps'], 'req/s, p50', result['p50_ms'],
      'ms, p99', result['p99_ms'], 'ms,', result['overloaded'],
      'overloaded')
EOF

  # Graceful shutdown: SIGTERM must drain and exit 0.
  kill -TERM "$SERVER_PID"
  SERVER_RC=0
  wait "$SERVER_PID" || SERVER_RC=$?
  SERVER_PID=""
  [ "$SERVER_RC" -eq 0 ] || fail "$CELL: server exited $SERVER_RC on SIGTERM"
  grep -q "served" "$SERVER_LOG" || \
    fail "$CELL: server final stats line missing"
  grep -q "batching:" "$SERVER_LOG" || \
    fail "$CELL: server batch/cache stats line missing"
  [ -S "$SOCK" ] && fail "$CELL: socket file not unlinked on shutdown"
  return 0
}

# --- Cell 1: batching + response cache enabled ------------------------------
run_cell cached --batch_max=32 --cache_mb=16

# The stats line reads "... cache: <N> hits, <M> misses, ...": under a
# Zipf 0.9 user pick the hot users repeat between publishes, so a working
# cache must record hits.
CACHE_HITS="$(sed -n 's/.*cache: \([0-9]*\) hits.*/\1/p' "$SERVER_LOG")"
[ -n "$CACHE_HITS" ] || fail "cached: could not parse cache hits"
[ "$CACHE_HITS" -gt 0 ] || fail "cached: expected nonzero cache hits"
echo "cached cell: $CACHE_HITS cache hits"

# --- Cell 2: cache off, batch_max=1 (the unbatched serving loop) -------------
run_cell plain --batch_max=1 --cache_mb=0

grep -q "cache: 0 hits, 0 misses" "$SERVER_LOG" || \
  fail "plain: --cache_mb=0 still touched the cache"

# --- Cell 3: IVF retrieval, cache off (every request searches the index) ----
run_cell ivf --retrieval=ivf --batch_max=32 --cache_mb=0

grep -q "(ivf retrieval)" "$SERVER_LOG" || \
  fail "ivf: server did not boot in ivf retrieval mode"
grep -q "cache: 0 hits, 0 misses" "$SERVER_LOG" || \
  fail "ivf: --cache_mb=0 still touched the cache"

# --- Cell 4: open loop (8000 req/s, so about a second of Poisson sends) -----
LOADGEN_FLAGS="--rate=8000"
run_cell open --batch_max=32 --cache_mb=16
LOADGEN_FLAGS=""

grep -q '"mode": "open"' "$RESULT" || fail "open: loadgen did not run open loop"

# --- Flag validation: usage error, exit 2, nothing built ---------------------
for FLAG in --shards=0 --queue_cap=0 --batch_max=0 --cache_mb=-1 --top_n=0 \
            --nprobe=0; do
  NAME="${FLAG%%=*}"
  NAME="${NAME#--}"
  REJECT_LOG="$WORKDIR/reject_$NAME.log"
  RC=0
  "$SERVE" --items=2000 --users=10000 --socket="$WORKDIR/reject.sock" \
    "$FLAG" >"$REJECT_LOG" 2>&1 || RC=$?
  [ "$RC" -eq 2 ] || fail "$FLAG: expected exit 2, got $RC"
  grep -q "error: --$NAME must be >= " "$REJECT_LOG" || \
    fail "$FLAG: usage error missing: $(cat "$REJECT_LOG")"
  grep -q "synthetic corpus" "$REJECT_LOG" && \
    fail "$FLAG: rejected only after building the corpus"
done
echo "flag validation: 6 bad values rejected with exit 2"

# The loadgen checks its numeric flags before it builds the Zipf table or
# connects: the socket does not exist, so a value that slipped through
# would exit 1 (connect failed) or hang (timeout exits 124), not 2.
for FLAGS in "--users=-1 --zipf=0.5" --users=0 --users=2147483649 \
             --top_n=0 --requests=-1 --connections=0 --depth=0 --zipf=-0.5 \
             --zipf=1 --rate=-1 --burst_every=-1 --burst_size=-1; do
  NAME="${FLAGS%%=*}"
  NAME="${NAME#--}"
  REJECT_LOG="$WORKDIR/reject_loadgen_$NAME.log"
  RC=0
  # shellcheck disable=SC2086 # FLAGS may hold two flags
  timeout 10 "$LOADGEN" --socket="$WORKDIR/absent.sock" $FLAGS \
    >"$REJECT_LOG" 2>&1 || RC=$?
  [ "$RC" -eq 2 ] || fail "loadgen $FLAGS: expected exit 2, got $RC"
  grep -q "error: --$NAME must be " "$REJECT_LOG" || \
    fail "loadgen $FLAGS: usage error missing: $(cat "$REJECT_LOG")"
done
echo "loadgen flag validation: 12 bad values rejected with exit 2"

echo "server_smoke_test: ok"
