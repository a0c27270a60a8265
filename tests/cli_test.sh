#!/bin/sh
# End-to-end test of the imsr_cli workflow: generate -> stats -> pretrain
# -> train-span (with observability exports) -> evaluate -> recommend,
# plus failure-path assertions (bad flag values, bad spans, unknown
# subcommands must exit non-zero with a message on stderr).
#
# Note on exit codes: every happy-path invocation is captured into a
# variable first and grepped afterwards — `cli | grep` would report grep's
# status and mask a CLI failure.
set -e

CLI="$1"
# "obs" (default) or "noobs": whether the binary carries obs
# instrumentation (-DIMSR_OBS). Export assertions only apply with obs.
OBS_MODE="${2:-obs}"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

LOG="$WORKDIR/log.csv"
CKPT="$WORKDIR/ckpt.bin"
METRICS="$WORKDIR/metrics.json"
METRICS_CSV="$WORKDIR/metrics.csv"
TRACE="$WORKDIR/trace.json"

fail() {
  echo "cli_test: $1" >&2
  exit 1
}

# --- happy path ------------------------------------------------------------

"$CLI" generate --preset=electronics --scale=0.12 --out="$LOG" >/dev/null
test -s "$LOG"

OUT=$("$CLI" stats --log="$LOG" --min_interactions=5)
echo "$OUT" | grep -q "users (kept)" || fail "stats output missing table"

"$CLI" pretrain --log="$LOG" --min_interactions=5 --checkpoint="$CKPT" \
    --pretrain_epochs=2 >/dev/null
test -s "$CKPT"

# train-span with the obs flags: metrics JSON + CSV + chrome trace.
OUT=$("$CLI" train-span --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --span=1 --epochs=1 \
    --metrics_out="$METRICS" --trace_out="$TRACE")
echo "$OUT" | grep -q "trained span 1" || fail "train-span output missing"

if [ "$OBS_MODE" = "obs" ]; then
  # The exit summary table lists the recorded metrics.
  echo "$OUT" | grep -q "trainer/span_loss" || fail "summary missing span loss"

  test -s "$METRICS" || fail "metrics_out not written"
  test -s "$TRACE" || fail "trace_out not written"
  test ! -e "$METRICS.tmp" || fail "stale metrics tmp file"
  test ! -e "$TRACE.tmp" || fail "stale trace tmp file"
  # Exported metrics contain the expected series with non-zero counts.
  grep -Eq '\{"name":"trainer/steps","value":[1-9][0-9]*\}' "$METRICS" \
      || fail "metrics missing non-zero trainer/steps"
  grep -q '"name":"trainer/span_loss"' "$METRICS" \
      || fail "metrics missing trainer/span_loss"
  grep -q '"name":"nid/puzzlement"' "$METRICS" \
      || fail "metrics missing nid/puzzlement"
  grep -q '"name":"pit/interests_trimmed"' "$METRICS" \
      || fail "metrics missing pit/interests_trimmed"
  # Chrome trace-event format with recorded spans.
  grep -q '"traceEvents"' "$TRACE" || fail "trace missing traceEvents"
  grep -q '"ph":"X"' "$TRACE" || fail "trace missing complete events"
  grep -q '"name":"trainer/span"' "$TRACE" \
      || fail "trace missing trainer span"
fi

# CSV metrics variant on evaluate.
OUT=$("$CLI" evaluate --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --test_span=2 --metrics_out="$METRICS_CSV")
echo "$OUT" | grep -q "HR@20" || fail "evaluate output missing metrics"
if [ "$OBS_MODE" = "obs" ]; then
  head -1 "$METRICS_CSV" | grep -q "^kind,name,value" \
      || fail "metrics CSV missing header"
  grep -q "^counter,eval/users_ranked," "$METRICS_CSV" \
      || fail "metrics CSV missing eval counters"
fi

OUT=$("$CLI" recommend --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --user=0 --top_n=5)
echo "$OUT" | grep -q "item" || fail "recommend output missing items"

# Batch serving mode: requests file -> published snapshot -> top-N CSV.
REQS="$WORKDIR/requests.txt"
TOPN="$WORKDIR/topn.csv"
SERVE_METRICS="$WORKDIR/serve_metrics.csv"
{
  echo "# user[,top_n] - one request per line"
  echo "0,3"
  echo ""
  echo "1"
  echo "2,5"
} > "$REQS"
OUT=$("$CLI" recommend --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --recommend_requests="$REQS" \
    --recommend_out="$TOPN" --top_n=4 --metrics_out="$SERVE_METRICS")
echo "$OUT" | grep -q "served 3 requests" || fail "batch recommend summary missing"
echo "$OUT" | grep -q "from snapshot v1" || fail "batch recommend snapshot version missing"
head -1 "$TOPN" | grep -q "^user,rank,item,score" \
    || fail "batch recommend CSV missing header"
grep -q "^0,1," "$TOPN" || fail "batch recommend CSV missing user 0 rank 1"
# User 1 gave no top_n: the --top_n=4 default applies.
test "$(grep -c '^1,' "$TOPN")" -eq 4 || fail "default top_n not applied"
if [ "$OBS_MODE" = "obs" ]; then
  grep -q "^counter,serve/requests," "$SERVE_METRICS" \
      || fail "metrics missing serve/requests"
  grep -q "^counter,serve/publishes," "$SERVE_METRICS" \
      || fail "metrics missing serve/publishes"
fi

# Streaming: replay the post-pretrain events through the prequential
# loop from the span-1 checkpoint; the curve and summary must land.
CURVE="$WORKDIR/curve.csv"
SUMMARY="$WORKDIR/summary.json"
STREAM_METRICS="$WORKDIR/stream_metrics.csv"
OUT=$("$CLI" stream --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --publish_every=50 --window=100 \
    --max_events=300 --curve_out="$CURVE" --summary_out="$SUMMARY" \
    --metrics_out="$STREAM_METRICS")
echo "$OUT" | grep -q "streamed 300 events" || fail "stream summary missing"
echo "$OUT" | grep -Eq "snapshot v[1-9]" || fail "stream published nothing"
head -1 "$CURVE" | grep -q "^last_sequence,scored,window_recall" \
    || fail "stream curve CSV missing header"
test "$(wc -l < "$CURVE")" -gt 1 || fail "stream curve has no points"
grep -q '"publishes":' "$SUMMARY" || fail "stream summary missing publishes"
grep -q '"events_per_sec":' "$SUMMARY" \
    || fail "stream summary missing events_per_sec"
if [ "$OBS_MODE" = "obs" ]; then
  grep -q "^counter,stream/events_scored," "$STREAM_METRICS" \
      || fail "metrics missing stream/events_scored"
  grep -q "^counter,stream/publishes," "$STREAM_METRICS" \
      || fail "metrics missing stream/publishes"
  grep -q "^histogram,stream/publish_latency_ms," "$STREAM_METRICS" \
      || fail "metrics missing stream/publish_latency_ms"
fi

# FT mode shares the pipeline; a bad mode is a usage error.
OUT=$("$CLI" stream --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --mode=ft --publish_every=50 --max_events=120)
echo "$OUT" | grep -q "streamed 120 events" || fail "ft stream missing"

# An SA stream that expands every publish reaches users whose existing
# interests have a singular Gram. PIT trims that span's candidates for
# them (pit/singular_gram) instead of aborting.
SA_LOG="$WORKDIR/sa_log.csv"
SA_CKPT="$WORKDIR/sa.bin"
"$CLI" generate --preset=taobao --scale=0.25 --seed=11 --out="$SA_LOG" \
    >/dev/null
"$CLI" pretrain --log="$SA_LOG" --model=sa --pretrain_epochs=2 \
    --checkpoint="$SA_CKPT" >/dev/null
RC=0
OUT=$("$CLI" stream --log="$SA_LOG" --model=sa --checkpoint="$SA_CKPT" \
    --publish_every=500 --expand_every=1 --max_events=3000) || RC=$?
[ "$RC" -eq 0 ] || fail "sa stream with expansion: expected exit 0, got $RC"
echo "$OUT" | grep -q "streamed 3000 events" || fail "sa stream summary missing"

# --- IVF retrieval ---------------------------------------------------------

# evaluate under IVF: same protocol, ranks from the index's top-N, and
# per-search accounting on stdout.
IVF_METRICS="$WORKDIR/ivf_metrics.csv"
OUT=$("$CLI" evaluate --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --test_span=2 --retrieval=ivf \
    --metrics_out="$IVF_METRICS")
echo "$OUT" | grep -q "HR@20" || fail "ivf evaluate output missing metrics"
echo "$OUT" | grep -q "ivf: " || fail "ivf evaluate missing search stats"
echo "$OUT" | grep -q "mean shortlist" \
    || fail "ivf evaluate missing shortlist stat"
if [ "$OBS_MODE" = "obs" ]; then
  grep -q "^counter,serve/index_builds," "$IVF_METRICS" \
      || fail "metrics missing serve/index_builds"
  grep -q "^histogram,serve/index_build_ms," "$IVF_METRICS" \
      || fail "metrics missing serve/index_build_ms"
  grep -q "^histogram,serve/ivf_shortlist," "$IVF_METRICS" \
      || fail "metrics missing serve/ivf_shortlist"
fi

# Explicit --nprobe widens the probe; still a clean run.
OUT=$("$CLI" evaluate --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --test_span=2 --retrieval=ivf --nprobe=4)
echo "$OUT" | grep -q "ivf: " || fail "ivf evaluate with nprobe missing stats"

# recommend (single-user and batch) under IVF.
OUT=$("$CLI" recommend --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --user=0 --top_n=5 --retrieval=ivf)
echo "$OUT" | grep -q "item" || fail "ivf recommend output missing items"
IVF_TOPN="$WORKDIR/ivf_topn.csv"
OUT=$("$CLI" recommend --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --recommend_requests="$REQS" \
    --recommend_out="$IVF_TOPN" --top_n=4 --retrieval=ivf)
echo "$OUT" | grep -q "served 3 requests" || fail "ivf batch summary missing"
head -1 "$IVF_TOPN" | grep -q "^user,rank,item,score" \
    || fail "ivf batch CSV missing header"

# stream under IVF: the summary JSON carries the retrieval mode, the
# per-publish index builds and the probe/shortlist totals.
IVF_SUMMARY="$WORKDIR/ivf_summary.json"
OUT=$("$CLI" stream --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --publish_every=50 --window=100 \
    --max_events=200 --retrieval=ivf --summary_out="$IVF_SUMMARY")
echo "$OUT" | grep -q "streamed 200 events" || fail "ivf stream missing"
grep -q '"retrieval": "ivf"' "$IVF_SUMMARY" \
    || fail "ivf stream summary missing retrieval mode"
grep -Eq '"index_builds": [1-9][0-9]*' "$IVF_SUMMARY" \
    || fail "ivf stream summary missing index_builds"
grep -Eq '"ivf_searches": [1-9][0-9]*' "$IVF_SUMMARY" \
    || fail "ivf stream summary missing ivf_searches"
grep -Eq '"ivf_probes": [1-9][0-9]*' "$IVF_SUMMARY" \
    || fail "ivf stream summary missing ivf_probes"
grep -Eq '"ivf_shortlist": [1-9][0-9]*' "$IVF_SUMMARY" \
    || fail "ivf stream summary missing ivf_shortlist"

# Exact mode still reports zero IVF work in the summary.
EXACT_SUMMARY="$WORKDIR/exact_summary.json"
OUT=$("$CLI" stream --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --publish_every=50 --max_events=120 \
    --retrieval=exact --summary_out="$EXACT_SUMMARY")
echo "$OUT" | grep -q "streamed 120 events" || fail "exact stream missing"
grep -q '"retrieval": "exact"' "$EXACT_SUMMARY" \
    || fail "exact stream summary missing retrieval mode"
grep -q '"ivf_searches": 0' "$EXACT_SUMMARY" \
    || fail "exact stream summary should report zero searches"

# --- failure paths ---------------------------------------------------------

# Missing inputs exit non-zero.
if "$CLI" evaluate --log=/nonexistent.csv --checkpoint="$CKPT" \
    2>/dev/null; then
  fail "expected failure on missing log"
fi
if "$CLI" bogus-subcommand 2>/dev/null; then
  fail "expected failure on unknown subcommand"
fi

# Strict flag parsing: a non-numeric value must exit non-zero AND say why.
ERR="$WORKDIR/stderr.txt"
if "$CLI" train-span --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --span=1 --epochs=abc >/dev/null 2>"$ERR"; then
  fail "expected failure on --epochs=abc"
fi
grep -q "expects an integer" "$ERR" || fail "bad int flag missing message"

# Out-of-range numbers are usage errors (exit 2) declared with the flag,
# not aborts deep in the trainer or silently ignored values.
for FLAG in --batch_size=0 --threads=-4; do
  RC=0
  "$CLI" pretrain --log="$LOG" --min_interactions=5 \
    --checkpoint="$WORKDIR/unused.bin" "$FLAG" >/dev/null 2>"$ERR" || RC=$?
  [ "$RC" -eq 2 ] || fail "$FLAG: expected exit 2, got $RC"
  grep -q -- "${FLAG%%=*} must be >= " "$ERR" || \
    fail "$FLAG: range message missing: $(cat "$ERR")"
done

if "$CLI" evaluate --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --alpha=half >/dev/null 2>"$ERR"; then
  fail "expected failure on --alpha=half"
fi
grep -q "expects a number" "$ERR" || fail "bad double flag missing message"

# --alpha outside (0, 1) is a usage error (exit 2), before the log is
# read, on every dataset-loading command.
for ALPHA in 2 0; do
  RC=0
  "$CLI" stats --log="$LOG" --alpha="$ALPHA" >/dev/null 2>"$ERR" || RC=$?
  [ "$RC" -eq 2 ] || fail "stats --alpha=$ALPHA: expected exit 2, got $RC"
  grep -q -- "--alpha must be in (0, 1)" "$ERR" \
      || fail "stats --alpha=$ALPHA: message missing: $(cat "$ERR")"
done
RC=0
"$CLI" stream --log="$LOG" --checkpoint="$CKPT" --alpha=1 \
    >/dev/null 2>"$ERR" || RC=$?
[ "$RC" -eq 2 ] || fail "stream --alpha=1: expected exit 2, got $RC"

# A --preset typo lists the four presets instead of aborting.
RC=0
"$CLI" generate --preset=taobo --out="$WORKDIR/typo.csv" \
    >/dev/null 2>"$ERR" || RC=$?
[ "$RC" -eq 2 ] || fail "--preset=taobo: expected exit 2, got $RC"
grep -q "unknown dataset preset 'taobo'" "$ERR" \
    || fail "preset typo missing message"
grep -q "electronics, clothing, books, taobao" "$ERR" \
    || fail "preset typo missing valid names"

# Positional (non --name=value) arguments are rejected.
if "$CLI" stats "$LOG" >/dev/null 2>"$ERR"; then
  fail "expected failure on positional argument"
fi
grep -q "expected --name=value" "$ERR" || fail "positional arg missing message"

# A malformed request line is a usage error naming the file and line.
BADREQS="$WORKDIR/bad_requests.txt"
printf '0,3\nnot-a-user\n' > "$BADREQS"
if "$CLI" recommend --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --recommend_requests="$BADREQS" \
    --recommend_out="$TOPN" >/dev/null 2>"$ERR"; then
  fail "expected failure on malformed request line"
fi
grep -q "malformed request 'not-a-user'" "$ERR" \
    || fail "malformed request missing message"
grep -q ":2:" "$ERR" || fail "malformed request missing line number"

# A --model typo lists the valid names instead of aborting.
if "$CLI" pretrain --log="$LOG" --min_interactions=5 \
    --checkpoint="$WORKDIR/typo.bin" --model=cosmic \
    >/dev/null 2>"$ERR"; then
  fail "expected failure on --model typo"
fi
grep -q "unknown extractor kind 'cosmic'" "$ERR" \
    || fail "model typo missing message"
grep -q "MIND" "$ERR" || fail "model typo missing valid names"

# An unknown stream mode is a usage error.
if "$CLI" stream --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --mode=bogus >/dev/null 2>"$ERR"; then
  fail "expected failure on bad stream mode"
fi
grep -q -- "--mode must be" "$ERR" || fail "bad stream mode missing message"

# An unknown retrieval mode is a usage error naming the valid modes.
if "$CLI" evaluate --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --test_span=2 \
    --retrieval=bogus >/dev/null 2>"$ERR"; then
  fail "expected failure on bad retrieval mode"
fi
grep -q "unknown retrieval mode 'bogus'" "$ERR" \
    || fail "bad retrieval missing message"
grep -q "exact, ivf" "$ERR" || fail "bad retrieval missing valid names"

# --nprobe must be a positive probe count.
if "$CLI" evaluate --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --test_span=2 --retrieval=ivf \
    --nprobe=0 >/dev/null 2>"$ERR"; then
  fail "expected failure on nprobe=0"
fi
grep -q -- "--nprobe must be >= 1" "$ERR" || fail "bad nprobe missing message"

# The guard applies on stream too, before any work starts.
if "$CLI" stream --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --retrieval=cosine >/dev/null 2>"$ERR"; then
  fail "expected failure on bad stream retrieval"
fi
grep -q "unknown retrieval mode 'cosine'" "$ERR" \
    || fail "bad stream retrieval missing message"

# Out-of-range span exits non-zero with a range message.
if "$CLI" train-span --log="$LOG" --min_interactions=5 \
    --checkpoint="$CKPT" --span=99 >/dev/null 2>"$ERR"; then
  fail "expected failure on out-of-range span"
fi
grep -q -- "--span must be in" "$ERR" || fail "bad span missing message"

# A failing subcommand must not have clobbered the checkpoint.
test -s "$CKPT" || fail "checkpoint lost after failed invocations"

echo "cli_test OK"
