#!/usr/bin/env sh
# Churn smoke: prove the session-churn sweep end to end.
#
#   1. Baseline --smoke sweep; the table must carry both the measured
#      routability and the static prediction columns.
#   2. --jobs determinism: the same sweep on 1 and 2 domains must be
#      byte-identical (per-point seeds derive by index, not by domain),
#      for the default geometries and for the record:h=4 registry
#      plugin, which the default list leaves out.
#   3. CSV and JSON modes: header shape, one record per grid point.
#   4. Checkpointed run with manifest/metrics telemetry, then --resume:
#      stdout byte-identical to the baseline, telemetry schema-valid.
#   5. Deterministic mid-state resume: truncate the checkpoint to its
#      first half and resume — must reproduce the baseline and rewrite
#      the complete checkpoint.
#   6. Heavier sweep interrupted with SIGINT mid-run: must exit 130 (or
#      finish 0 if the machine outran the kill), leave a loadable
#      checkpoint and no .tmp turd, and resume byte-identically.
#   7. An invalid -d (0) is a usage error: exit 2, one "dhtlab churn:"
#      line, no "internal error".
#
# Usage: scripts/churn_smoke.sh [path-to-dhtlab] [path-to-validate]
# CHURN_WORK, when set, names the work directory to use (and keep):
# CI points it somewhere uploadable so a failure leaves the artefacts
# behind for inspection. Exits non-zero on the first violated invariant.

set -eu

DHTLAB=${1:-_build/default/bin/dhtlab.exe}
VALIDATE=${2:-_build/default/bench/validate.exe}
if [ -n "${CHURN_WORK:-}" ]; then
    WORK=$CHURN_WORK
    mkdir -p "$WORK"
else
    WORK=$(mktemp -d "${TMPDIR:-/tmp}/churn_smoke.XXXXXX")
    trap 'rm -rf "$WORK"' EXIT INT TERM
fi

ARGS="churn --smoke --seed 7"

fail() {
    echo "churn-smoke: FAIL: $1" >&2
    exit 1
}

echo "churn-smoke: 1/7 baseline --smoke sweep"
$DHTLAB $ARGS --jobs 2 > "$WORK/baseline.txt"
grep -q "routability" "$WORK/baseline.txt" || fail "no routability column in the table"
grep -q "prediction" "$WORK/baseline.txt" || fail "no static-prediction column in the table"

echo "churn-smoke: 2/7 --jobs determinism (1 vs 2 domains)"
$DHTLAB $ARGS --jobs 1 > "$WORK/jobs1.txt"
diff "$WORK/baseline.txt" "$WORK/jobs1.txt" \
    || fail "sweep output differs between --jobs 1 and --jobs 2"
$DHTLAB $ARGS -g record:h=4 --jobs 1 > "$WORK/record_jobs1.txt"
$DHTLAB $ARGS -g record:h=4 --jobs 2 > "$WORK/record_jobs2.txt"
grep -q "^record:h=4 " "$WORK/record_jobs1.txt" || fail "no record:h=4 rows in the table"
diff "$WORK/record_jobs1.txt" "$WORK/record_jobs2.txt" \
    || fail "record:h=4 sweep output differs between --jobs 1 and --jobs 2"

echo "churn-smoke: 3/7 csv and json modes"
$DHTLAB $ARGS --jobs 2 --csv > "$WORK/points.csv"
head -n 1 "$WORK/points.csv" | grep -q "^geometry,bits,session_mean,churn_rate" \
    || fail "unexpected CSV header"
# --smoke sweeps 2 session means over all five geometries: 10 points.
[ "$(wc -l < "$WORK/points.csv")" = 11 ] || fail "expected 10 CSV rows plus the header"
$DHTLAB $ARGS --jobs 2 --json > "$WORK/points.json"
[ "$(wc -l < "$WORK/points.json")" = 10 ] || fail "expected 10 JSON records"
grep -q '"prediction"' "$WORK/points.json" || fail "JSON records missing the prediction field"

echo "churn-smoke: 4/7 checkpointed run + resume, diffed against the baseline"
$DHTLAB $ARGS --jobs 2 --checkpoint "$WORK/ck.jsonl" --checkpoint-every 2 \
    --manifest "$WORK/run.manifest.json" --metrics-out "$WORK/run.metrics.json" \
    > "$WORK/checkpointed.txt"
diff "$WORK/baseline.txt" "$WORK/checkpointed.txt" \
    || fail "checkpointed stdout differs from the baseline"
[ -e "$WORK/ck.jsonl" ] || fail "no checkpoint file written"
[ -e "$WORK/ck.jsonl.tmp" ] && fail "atomic write left ck.jsonl.tmp behind"
grep -q '"kind": "churn"' "$WORK/ck.jsonl" || fail "checkpoint carries no churn records"
$VALIDATE --manifest "$WORK/run.manifest.json" || fail "manifest failed validation"
$VALIDATE --metrics "$WORK/run.metrics.json" || fail "metrics snapshot failed validation"
$DHTLAB $ARGS --jobs 2 --checkpoint "$WORK/ck.jsonl" --resume > "$WORK/resumed.txt"
diff "$WORK/baseline.txt" "$WORK/resumed.txt" \
    || fail "resumed stdout differs from the baseline"

echo "churn-smoke: 5/7 deterministic mid-state resume from a truncated checkpoint"
TOTAL=$(wc -l < "$WORK/ck.jsonl")
head -n $((TOTAL / 2)) "$WORK/ck.jsonl" > "$WORK/ck_half.jsonl"
$DHTLAB $ARGS --jobs 2 --checkpoint "$WORK/ck_half.jsonl" --resume > "$WORK/resumed_half.txt"
diff "$WORK/baseline.txt" "$WORK/resumed_half.txt" \
    || fail "half-checkpoint resume differs from the baseline"
diff "$WORK/ck.jsonl" "$WORK/ck_half.jsonl" \
    || fail "resumed checkpoint file differs from the complete one"

echo "churn-smoke: 6/7 heavier sweep interrupted by SIGINT, then resumed"
HEAVY="churn -d 12 --sessions 2,4,8,16 --pairs 4000 --seed 7 --jobs 2"
$DHTLAB $HEAVY > "$WORK/heavy_baseline.txt"
$DHTLAB $HEAVY --checkpoint "$WORK/heavy.jsonl" --checkpoint-every 2 \
    > "$WORK/heavy_int.txt" 2> "$WORK/heavy_int.err" &
PID=$!
sleep 1
kill -INT "$PID" 2>/dev/null || true
STATUS=0
wait "$PID" || STATUS=$?
case "$STATUS" in
    130)
        echo "churn-smoke:     interrupted (exit 130), checkpoint flushed"
        grep -q "interrupted" "$WORK/heavy_int.err" \
            || fail "exit 130 without the interrupted message on stderr"
        ;;
    0)   echo "churn-smoke:     run outran the signal (exit 0); resume still covered below" ;;
    *)   fail "interrupted run exited $STATUS (expected 130 or 0)" ;;
esac
[ -e "$WORK/heavy.jsonl" ] || fail "no checkpoint file after interruption"
[ -e "$WORK/heavy.jsonl.tmp" ] && fail "atomic write left heavy.jsonl.tmp behind"
$DHTLAB $HEAVY --checkpoint "$WORK/heavy.jsonl" --resume > "$WORK/heavy_resumed.txt"
diff "$WORK/heavy_baseline.txt" "$WORK/heavy_resumed.txt" \
    || fail "heavy resumed stdout differs from the uninterrupted baseline"

echo "churn-smoke: 7/7 invalid -d is a usage error"
STATUS=0
$DHTLAB churn -d 0 > "$WORK/bad_bits.out" 2> "$WORK/bad_bits.err" || STATUS=$?
[ "$STATUS" = 2 ] || fail "churn -d 0 exited $STATUS (expected 2)"
grep -q "internal error" "$WORK/bad_bits.err" && fail "churn -d 0 reported an internal error"
grep -q "^dhtlab churn: " "$WORK/bad_bits.err" || fail "churn -d 0 printed no dhtlab churn: line"

echo "churn-smoke: OK (determinism, checkpoint/resume, SIGINT recovery and -d validation all hold)"
