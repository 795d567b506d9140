#!/usr/bin/env sh
# Batch smoke: prove the batched routing kernel end to end.
#
#   1. Identity: a flat-backend sweep routed through the batch kernels
#      must produce stdout byte-identical to the same sweep with
#      --no-batch (the scalar router), per geometry and at both one and
#      several worker domains — the five built-ins plus ReCord at two
#      digit widths, which route through the built-in digits lane. This
#      is the bit-identity contract the kernels are built around — same
#      outcomes, hop counts and PRNG draws, so the batch path is a pure
#      speed-up, never a fork.
#   2. Build lanes: the classic backend builds every table from the
#      geometry's OCaml entry function, the flat backend from a C build
#      lane on the same SplitMix64 stream. A simulate sweep must print
#      the same stdout under both, for all six families.
#   3. Evidence: the smoke bench must emit a batch section whose JSON
#      passes schema validation, with a positive speedup recorded for
#      every geometry.
#
# Usage: scripts/batch_smoke.sh [path-to-dhtlab] [path-to-validate]
# BATCH_WORK, when set, names the work directory to use (and keep) so
# CI can upload it on failure. Exits non-zero on the first violation.

set -eu

DHTLAB=${1:-_build/default/bin/dhtlab.exe}
VALIDATE=${2:-_build/default/bench/validate.exe}
if [ -n "${BATCH_WORK:-}" ]; then
    WORK=$BATCH_WORK
    mkdir -p "$WORK"
else
    WORK=$(mktemp -d "${TMPDIR:-/tmp}/batch_smoke.XXXXXX")
    trap 'rm -rf "$WORK"' EXIT INT TERM
fi

fail() {
    echo "batch-smoke: FAIL: $1" >&2
    exit 1
}

echo "batch-smoke: 1/3 batch vs scalar byte-identity (flat backend)"
for g in ring xor tree hypercube symphony record:h=4 record:h=16; do
    for jobs in 1 2; do
        ARGS="simulate -g $g -d 8 -q 0.25 --trials 2 --pairs 80 \
              --seed 42 --overlay flat --jobs $jobs"
        $DHTLAB $ARGS > "$WORK/$g.$jobs.batch.txt"
        $DHTLAB $ARGS --no-batch > "$WORK/$g.$jobs.scalar.txt"
        diff "$WORK/$g.$jobs.batch.txt" "$WORK/$g.$jobs.scalar.txt" \
            || fail "batch and scalar stdout differ ($g, $jobs jobs)"
        grep -q "routability" "$WORK/$g.$jobs.batch.txt" \
            || fail "sweep output carries no routability line ($g)"
    done
done

echo "batch-smoke: 2/3 build lane vs entry function (flat vs classic overlay)"
for g in tree hypercube xor ring symphony record:h=4; do
    ARGS="simulate -g $g -d 12 -q 0.2 --trials 2 --pairs 200 --seed 42 --jobs 1"
    $DHTLAB $ARGS --overlay classic > "$WORK/lane.$g.classic.txt"
    $DHTLAB $ARGS --overlay flat > "$WORK/lane.$g.flat.txt"
    diff "$WORK/lane.$g.classic.txt" "$WORK/lane.$g.flat.txt" \
        || fail "classic and flat overlay stdout differ ($g)"
    grep -q "routability" "$WORK/lane.$g.flat.txt" \
        || fail "lane sweep output carries no routability line ($g)"
done

echo "batch-smoke: 3/3 smoke bench batch section validates"
BENCH_JSON=$(ls BENCH_*.json 2>/dev/null | head -n 1)
[ -n "$BENCH_JSON" ] || fail "no BENCH_*.json (run make bench-smoke first)"
$VALIDATE "$BENCH_JSON" || fail "bench JSON failed validation"
grep -q '"batch"' "$BENCH_JSON" || fail "bench JSON has no batch section"

echo "batch-smoke: OK (batch kernels bit-identical to the scalar router, build lanes to the entry functions)"
