#!/usr/bin/env bash
# End-to-end CLI workflow: synthesize a corpus, run the pipeline,
# re-render reports, and run the numerical self-checks.
#
# Runs the package from this checkout's src/ (no install needed), with
# python3 or the interpreter named by $PYTHON.  The outputs go to a new
# directory under $TMPDIR (default /tmp).
set -euo pipefail

src=$(cd "$(dirname "$0")/../src" && pwd)
igkeywords() {
    PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}" "${PYTHON:-python3}" \
        -m igkeywords "$@"
}

workdir=$(mktemp -d)
echo "working in $workdir"

igkeywords synth \
    --out "$workdir/corpus.jsonl" \
    --num-classes 4 --docs-per-class 100 \
    --background-vocab-size 1000 --markers-per-class 3 \
    --doc-length-min 20 --doc-length-max 40 --seed 1

igkeywords run \
    --corpus "$workdir/corpus.jsonl" \
    --markers "$workdir/corpus.jsonl.markers.json" \
    --out-dir "$workdir/run" \
    --rounds 5 --epochs 20 \
    --master-seed 42 --dump-scores

echo
echo "=== keyword table ==="
cat "$workdir/run/keywords.tsv"
echo
echo "=== F1 summary ==="
cat "$workdir/run/f1_summary.tsv"
echo
echo "=== marker recovery ==="
cat "$workdir/run/recovery.json"
echo

# report rewrites every report file from the run directory alone
# (config.json, whose "format" must be the one this version writes, the
# round artifacts and aggregates.npz; aggregates.json and aggregates.tsv
# are exports it does not read)
igkeywords report --run-dir "$workdir/run"

# numerical self-checks: gradients, IG completeness, aggregation oracle,
# closed-form IG path mean against quadrature
igkeywords check
