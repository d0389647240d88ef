#!/bin/sh
# The run record of a small tcp run (virtual-client fleet, fp16 codec, GD
# attackers) must pass tools/validate_record.py: schema_version 1 on every
# line, known types with their keys, one `run` first and one `summary`
# last, and per-round `update` counts that reconcile with each `round`
# record's verdict and confusion counts. Every update crossed the wire, so
# each carries the fp16 codec. Recording must not change the result: the
# saved model is byte-identical with and without --record.
#
#   record_schema.sh RUN_EXPERIMENT PYTHON VALIDATE_RECORD OUT_DIR
set -eu
run_experiment=$1
python=$2
validate=$3
out=$4

rm -rf "$out"
mkdir -p "$out"
run="$run_experiment --profile=mnist --attack=GD --defense=asyncfilter \
  --seed=5 --clients=12 --malicious=3 --partition=40 --buffer=6 --rounds=5 \
  --threads=2 --transport=tcp --clients-virtual --compress=fp16 --quiet"
$run --record="$out/run.jsonl" --save-model="$out/recorded.afpm"
$run --save-model="$out/plain.afpm"
cmp "$out/recorded.afpm" "$out/plain.afpm"
"$python" "$validate" "$out/run.jsonl"
updates=$(grep -c '"type":"update"' "$out/run.jsonl")
test "$updates" -gt 0
test "$(grep -c '"type":"update".*"codec":"fp16"' "$out/run.jsonl")" \
  -eq "$updates"
