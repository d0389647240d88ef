#!/bin/sh
# run_experiment and run_sweep parse one flag surface (fl::RuntimeOptions),
# so a one-cell sweep must write the same `run` record as run_experiment
# given the same flags, and the same `summary` record, timing fields aside.
#
#   sweep_matches_experiment.sh RUN_EXPERIMENT RUN_SWEEP PYTHON \
#       COMPARE_SUMMARIES OUT_DIR
set -eu
run_experiment=$1
run_sweep=$2
python=$3
compare=$4
out=$5

rm -rf "$out"
mkdir -p "$out"
shared="--clients=12 --malicious=3 --partition=40 --buffer=6 --rounds=4 \
  --staleness-limit=5 --dirichlet=0.01 --zipf=2.5 --gd-scale=2 \
  --threads=2 --quiet"
# shellcheck disable=SC2086
"$run_experiment" --profile=mnist --attack=GD --defense=asyncfilter \
  --seed=3 $shared --record="$out/experiment.jsonl"
# shellcheck disable=SC2086
"$run_sweep" --profiles=mnist --attacks=GD --defenses=asyncfilter \
  --seeds=3 $shared --out="$out/sweep"
"$python" "$compare" "$out/experiment.jsonl" \
  "$out/sweep/mnist_gd_asyncfilter_s3.jsonl"
test "$(head -n 1 "$out/experiment.jsonl")" = \
  "$(head -n 1 "$out/sweep/mnist_gd_asyncfilter_s3.jsonl")"
