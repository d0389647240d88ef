#!/bin/sh
# Runs the smallest tools/paper_tables.py spec (fig7: 2 defenses x 4
# attacks) end to end at 3 rounds and one seed, then checks that all 8 cells
# were run and rendered.
#
#   paper_tables_smoke.sh PYTHON PAPER_TABLES RUN_SWEEP OUT_DIR
set -eu
python=$1
paper_tables=$2
run_sweep=$3
out=$4

rm -rf "$out"
mkdir -p "$out"
"$python" "$paper_tables" fig7 --rounds 3 --seeds 7 --out "$out" \
  --run-sweep "$run_sweep" > "$out/paper_tables.log"
grep -qx 'fig7: 8 of 8 cells' "$out/paper_tables.log"
test "$(wc -l < "$out/fig7-r3/results.jsonl")" -eq 8
test "$(grep -c '^| asyncfilter' "$out/fig7-r3/table.md")" -eq 2
