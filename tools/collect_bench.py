#!/usr/bin/env python3
"""Collect BENCH_*.json perf records into a bench trajectory.

Every micro-bench run with `--out=BENCH_<name>.json` writes a
machine-readable perf record (see docs/PERFORMANCE.md for the schemas).
This tool appends one JSONL line per record to
`bench_results/trajectory.jsonl`, stamped with enough provenance
(collection time, optional git commit / CI run labels) to diff perf across
commits.

Appending rather than truncating is the point — rerunning after every
bench run (or every CI perf job) grows one monotone trajectory file.
Records are deduplicated by (name, commit): re-collecting the same bench
output for the same commit is a no-op, so CI retries don't double-count.

Usage:
  collect_bench.py                       # glob BENCH_*.json in cwd
  collect_bench.py BENCH_gemm.json ...   # explicit record files
  collect_bench.py --dir build/bench     # glob a directory instead
  collect_bench.py --out results/traj.jsonl --commit "$GITHUB_SHA"

Exit status: 0 on success (even with zero records found, reported as a
warning), 2 when a named record is missing or unparseable — the same
convention as compare_summaries.py, so CI distinguishes "nothing to
collect" from "a bench produced garbage".
"""

import argparse
import glob
import json
import os
import sys
import time


def load_record(path):
    try:
        with open(path) as f:
            record = json.load(f)
    except OSError as e:
        print(f"error: cannot read bench record {path}: {e}", file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as e:
        print(f"error: {path} is not valid JSON: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(record, dict) or "name" not in record:
        print(f"error: {path} is not a bench record (no 'name' field)",
              file=sys.stderr)
        sys.exit(2)
    return record


def existing_keys(out_path):
    """(name, commit) pairs already in the trajectory, for dedup."""
    keys = set()
    if not os.path.exists(out_path):
        return keys
    with open(out_path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # tolerate a torn tail line from a killed writer
            keys.add((entry.get("name"), entry.get("commit")))
    return keys


def main(argv):
    parser = argparse.ArgumentParser(
        description="Append BENCH_*.json perf records to the bench "
                    "trajectory JSONL.")
    parser.add_argument("records", nargs="*", metavar="RECORD",
                        help="bench record files (default: glob BENCH_*.json)")
    parser.add_argument("--dir", default=".", metavar="DIR",
                        help="directory to glob BENCH_*.json from when no "
                             "explicit records are given")
    parser.add_argument("--out", default="bench_results/trajectory.jsonl",
                        metavar="FILE", help="trajectory JSONL to append to")
    parser.add_argument("--commit", default="", metavar="SHA",
                        help="git commit to stamp on each entry "
                             "(e.g. $GITHUB_SHA)")
    parser.add_argument("--run-id", default="", metavar="ID",
                        help="CI run id to stamp on each entry")
    args = parser.parse_args(argv[1:])

    paths = args.records or sorted(
        glob.glob(os.path.join(args.dir, "BENCH_*.json")))
    if not paths:
        print(f"warning: no BENCH_*.json records found in {args.dir}",
              file=sys.stderr)
        return 0

    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    seen = existing_keys(args.out)

    collected = 0
    skipped = 0
    now = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(args.out, "a") as out:
        for path in paths:
            record = load_record(path)
            entry = {
                "collected_at": now,
                "commit": args.commit or None,
                "run_id": args.run_id or None,
                "source": os.path.basename(path),
            }
            entry.update(record)
            if args.commit and (entry["name"], args.commit) in seen:
                skipped += 1
                continue
            out.write(json.dumps(entry, sort_keys=True) + "\n")
            collected += 1

    suffix = f", {skipped} already collected for this commit" if skipped else ""
    print(f"collected {collected} bench record(s) into {args.out}{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
