#!/usr/bin/env python3
"""Diff the `summary` records of two run records, ignoring wall-clock timing.

A run record is the JSONL stream `run_experiment --record` and each
`run_sweep` cell write (docs/OBSERVABILITY.md). Used by the CI
kill-and-resume job: a checkpointed, killed, and resumed run must produce a
summary identical to an uninterrupted reference except for fields measuring
host wall-clock time (which can never be bit-identical).

`--ignore=field1,field2` excludes additional top-level fields. Runs with a
lossy checkpoint codec (e.g. `--compress=fp16`) restore a rounded model, so
accuracy-derived fields legitimately drift between a straight-through run
and a resumed one; the kill-resume CI leg passes the known-lossy set
explicitly rather than loosening the default bit-exact comparison.

Exit status: 0 when equivalent, 1 with a field-by-field diff, 2 when a
record file is missing, is not valid JSONL, or holds no `summary` record (so
CI distinguishes "the runs disagreed" from "a run never produced its
summary").
"""

import argparse
import json
import sys

# Wall-clock measurements: legitimately different between runs.
TIMING_FIELDS = ("wall_seconds", "defense_latency")
# Every record carries these; they say what a line is, not what ran.
RECORD_FIELDS = ("schema_version", "type")


def strip_fields(summary, ignored):
    return {k: v for k, v in summary.items() if k not in ignored}


def load_summary(path, ignored):
    summary = None
    try:
        with open(path) as f:
            for number, line in enumerate(f, 1):
                record = json.loads(line)
                if isinstance(record, dict) and \
                        record.get("type") == "summary":
                    summary = record
    except OSError as e:
        print(f"error: cannot read record {path}: {e}", file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as e:
        print(f"error: {path}:{number} is not valid JSON: {e}",
              file=sys.stderr)
        sys.exit(2)
    if summary is None:
        print(f"error: {path} holds no summary record", file=sys.stderr)
        sys.exit(2)
    return strip_fields(summary, ignored)


def main(argv):
    parser = argparse.ArgumentParser(
        description="Diff run-record summaries, ignoring timing fields.")
    parser.add_argument("reference", help="uninterrupted reference record")
    parser.add_argument("candidate", help="resumed-run record to compare")
    parser.add_argument(
        "--ignore", default="", metavar="FIELDS",
        help="comma-separated extra top-level fields to exclude "
             "(for known-lossy runs, e.g. final_accuracy with a lossy "
             "checkpoint codec)")
    args = parser.parse_args(argv[1:])

    ignored = set(TIMING_FIELDS) | set(RECORD_FIELDS)
    ignored.update(f for f in args.ignore.split(",") if f)

    reference = load_summary(args.reference, ignored)
    candidate = load_summary(args.candidate, ignored)
    if reference == candidate:
        extra = sorted(ignored - set(TIMING_FIELDS) - set(RECORD_FIELDS))
        suffix = f", also ignoring {', '.join(extra)}" if extra else ""
        print(f"summaries match (timing fields excluded{suffix})")
        return 0
    print("summaries differ:", file=sys.stderr)
    for key in sorted(set(reference) | set(candidate)):
        ref_value = reference.get(key, "<missing>")
        cand_value = candidate.get(key, "<missing>")
        if ref_value != cand_value:
            print(f"  {key}: {ref_value!r} != {cand_value!r}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
