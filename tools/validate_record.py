#!/usr/bin/env python3
"""Validate a run record: the JSONL stream of `run_experiment --record`.

Checks the schema and that the record agrees with itself:

  * every line is a JSON object with "schema_version": 1, a known "type"
    and that type's required keys (docs/OBSERVABILITY.md);
  * exactly one `run` record, first; exactly one `summary` record, last;
    `update` records before `round` records;
  * every `update` has a verdict in accepted/rejected/deferred and a bool
    `malicious`;
  * per round, the `update` counts by verdict x malicious equal that
    round's accepted/rejected/deferred and its tp/fp/tn/fn confusion;
  * the summary's confusion is the sum of the rounds', and its `rounds` is
    the number of `round` records.

The per-round reconciliation holds for a run recorded from its first round;
a run resumed from a checkpoint streams `update` records only for the rounds
it ran itself.

Usage:
  validate_record.py run.jsonl

Exit status: 0 when valid, 1 with every violation listed, 2 when the file
cannot be read or a line is not JSON.
"""

import json
import sys
from collections import Counter

SCHEMA_VERSION = 1
REQUIRED = {
    "run": ("profile", "attack", "defense", "seed", "clients", "malicious",
            "partition", "buffer", "rounds", "staleness_limit", "dirichlet",
            "zipf", "gd_scale", "threads", "transport", "compress",
            "clients_virtual"),
    "update": ("round", "client_id", "staleness", "score", "verdict",
               "malicious", "codec", "wire_bytes", "queue_wait_us",
               "scoring_us", "trace_id", "reason"),
    "round": ("round", "sim_time", "test_accuracy", "buffered", "accepted",
              "rejected", "deferred", "dropped_stale", "mean_staleness",
              "defense_micros", "staleness_histogram", "confusion"),
    "summary": ("final_accuracy", "rounds", "wall_seconds",
                "total_dropped_stale", "detection_precision",
                "detection_recall", "confusion", "defense_latency"),
}
VERDICTS = ("accepted", "rejected", "deferred")
# Record types in the order a file holds them.
ORDER = ("run", "update", "round", "summary")


def load(path):
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    records = []
    for number, line in enumerate(lines, 1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as e:
            print(f"error: {path}:{number} is not JSON: {e}",
                  file=sys.stderr)
            sys.exit(2)
    return records


def check_schema(records, errors):
    for number, record in enumerate(records, 1):
        if not isinstance(record, dict):
            errors.append(f"line {number}: not a JSON object")
            continue
        if record.get("schema_version") != SCHEMA_VERSION:
            errors.append(f"line {number}: schema_version "
                          f"{record.get('schema_version')!r}")
        kind = record.get("type")
        if kind not in REQUIRED:
            errors.append(f"line {number}: unknown type {kind!r}")
            continue
        missing = [k for k in REQUIRED[kind] if k not in record]
        if missing:
            errors.append(f"line {number}: {kind} lacks {missing}")
        if kind == "update":
            if record.get("verdict") not in VERDICTS:
                errors.append(f"line {number}: verdict "
                              f"{record.get('verdict')!r}")
            if not isinstance(record.get("malicious"), bool):
                errors.append(f"line {number}: malicious "
                              f"{record.get('malicious')!r} is not a bool")


def check_order(types, errors):
    if not types:
        errors.append("empty record")
        return
    if types.count("run") != 1 or types[0] != "run":
        errors.append("want exactly one run record, first")
    if types.count("summary") != 1 or types[-1] != "summary":
        errors.append("want exactly one summary record, last")
    ranks = [ORDER.index(t) for t in types if t in ORDER]
    if ranks != sorted(ranks):
        errors.append("records out of order (want run, update*, round*, "
                      "summary)")


def check_counts(records, errors):
    tally = Counter()  # (round, verdict, malicious) -> updates
    for r in records:
        if r.get("type") == "update":
            tally[(r["round"], r["verdict"], r["malicious"])] += 1
    rounds = [r for r in records if r.get("type") == "round"]
    total = Counter()
    for r in rounds:
        n = r["round"]

        def count(verdicts, malicious):
            return sum(tally[(n, v, m)] for v in verdicts for m in malicious)

        kept = ("accepted", "deferred")
        want = {
            "accepted": count(["accepted"], [False, True]),
            "rejected": count(["rejected"], [False, True]),
            "deferred": count(["deferred"], [False, True]),
            "buffered": count(VERDICTS, [False, True]),
            "tp": count(["rejected"], [True]),
            "fp": count(["rejected"], [False]),
            "tn": count(kept, [False]),
            "fn": count(kept, [True]),
        }
        have = {k: r[k] for k in ("accepted", "rejected", "deferred",
                                  "buffered")}
        have.update(r["confusion"])
        for key, value in want.items():
            if have.get(key) != value:
                errors.append(f"round {n}: {key} is {have.get(key)} but "
                              f"the update records count {value}")
        total.update(r["confusion"])
    summary = records[-1] if records else {}
    if summary.get("type") == "summary":
        if summary["rounds"] != len(rounds):
            errors.append(f"summary rounds {summary['rounds']} != "
                          f"{len(rounds)} round records")
        for key in ("tp", "fp", "tn", "fn"):
            if summary["confusion"].get(key) != total[key]:
                errors.append(f"summary confusion {key} "
                              f"{summary['confusion'].get(key)} != "
                              f"{total[key]} summed over rounds")


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: validate_record.py RECORD.jsonl", file=sys.stderr)
        return 2
    records = load(argv[1])
    errors = []
    check_schema(records, errors)
    if not errors:
        check_order([r["type"] for r in records], errors)
    if not errors:
        check_counts(records, errors)
    if errors:
        for error in errors:
            print(f"{argv[1]}: {error}", file=sys.stderr)
        return 1
    counts = Counter(r["type"] for r in records)
    print(f"{argv[1]}: valid run record ({counts['update']} update, "
          f"{counts['round']} round records)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
