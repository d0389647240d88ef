#!/usr/bin/env python3
"""Run every workload several times and compare two sets of runs.

Measure (each workload × repeat is its own process via run.py, for
run_seconds from BENCHMARK.json; the workload order alternates between
repeats so slow drift does not favour one):
  python3 e2e_bench/run_bench.py [--workloads lenet_gd,vgg_lie] [--repeats 3]
      [--seed 7] [--trace] [--out BENCH_e2e.json]

Compare two BENCH_e2e.json files of the same seed, one row per workload ×
end-to-end metric, against the bounds in BENCHMARK.json:
  python3 e2e_bench/run_bench.py --compare BASE.json HEAD.json

A row is "regressed" when HEAD's median is worse than BASE's by more than
the bound, and "unresolved" when either side's spread (quartile distance
over median) exceeds the bound, unless every HEAD run beats every BASE run.
At a fixed seed the final accuracy and detection quality are deterministic,
so they are also compared per workload against absolute tolerances.
Exits 1 on a failed run, a regression, a quality loss, more failed updates
or processes than BASE, a workload or metric missing from HEAD, or two
files measured with different settings.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# Largest absolute loss HEAD may show against BASE at the same seed. A
# change that only reorders floating-point sums may move these a little;
# anything more changed what the system computes.
QUALITY_TOLERANCE = {"final_accuracy": 0.005, "precision": 0.01, "recall": 0.01}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summarize(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def spread(summary):
    return (summary["q3"] - summary["q1"]) / summary["median"] if summary["median"] else 0.0


def quality(raw):
    """Median final accuracy and detection quality over a workload's runs."""
    runs = [run for entry in raw for run in entry["runs"] if run["mode"] == "untraced"]
    return {name: statistics.median(run[name] for run in runs)
            for name in QUALITY_TOLERANCE} if runs else {}


def measure(args, spec):
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    report = {"seed": args.seed, "seconds": seconds, "trace": args.trace,
              "workloads": {w: {"raw": [], "failed_processes": 0} for w in workloads}}
    ok = True
    for repeat in range(args.repeats):
        order = workloads if repeat % 2 == 0 else list(reversed(workloads))
        for workload in order:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(int(args.trace))]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} repeat {repeat}: run failed "
                      f"(status {proc.returncode})", file=sys.stderr)
                report["workloads"][workload]["failed_processes"] += 1
                ok = False
                continue
            result = json.loads(lines[-1])
            runs = json.loads(lines[-2])["runs"]
            report["workloads"][workload]["raw"].append(
                {"repeat": repeat, "result": result, "runs": runs})
            print(f"{workload} repeat {repeat}: {len(runs)} runs, "
                  f"{result['failed']}/{result['attempted']} updates failed",
                  file=sys.stderr)

    kinds = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in kinds}
    print(f"{'workload':16s} {'metric':40s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s}  unit (n)")
    for workload, entry in report["workloads"].items():
        metrics = {}
        for name in units:
            values = [raw["result"]["metrics"][name]["value"] for raw in entry["raw"]]
            if not values:
                continue
            metrics[name] = summarize(values)
            s = metrics[name]
            print(f"{workload:16s} {name:40s} {s['median']:14.6g} {s['q1']:14.6g} "
                  f"{s['q3']:14.6g}  {units[name]} ({len(values)})")
        entry["metrics"] = metrics
        entry["quality"] = quality(entry["raw"])
        for name, value in entry["quality"].items():
            if name not in metrics:
                print(f"{workload:16s} {name:40s} {value:14.6g}")
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0 if ok else 1


def failures(entry):
    """Failed updates and failed processes of one workload's runs."""
    updates = sum(raw["result"]["failed"] for raw in entry["raw"])
    return updates, entry.get("failed_processes", 0)


def compare(base_path, head_path, spec):
    with open(base_path) as f:
        base = json.load(f)
    with open(head_path) as f:
        head = json.load(f)
    bad = False
    for key in ("seed", "seconds", "trace"):
        if base.get(key) != head.get(key):
            print(f"{key} differs: BASE {base.get(key)!r}, HEAD {head.get(key)!r}")
            bad = True
    if base.get("trace"):
        print("traced reports carry per-layer metrics, which have no bounds")
        bad = True
    if bad:
        return 1

    print(f"{'workload':16s} {'metric':16s} {'base':>12s} {'head':>12s} "
          f"{'worse':>8s} {'spread':>8s} {'bound':>7s}  verdict")
    for workload, b_entry in base["workloads"].items():
        h_entry = head["workloads"].get(workload)
        if h_entry is None:
            print(f"{workload:16s} missing from HEAD")
            bad = True
            continue
        (b_updates, b_procs), (h_updates, h_procs) = failures(b_entry), failures(h_entry)
        if h_updates > b_updates or h_procs > b_procs:
            print(f"{workload:16s} failed updates / processes: BASE "
                  f"{b_updates} / {b_procs}, HEAD {h_updates} / {h_procs}")
            bad = True
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = b_entry.get("metrics", {}).get(name)
            h = h_entry.get("metrics", {}).get(name)
            if not b:
                continue
            if not h:
                print(f"{workload:16s} {name:16s} missing from HEAD")
                bad = True
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (h["median"] - b["median"]) / b["median"]
            width = max(spread(b), spread(h))
            if width > metric["bound"]:
                beats_all = all(sign * (hv - bv) < 0
                                for hv in h["values"] for bv in b["values"])
                verdict = "better" if beats_all else "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
                bad = True
            else:
                verdict = "ok"
            print(f"{workload:16s} {name:16s} {b['median']:12.6g} {h['median']:12.6g} "
                  f"{worse:+8.2%} {width:8.2%} {metric['bound']:7.2%}  {verdict}")
        b_quality, h_quality = b_entry.get("quality", {}), h_entry.get("quality", {})
        for name, tolerance in QUALITY_TOLERANCE.items():
            if name not in b_quality:
                continue
            if name not in h_quality:
                print(f"{workload:16s} {name:16s} missing from HEAD")
                bad = True
                continue
            loss = b_quality[name] - h_quality[name]
            verdict = "regressed" if loss > tolerance else "ok"
            bad = bad or loss > tolerance
            print(f"{workload:16s} {name:16s} {b_quality[name]:12.6g} "
                  f"{h_quality[name]:12.6g} {-loss:+8.4f} {'abs':>8s} {tolerance:7.3f}  {verdict}")
    return 1 if bad else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default="",
                        help="comma-separated names (default: all)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7,
                        help="7 while developing; 11 is held out for claims")
    parser.add_argument("--trace", action="store_true",
                        help="collect the per-layer metrics instead")
    parser.add_argument("--out", default="BENCH_e2e.json")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = parser.parse_args(argv[1:])
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
