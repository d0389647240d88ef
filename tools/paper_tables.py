#!/usr/bin/env python3
"""Run the paper's attack x defense grids through run_sweep and render them.

Each entry of SPECS is one grid of the paper's evaluation (Tables 2-10,
Fig. 6, Fig. 7) or of this repo's extension studies: a title, the run_sweep
flags that differ from the shared evaluation population, the attack and
defense lists and the round count. A spec runs into its own resumable
run_sweep directory, OUT/<spec>-r<rounds>/ (Fig. 6: one run_sweep call per
staleness limit, OUT/fig6-r<rounds>/limit<L>/). Rerunning the same command
skips finished cells and resumes a killed one from its checkpoint.

Once every cell is done, the directory's results.jsonl (each cell's `run`
record followed by its `summary` record) is rendered as the paper-shaped
markdown table: accuracy in percent as mean +- sample std over
the seeds, with the mean detection precision and recall. The table is
printed and written to OUT/<spec>-r<rounds>/table.md.

Usage:
  paper_tables.py table2 fig7 [--rounds 3] [--seeds 7] [--out DIR]
  paper_tables.py all --run-sweep build/examples/run_sweep

Exit status: 0 when every requested grid is complete, 1 when a run_sweep
call fails or a grid is missing cells, 2 on bad arguments.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field

# The shared evaluation population: the paper's section 5.1 setting scaled
# 2x down (100 -> 50 clients, buffer 40 -> 20, 20% attackers), staleness
# limit 20 and Zipf s = 1.2 as published.
POPULATION = {"clients": 50, "malicious": 10, "buffer": 20,
              "staleness-limit": 20, "dirichlet": 0.1, "zipf": 1.2}

PAPER_ATTACKS = ["GD", "LIE", "min-max", "min-sum"]
PAPER_DEFENSES = ["fedbuff", "fldetector", "asyncfilter"]


@dataclass(frozen=True)
class Spec:
    title: str
    flags: dict  # run_sweep flags; override POPULATION
    attacks: list
    defenses: list
    rounds: int = 18
    # Fig. 6: one run_sweep call per --staleness-limit value.
    staleness_limits: list = field(default_factory=list)


SPECS = {
    "table2": Spec("Table 2: AsyncFilter defends against attacks on MNIST",
                   {"profiles": "mnist"}, PAPER_ATTACKS + ["none"],
                   PAPER_DEFENSES),
    "table3": Spec("Table 3: AsyncFilter defends against attacks on "
                   "FashionMNIST", {"profiles": "fashionmnist"},
                   PAPER_ATTACKS + ["none"], PAPER_DEFENSES),
    "table4": Spec("Table 4: AsyncFilter defends against attacks on CIFAR-10",
                   {"profiles": "cifar10"}, PAPER_ATTACKS + ["none"],
                   PAPER_DEFENSES),
    # CINIC is the slowest-converging profile; it gets a little more runway.
    "table5": Spec("Table 5: AsyncFilter defends against attacks on CINIC-10",
                   {"profiles": "cinic10"}, PAPER_ATTACKS + ["none"],
                   PAPER_DEFENSES, rounds=22),
    "table6": Spec("Table 6: robustness to data heterogeneity on CINIC-10 "
                   "(Dirichlet 0.05)",
                   {"profiles": "cinic10", "dirichlet": 0.05}, PAPER_ATTACKS,
                   PAPER_DEFENSES, rounds=22),
    "table7": Spec("Table 7: robustness to data heterogeneity on "
                   "FashionMNIST (Dirichlet 0.01)",
                   {"profiles": "fashionmnist", "dirichlet": 0.01},
                   PAPER_ATTACKS, PAPER_DEFENSES),
    "table8": Spec("Table 8: robustness to doubled attackers (40%) on "
                   "CINIC-10", {"profiles": "cinic10", "malicious": 20},
                   PAPER_ATTACKS, PAPER_DEFENSES, rounds=22),
    "table9": Spec("Table 9: robustness to doubled attackers (40%) on "
                   "FashionMNIST", {"profiles": "fashionmnist",
                                    "malicious": 20},
                   PAPER_ATTACKS, PAPER_DEFENSES),
    "table10": Spec("Table 10: robustness to speed heterogeneity on "
                    "FashionMNIST (Zipf 2.5)",
                    {"profiles": "fashionmnist", "zipf": 2.5}, PAPER_ATTACKS,
                    PAPER_DEFENSES),
    "fig6": Spec("Fig. 6: AsyncFilter vs the server staleness limit "
                 "(FashionMNIST)", {"profiles": "fashionmnist"},
                 ["GD", "LIE"], ["asyncfilter"], rounds=15,
                 staleness_limits=[5, 10, 15, 20]),
    "fig7": Spec("Fig. 7: AsyncFilter 3-means vs 2-means (FashionMNIST)",
                 {"profiles": "fashionmnist"}, PAPER_ATTACKS,
                 ["asyncfilter", "asyncfilter2means"]),
    "midband": Spec("Ablation: mid-band policy (FashionMNIST)",
                    {"profiles": "fashionmnist"}, PAPER_ATTACKS + ["none"],
                    ["asyncfilter", "asyncfilterdefermid",
                     "asyncfilterrejectmid"]),
    "extra_defenses": Spec(
        "Extension: AsyncFilter vs clean-dataset and synchronous defenses "
        "(FashionMNIST)", {"profiles": "fashionmnist"}, ["GD", "min-max"],
        ["asyncfilter", "zeno", "aflguard", "fltrust", "multikrum",
         "trimmedmean", "median", "nnm", "bucketing"]),
    "adaptive_attacks": Spec(
        "Extension: defense-aware Adaptive and data-level Label-Flip attacks "
        "(FashionMNIST)", {"profiles": "fashionmnist"},
        ["adaptive", "label-flip", "GD", "none"], PAPER_DEFENSES),
}


def run_dirs(name, spec, rounds, out):
    """(directory, extra run_sweep flags, column label) per run_sweep call."""
    root = os.path.join(out, f"{name}-r{rounds}")
    if not spec.staleness_limits:
        return root, [(root, {}, None)]
    return root, [(os.path.join(root, f"limit{limit}"),
                   {"staleness-limit": limit}, f"limit={limit}")
                  for limit in spec.staleness_limits]


def sweep_command(run_sweep, spec, rounds, seeds, out_dir, extra):
    flags = dict(POPULATION)
    flags.update(spec.flags)
    flags.update(extra)
    flags.update({"attacks": ",".join(spec.attacks),
                  "defenses": ",".join(spec.defenses),
                  "seeds": ",".join(str(s) for s in seeds),
                  "rounds": rounds, "out": out_dir})
    return [run_sweep] + [f"--{k}={v}" for k, v in flags.items()]


def load_cells(path):
    """(run, summary) record pairs, one per finished cell."""
    with open(path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    runs = [r for r in records if r["type"] == "run"]
    summaries = [r for r in records if r["type"] == "summary"]
    return list(zip(runs, summaries))


def format_cell(cells):
    acc = [100.0 * summary["final_accuracy"] for _, summary in cells]
    text = f"{statistics.mean(acc):.1f}"
    if len(acc) > 1:
        text += f" ± {statistics.stdev(acc):.1f}"
    precision = statistics.mean(s["detection_precision"] for _, s in cells)
    recall = statistics.mean(s["detection_recall"] for _, s in cells)
    return f"{text} (P {precision:.2f} / R {recall:.2f})"


def render(name, spec, rounds, seeds, runs):
    """Markdown table of one spec, or None when a cell is missing."""
    # Grid specs: one row per defense, one column per attack. The staleness
    # sweep has a single defense: one row per attack, one column per limit.
    sweep = bool(spec.staleness_limits)
    columns = [label for _, _, label in runs] if sweep else spec.attacks
    row_keys = spec.attacks if sweep else spec.defenses
    cells = {}
    expected = 0
    for out_dir, _, label in runs:
        expected += len(spec.attacks) * len(spec.defenses) * len(seeds)
        path = os.path.join(out_dir, "results.jsonl")
        if not os.path.exists(path):
            continue
        for run, summary in load_cells(path):
            if run["seed"] not in seeds:
                continue
            key = (run["attack"], label) if sweep else (run["defense"],
                                                        run["attack"])
            cells.setdefault(key, []).append((run, summary))
    found = sum(len(v) for v in cells.values())
    print(f"{name}: {found} of {expected} cells")
    if found != expected:
        return None
    lines = [f"### {spec.title}", "",
             f"{rounds} rounds, seeds {', '.join(map(str, seeds))}; "
             "accuracy % as mean ± std over seeds, (P / R) = mean detection "
             "precision / recall.", "",
             "| " + " | ".join(["Method" if not sweep else "Attack"] +
                               columns) + " |",
             "|" + "---|" * (len(columns) + 1)]
    for row in row_keys:
        lines.append("| " + " | ".join(
            [row] + [format_cell(cells[(row, col)]) for col in columns]) +
            " |")
    return "\n".join(lines) + "\n"


def main(argv):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(
        description="Run paper grids through run_sweep and render them.")
    parser.add_argument("specs", nargs="*", metavar="SPEC",
                        help="spec names, or 'all'")
    parser.add_argument("--rounds", type=int,
                        help="rounds per cell (default: each spec's own)")
    parser.add_argument("--seeds", default=[7, 108, 209],
                        type=lambda text: [int(s) for s in text.split(",")],
                        help="comma-separated seeds [7,108,209]")
    parser.add_argument("--out", default="paper_tables_out",
                        help="root of the per-spec run_sweep directories")
    parser.add_argument("--run-sweep", default=os.path.join(
        repo, "build", "examples", "run_sweep"), help="run_sweep binary")
    args = parser.parse_args(argv[1:])
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be >= 1")
    names = list(SPECS) if args.specs == ["all"] else args.specs
    unknown = [n for n in names if n not in SPECS]
    if not names or unknown:
        parser.error(f"unknown or missing spec(s) {unknown}; "
                     f"choose from: all {' '.join(SPECS)}")

    status = 0
    for name in names:
        spec = SPECS[name]
        rounds = args.rounds or spec.rounds
        root, runs = run_dirs(name, spec, rounds, args.out)
        for out_dir, extra, _ in runs:
            command = sweep_command(args.run_sweep, spec, rounds, args.seeds,
                                    out_dir, extra)
            print("+ " + " ".join(command), flush=True)
            if subprocess.run(command).returncode != 0:
                print(f"error: run_sweep failed for {name}", file=sys.stderr)
                return 1
        table = render(name, spec, rounds, args.seeds, runs)
        if table is None:
            status = 1
            continue
        with open(os.path.join(root, "table.md"), "w") as f:
            f.write(table)
        print(table)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
