"""Run the end-to-end benchmark on two source trees in alternating pairs.

    python3 scripts/bench_pairs.py --base ../parent --change . \
        --workload construct-deep --pairs 10 --seconds 30 --seed 2501

Each tree is a git checkout of this repository (a clone or a
worktree), and its own perfbench/run.py runs against its own src/.
Pair i runs seed + i on both trees, one process at a time: the base
first on even i, the change first on odd i.  With several --workload
options every pair runs each of them in turn.

One entry is appended to BENCH_pipeline.json at the root of the
repository that holds this script.  It records the two commits and
whether each tree's tracked files differ from its commit, the
environment (Python, numpy, nproc) and, per workload and end-to-end
metric of BENCHMARK.json, every run's value, the median and Q1-Q3 of
each tree, and in how many pairs the change was better.  Quartiles
are statistics.quantiles(values, n=4), as in perfbench/README.md.  The
rounds each run made are kept too.  A run that exits non-zero does not
stop the others: the entry lists it under failed_runs (side, pair,
workload, seed, exit code and last stderr line), the summaries take only
the runs that finished, and its workload's all_correct is false.
Standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "BENCH_pipeline.json"
SIDES = ("base", "change")


def _git(tree: Path, *argv: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(tree), *argv], capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def describe_tree(tree: Path) -> dict:
    """The commit of a tree, and whether its tracked files differ from it."""
    status = _git(tree, "status", "--porcelain", "--untracked-files=no")
    return {"commit": _git(tree, "rev-parse", "HEAD"), "dirty": bool(status)}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench/run.py process: its metrics, rounds and correctness, or
    its exit code and last stderr line if it exited non-zero."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return {"exit_code": proc.returncode, "stderr": lines[-1] if lines else ""}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    rounds = re.search(r": (\d+) rounds,", proc.stderr)
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "rounds": int(rounds.group(1)) if rounds else None,
            "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"]}


def summary(values: list[float]) -> dict:
    if len(values) < 2:  # too few finished runs for quartiles
        return {"runs": values, "median": values[0] if values else None,
                "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="the parent's tree")
    parser.add_argument("--change", type=Path, required=True, help="the changed tree")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py in {tree}")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    # workload -> side -> pair index -> result, for the runs that finished
    runs: dict = {w: {side: {} for side in SIDES} for w in args.workload}
    failed_runs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in args.workload:
            for side in order:
                out = run_once(trees[side], workload, args.seed + i, args.seconds)
                head = f"pair {i + 1}/{args.pairs} {workload} {side}"
                if "exit_code" in out:
                    failed_runs.append({"side": side, "pair": i + 1, "workload": workload,
                                        "seed": args.seed + i, **out})
                    print(f"{head}: exited {out['exit_code']}: {out['stderr']}",
                          file=sys.stderr)
                    continue
                runs[workload][side][i] = out
                print(f"{head}: "
                      f"{out['metrics'].get('instance_ms_mean', float('nan')):.3f} ms, "
                      f"{out['rounds']} rounds", file=sys.stderr)

    workloads = {}
    for workload, by_side in runs.items():
        both = by_side["base"].keys() & by_side["change"].keys()
        entry = {}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: {i: r["metrics"][name] for i, r in by_side[side].items()}
                      for side in SIDES}
            better = sum((values["change"][i] < values["base"][i]) if lower
                         else (values["change"][i] > values["base"][i]) for i in both)
            entry[name] = {"unit": metric["unit"], "better": metric["better"],
                           **{side: summary(list(values[side].values())) for side in SIDES},
                           "change_better_pairs": better}
        entry["rounds"] = {side: [r["rounds"] for r in by_side[side].values()]
                           for side in SIDES}
        entry["all_correct"] = (
            not any(f["workload"] == workload for f in failed_runs)
            and all(r["correct"] and not r["failed"]
                    for side in SIDES for r in by_side[side].values()))
        workloads[workload] = entry

    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True).stdout.strip()
    record = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "base": describe_tree(trees["base"]),
        "change": describe_tree(trees["change"]),
        "environment": {"python": platform.python_version(), "numpy": numpy_version,
                        "nproc": (len(os.sched_getaffinity(0))
                                  if hasattr(os, "sched_getaffinity") else os.cpu_count())},
        "pairs": args.pairs, "seconds": args.seconds,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "workloads": workloads,
        "failed_runs": failed_runs,
    }
    history = json.loads(RECORD.read_text()) if RECORD.exists() else []
    history.append(record)
    RECORD.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
    print(f"appended an entry to {RECORD}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
