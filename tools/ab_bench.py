#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark on two versions of the repository.

    python3 tools/ab_bench.py PARENT CHANGE --pairs N --seconds S --first-seed K \\
        --out BENCH_NN.json

PARENT and CHANGE are each a directory (a source checkout, copied) or a git
revision of the current repository (exported with `git archive`).  Each side
runs from its own fresh copy, with no `__pycache__` and with
PYTHONDONTWRITEBYTECODE=1, so every run compiles the sources it times.  Seed
K + p is pair p's seed; the parent goes first on even p and the change on
odd p, and within a seed every workload runs its two sides back to back.
Each run is `python3 perfbench/run.py --workload W --seed SEED --seconds S
--trace 0`, with the workloads and their end-to-end metrics and bounds read
from the parent's BENCHMARK.json.  The output holds, per workload, every run
and a summary of each metric: the quartiles of each side, the pairs the
change wins (ties count for neither), the ratio of the medians and whether
it is within the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_result(stdout: str) -> dict:
    """A run's record from perfbench/run.py's output: its last line, with the metric values."""
    result = json.loads(stdout.strip().splitlines()[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {key: result[key] for key in ("correct", "failed", "attempted")} | values


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 5), "median": round(median, 5), "q3": round(q3, 5)}


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    """The summary block of one workload from its runs ({"parent": record, "change": record})."""
    summary: dict = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(run["parent"][name], run["change"][name]) for run in runs]
        parent = quartiles([p for p, _c in pairs])
        change = quartiles([c for _p, c in pairs])
        ratio = round(change["median"] / parent["median"], 4)
        summary[name] = {
            "parent": parent,
            "change": change,
            "change_wins": sum(c < p if lower else c > p for p, c in pairs),
            "pairs": len(pairs),
            "median_ratio": ratio,
            "bound": metric["bound"],
            "within_bound": ratio <= 1 + metric["bound"] if lower else ratio >= 1 - metric["bound"],
        }
    summary["failed"] = {side: sum(run[side]["failed"] for run in runs) for side in SIDES}
    return summary


def fresh_copy(source: str, into: Path) -> Path:
    """A copy of a directory, or the export of a git revision, with no bytecode caches."""
    if Path(source).is_dir():
        ignore = shutil.ignore_patterns("__pycache__", ".git", ".pytest_cache")
        shutil.copytree(source, into, ignore=ignore)
        return into
    into.mkdir()
    archive = into.parent / f"{into.name}.tar"
    with archive.open("wb") as out:
        subprocess.run(["git", "-C", str(REPO), "archive", source], stdout=out, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()
    return into


def run_side(root: Path, workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, check=True)
    return parse_result(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be positive")
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as scratch:
        sources = dict(zip(SIDES, (args.parent, args.change)))
        roots = {side: fresh_copy(sources[side], Path(scratch) / side) for side in SIDES}
        config = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
        names = [workload["name"] for workload in config["workloads"]]
        runs: dict = {name: [] for name in names}
        for p in range(args.pairs):
            seed = args.first_seed + p
            order = SIDES if p % 2 == 0 else SIDES[::-1]
            for name in names:
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_side(roots[side], name, seed, args.seconds)
                runs[name].append(run)
                print(f"seed {seed} {name}: parent {run['parent']['pass_s']:.5f} "
                      f"change {run['change']['pass_s']:.5f} pass_s", file=sys.stderr)
    seeds = f"{args.first_seed}-{args.first_seed + args.pairs - 1}"
    doc = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
        f"{args.seconds} --trace 0",
        "pairs": f"{args.pairs} per workload, seeds {seeds}, one seed per pair; the parent runs "
        "first on even offsets from the first seed, the change on odd ones; within a seed the "
        "two sides of one workload run back to back; PYTHONDONTWRITEBYTECODE=1 and no "
        "__pycache__ in either copy",
        "host": {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))},
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs of each side",
        "workloads": {
            name: {"summary": summarise(runs[name], config["end_to_end"]), "runs": runs[name]}
            for name in names
        },
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
