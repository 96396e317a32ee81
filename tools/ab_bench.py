#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark on two versions of the repository.

    python3 tools/ab_bench.py PARENT CHANGE --pairs N --seconds S --first-seed K \\
        --out BENCH_NN.json [--workload NAME]...

PARENT and CHANGE are each a directory (a source checkout, copied) or a git
revision of the current repository (exported with `git archive`).  Each side
runs from its own fresh copy, with no `__pycache__` and with
PYTHONDONTWRITEBYTECODE=1, so every run compiles the sources it times.  Seed
K + p is pair p's seed; the parent goes first on even p and the change on
odd p, and within a seed every workload runs its two sides back to back.
Each run is `python3 perfbench/run.py --workload W --seed SEED --seconds S
--trace 0`, with the workloads and their end-to-end metrics and bounds read
from the parent's BENCHMARK.json.  Every workload runs unless `--workload`
names some: it may be repeated, runs the named ones in their BENCHMARK.json
order, and refuses a name that file does not list.  A committed
BENCH_*.json covers every workload; a run of some is a quick look.  The
output holds, per workload, every run and a summary of each metric: the
quartiles of each side, the pairs the change wins (ties count for neither),
the ratio of the medians and whether it is within the metric's bound.  A
run that exits nonzero is recorded with its exit code and the last line of
its stderr, counts as one failure of its side, and is left out of the
metric summaries; the session goes on.
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


def quartiles(values: list[float]) -> dict | None:
    """The quartiles of the values, each the value itself when there is one, None for none."""
    if not values:
        return None
    values = values if len(values) > 1 else values * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 5), "median": round(median, 5), "q3": round(q3, 5)}


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    """The summary block of one workload from its runs ({"parent": record, "change": record}).

    A failed run (a record with an exit code) gives no metric values: its
    side's quartiles leave it out, and its pair counts for neither side.
    """
    summary: dict = {}
    for metric in end_to_end:
        name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
        values = {side: [run[side][name] for run in runs if name in run[side]] for side in SIDES}
        pairs = [(run["parent"][name], run["change"][name]) for run in runs
                 if name in run["parent"] and name in run["change"]]
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        ratio = within = None
        if parent and change:
            ratio = round(change["median"] / parent["median"], 4)
            within = ratio <= 1 + bound if lower else ratio >= 1 - bound
        summary[name] = {
            "parent": parent,
            "change": change,
            "change_wins": sum(c < p if lower else c > p for p, c in pairs),
            "pairs": len(pairs),
            "median_ratio": ratio,
            "bound": bound,
            "within_bound": within,
        }
    summary["failed"] = {
        side: sum(1 if "exit_code" in run[side] else run[side]["failed"] for run in runs)
        for side in SIDES
    }
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
    """One run's record (parse_result), or its exit code and last stderr line if it failed."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    if done.returncode:
        lines = done.stderr.strip().splitlines()
        return {"exit_code": done.returncode, "error": lines[-1] if lines else ""}
    return parse_result(done.stdout)


def describe(record: dict) -> str:
    """A run's pass_s, or how it failed, for the progress line."""
    if "exit_code" in record:
        return f"failed with exit code {record['exit_code']}"
    return f"{record['pass_s']:.5f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", help="run only this workload (repeatable)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be positive")
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as scratch:
        sources = dict(zip(SIDES, (args.parent, args.change)))
        roots = {side: fresh_copy(sources[side], Path(scratch) / side) for side in SIDES}
        config = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
        names = [workload["name"] for workload in config["workloads"]]
        if unknown := sorted(set(args.workload or ()) - set(names)):
            parser.error(f"unknown workload {', '.join(unknown)}; choose from {', '.join(names)}")
        names = [name for name in names if args.workload is None or name in args.workload]
        runs: dict = {name: [] for name in names}
        for p in range(args.pairs):
            seed = args.first_seed + p
            order = SIDES if p % 2 == 0 else SIDES[::-1]
            for name in names:
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_side(roots[side], name, seed, args.seconds)
                runs[name].append(run)
                print(f"seed {seed} {name} pass_s: parent {describe(run['parent'])}, "
                      f"change {describe(run['change'])}", file=sys.stderr)
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
