"""Run one vertexcalc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/``.  Load is a closed loop in one process and one thread: each pass
starts after the previous one ended.  Every operation's output is checked.
Set-up and pass times are wall seconds corrected for the shared machine's
speed at the time (``speedclock.py``); the raw wall times are kept too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run wraps the
package's layer functions and reports per-layer counts and self times.  The
line before it holds the provenance and every sample, normalised and wall.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans
from speedclock import SpeedClock
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

# set-up is short, so each round repeats it
SETUP_REPS = 9
# the cold median should have at least two samples and the warm median at
# least three (a median of two is their mean, which one slow spell of the
# machine moves), unless that would stretch the run past OVERRUN * --seconds
MIN_ROUNDS = 2
MIN_WARM_PASSES = 3
OVERRUN = 1.5


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


class Samples:
    """Normalised and wall seconds of each set-up and pass, by kind."""

    KINDS = ("setup", "cold", "warm")

    def __init__(self):
        self.normal: dict[str, list[float]] = {k: [] for k in self.KINDS}
        self.wall: dict[str, list[float]] = {k: [] for k in self.KINDS}
        self.probes = 0

    def add(self, kind: str, normal: float, wall: float) -> None:
        self.normal[kind].append(normal)
        self.wall[kind].append(wall)


def import_package():
    """Import vertexcalc afresh, dropping any module objects already loaded."""
    for name in [n for n in sys.modules if n.split(".")[0] == "vertexcalc"]:
        del sys.modules[name]
    vc = importlib.import_module("vertexcalc")
    importlib.import_module("vertexcalc.cli")
    return vc


def timed_setup(workload, seed: int, clock: SpeedClock, samples: Samples):
    """Import and set up SETUP_REPS times; returns the last state."""
    for _ in range(SETUP_REPS):
        gc.collect()
        normal, wall, _, state = clock.measure(
            lambda: workload.setup(import_package(), seed, ROOT)
        )
        samples.add("setup", normal, wall)
    return state


def check_outputs(workload, state, outputs: list, tally: Tally) -> None:
    for label, output in outputs:
        tally.attempted += 1
        if isinstance(output, Exception):
            problems = [f"{label}: raised {output!r}"]
        else:
            problems = workload.check(state, label, output)
        if problems:
            tally.failed += 1
            tally.problems.extend(problems)


def run_checked(workload, state, tally: Tally, clock: SpeedClock, samples: Samples, kind: str):
    """One timed pass; its outputs are checked after the clock stops."""
    gc.collect()
    normal, wall, probes, outputs = clock.measure(workload.run_pass, state)
    samples.add(kind, normal, wall)
    samples.probes += probes
    check_outputs(workload, state, outputs, tally)


def timed_run(workload, seed: int, seconds: int, tally: Tally, clock: SpeedClock) -> Samples:
    """Rounds of (fresh import and set-up, cold pass, warm pass), then warm passes.

    The machine's speed drifts, so cold and warm samples alternate across the
    run.  Rounds continue while another fits in `seconds` of wall time, then
    warm passes fill the time left.  The first round's cold pass is the
    process's first.
    """
    start = perf_counter()
    samples = Samples()

    def fits(more: float, minimum: bool) -> bool:
        limit = seconds * OVERRUN if minimum else seconds
        return perf_counter() - start + more <= limit

    def median_wall(kind: str) -> float:
        return statistics.median(samples.wall[kind])

    def another_round() -> bool:
        more = median_wall("cold") + median_wall("warm")
        return fits(more, len(samples.wall["cold"]) < MIN_ROUNDS)

    while not samples.wall["cold"] or another_round():
        state = timed_setup(workload, seed, clock, samples)
        run_checked(workload, state, tally, clock, samples, "cold")
        run_checked(workload, state, tally, clock, samples, "warm")
    while fits(median_wall("warm"), len(samples.wall["warm"]) < MIN_WARM_PASSES):
        run_checked(workload, state, tally, clock, samples, "warm")
    return samples


def timed_pass(workload, state) -> tuple[float, list]:
    """One pass timed by wall clock alone, for the traced run."""
    gc.collect()
    t0 = perf_counter()
    outputs = workload.run_pass(state)
    return perf_counter() - t0, outputs


def traced_run(workload, state, seed: int, tally: Tally) -> tuple[dict, dict]:
    base, outputs = timed_pass(workload, state)
    check_outputs(workload, state, outputs, tally)
    with spans.Recorder() as rec:
        # set-up is traced too, for the parse and build layers it drives
        workload.setup(sys.modules["vertexcalc"], seed, ROOT)
        traced, outputs = timed_pass(workload, state)
    check_outputs(workload, state, outputs, tally)
    metrics = spans.layer_metrics(rec)
    for suite, secs in workload.suite_times(state).items():
        metrics[f"suite.{suite}.s"] = secs
    metrics["trace.overhead_s"] = traced - base
    metrics["failed_ratio"] = tally.failed / tally.attempted
    return metrics, {"untraced_pass_s": base, "traced_pass_s": traced, "spans": len(rec.names)}


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "vertexcalc" / "__init__.py").is_file() or not (
        ROOT / "fixtures"
    ).is_dir():
        print(f"error: {ROOT} holds no vertexcalc sources and fixtures", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]()
    tally = Tally()
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    with SpeedClock() as clock:
        if args.trace:
            samples = Samples()
            state = timed_setup(workload, args.seed, clock, samples)
            values, traced = traced_run(workload, state, args.seed, tally)
            units = dict(spans.PER_LAYER)
            detail.update(traced)
        else:
            samples = timed_run(workload, args.seed, args.seconds, tally, clock)
            values = {
                "setup_s": statistics.median(samples.normal["setup"]),
                "pass_s": statistics.median(samples.normal["warm"]),
                "cold_pass_s": statistics.median(samples.normal["cold"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = {"setup_s": "s", "pass_s": "s", "cold_pass_s": "s", "peak_rss_mb": "MB"}
    for kind in Samples.KINDS:
        detail[f"{kind}_normalised_s"] = samples.normal[kind]
        detail[f"{kind}_wall_s"] = samples.wall[kind]
    detail["probes"] = samples.probes
    detail["problems"] = tally.problems[:20]
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(detail))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
