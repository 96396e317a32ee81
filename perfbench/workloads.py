"""The three benchmark workloads.

A workload object lives for one run.  Its ``setup`` builds the inputs from
a freshly imported package and the seed, and ``run_pass`` performs one pass
of operations and returns ``(label, output)`` pairs.  An operation that
raises yields the exception as its output.  ``check`` returns the problems
found in one output; it runs outside the timed region.

The seed only permutes the order of fixtures and of generators; every check
is invariant under that order.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import oracles
from spans import SUITE_NAMES


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a raising operation is a failed operation
        return exc


@dataclass
class FixturesState:
    vc: object
    paths: list[tuple[str, Path]]


class FixturesAll:
    """`vertexcalc check --suite all --format json` on every shipped fixture."""

    name = "fixtures-all"

    def __init__(self):
        self.pinned = oracles.load_pinned()
        self.first_payload: dict[str, bytes] = {}

    def setup(self, vc, seed: int, root: Path) -> FixturesState:
        order = list(oracles.FIXTURES)
        random.Random(seed).shuffle(order)
        paths = [(name, root / "fixtures" / f"{name}.json") for name in order]
        for _name, path in paths:
            vc.fileio.parse_algebra_file(path)
        return FixturesState(vc, paths)

    def _check_one(self, state: FixturesState, path: Path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = state.vc.cli.main(["check", str(path), "--suite", "all", "--format", "json"])
        return code, buf.getvalue().encode()

    def run_pass(self, state: FixturesState):
        return [(name, _attempt(self._check_one, state, path)) for name, path in state.paths]

    def check(self, state: FixturesState, label: str, output) -> list[str]:
        code, payload = output
        problems = oracles.check_fixture_report(label, code, payload, self.pinned[label])
        if self.first_payload.setdefault(label, payload) != payload:
            problems.append(f"{label}: report bytes differ between passes")
        return problems

    def suite_times(self, state: FixturesState) -> dict[str, float]:
        """Inclusive seconds of each suite, summed over the fixtures."""
        times = dict.fromkeys(SUITE_NAMES, 0.0)
        for _name, path in state.paths:
            bundle = state.vc.fileio.parse_algebra_file(path)
            for suite in SUITE_NAMES:
                t0 = perf_counter()
                state.vc.suite.run_suite(bundle, suite)
                times[suite] += perf_counter() - t0
        return times


# generator sets of the closure workload; the closed spans have ranks 12 and 7
GENERATOR_SETS = (("t*one", "one*E12", "one*E21"), ("t*E12", "t*E21"))


@dataclass
class ClosureState:
    vc: object
    alg: object
    sets: list[list[str]]


class ClosureM2a3:
    """Operator closure of structure operators on the dim-12 fixture m2a3."""

    name = "closure-m2a3"

    def __init__(self):
        self.expected_rank: dict[tuple[str, ...], int] = {}

    def setup(self, vc, seed: int, root: Path) -> ClosureState:
        alg = vc.fileio.parse_algebra_file(root / "fixtures" / "m2a3.json").alg
        rng = random.Random(seed)
        return ClosureState(vc, alg, [rng.sample(s, len(s)) for s in GENERATOR_SETS])

    def _close(self, state: ClosureState, names: list[str]):
        ops = state.vc.operators
        gens = [ops.operator_from_structure(state.alg, state.alg.basis_index(n)) for n in names]
        return ops.closure(gens)

    def run_pass(self, state: ClosureState):
        return [(",".join(names), _attempt(self._close, state, names)) for names in state.sets]

    def check(self, state: ClosureState, label: str, output) -> list[str]:
        names = tuple(label.split(","))
        if names not in self.expected_rank:
            alg = state.alg
            units = [alg.unit(alg.basis_index(n)) for n in names]
            self.expected_rank[names] = len(state.vc.algebra.generate_subalgebra(alg, units))
        return oracles.check_closure(
            names, output, self.expected_rank[names], state.vc.algebra.validate_structure
        )

    def suite_times(self, state: ClosureState) -> dict[str, float]:
        return dict.fromkeys(SUITE_NAMES, 0.0)  # the closure workload runs no suite


SCALE_SUITES = ("axioms", "locality", "skew")


@dataclass
class ScaleState:
    vc: object
    a3: object


class ScaleM3a3:
    """Axioms, locality and skew suites on matrix_algebra(a3, 3), dim 27.

    The dim-27 modules and jacobi suites are left out: one pass of them
    takes minutes.  Those suites are measured on m2a3 in fixtures-all.
    """

    name = "scale-m3a3"

    def __init__(self):
        self.expected_pairs = oracles.expected_nonlocal_pairs()

    def setup(self, vc, seed: int, root: Path) -> ScaleState:
        a3 = vc.fileio.parse_algebra_file(root / "fixtures" / "a3.json")
        vc.construct.matrix_algebra(a3.alg, 3)
        return ScaleState(vc, a3)

    def _bundle(self, state: ScaleState):
        alg = state.vc.construct.matrix_algebra(state.a3.alg, 3)
        return state.vc.fileio.AlgebraBundle(alg=alg, name="m3a3")

    def run_pass(self, state: ScaleState):
        bundle = _attempt(self._bundle, state)
        if isinstance(bundle, Exception):
            return [(suite, bundle) for suite in SCALE_SUITES]
        run = state.vc.suite.run_suite
        return [(suite, _attempt(run, bundle, suite)) for suite in SCALE_SUITES]

    def check(self, state: ScaleState, label: str, output) -> list[str]:
        return oracles.check_scale_report(label, output, self.expected_pairs)

    def suite_times(self, state: ScaleState) -> dict[str, float]:
        """Inclusive seconds of each suite on a freshly built structure."""
        times = dict.fromkeys(SUITE_NAMES, 0.0)
        bundle = self._bundle(state)
        for suite in SCALE_SUITES:
            t0 = perf_counter()
            state.vc.suite.run_suite(bundle, suite)
            times[suite] = perf_counter() - t0
        return times


WORKLOADS = {w.name: w for w in (FixturesAll, ClosureM2a3, ScaleM3a3)}
