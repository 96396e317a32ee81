"""The pair suites against the per-pair loops they replaced (`reference_suites`).

The axioms, locality, skew and closure suites read the pair analysis and
build a witness only where a record prints one.  Each suite is run as it
is and again with the loops of `reference_suites` in place of its
locality, skew and weak-associativity runners, and the records must agree
field by field: on the seven fixtures and on `matrix_algebra(a3, 3)`, under
every q of `QS` and under from-cocycle where it is defined, and on seeded
perturbed tables, on which skew-symmetry fails and more than
`MAX_WITNESSES` (u, w) fail weak associativity, so the witness cut shows.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
import reference_suites
from reference_tables import index_from_dense, table_of
from test_pair_analysis import NAMES, QS

import vertexcalc.suite as suite_module
from vertexcalc.algebra import AlgebraStructure
from vertexcalc.construct import matrix_algebra
from vertexcalc.fileio import AlgebraBundle, parse_algebra_file
from vertexcalc.suite import MAX_WITNESSES, SuiteOptions, run_suite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SUITES = ("axioms", "locality", "skew", "closure")


def _perturbed(alg: AlgebraStructure, rng, cells: int, variant: str) -> AlgebraStructure:
    """alg with `cells` random mode products replaced, none on the vacuum (D stays as it is)."""
    table = table_of(alg)
    targets = [j for j in range(alg.dim) if j != alg.vacuum]
    for _ in range(cells):
        key = (rng.randrange(alg.dim), rng.choice(targets))
        vec = tuple(rng.choice((0, 0, 1, -1, 2, Fraction(1, 2))) for _ in range(alg.dim))
        table[key] = {rng.randrange(-3, 2): vec}
    index = index_from_dense(table, alg.dim)
    return AlgebraStructure(alg.basis, alg.vacuum, index, assoc_variant=variant)


def _bundles():
    """(name, bundle, the q options to run it under)."""
    cases = []
    fixed = [str(q) for q in QS]
    for name in NAMES:
        bundle = parse_algebra_file(FIXTURES / f"{name}.json")
        graded = bundle.grading is not None and bundle.cocycle is not None
        cases.append((name, bundle, fixed + ["from-cocycle"] * graded))
    a3 = parse_algebra_file(FIXTURES / "a3.json").alg
    cases.append(("m3a3", AlgebraBundle(alg=matrix_algebra(a3, 3), name="m3a3"), fixed))
    rng = random.Random(33)
    for name in ("ut2", "m2a3"):
        base = parse_algebra_file(FIXTURES / f"{name}.json").alg
        for variant in ("strong", "weak"):
            alg = _perturbed(base, rng, 3, variant)
            cases.append((f"{name}-perturbed-{variant}", AlgebraBundle(alg=alg, name=name), fixed))
    return cases


BUNDLES = _bundles()


def _reference_report(bundle, suite, options, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(suite_module, "_assoc_record", reference_suites.assoc_record)
        for name, runner in reference_suites.reference_runners().items():
            patch.setitem(suite_module._RUNNERS, name, runner)
        return run_suite(bundle, suite, options)


@pytest.mark.parametrize("name, bundle, qs", BUNDLES, ids=[c[0] for c in BUNDLES])
def test_the_pair_suites_match_the_per_pair_loops(name, bundle, qs, monkeypatch):
    seen = set()
    for q in qs:
        options = SuiteOptions(q=q)
        for suite in SUITES:
            got = run_suite(bundle, suite, options).records
            want = _reference_report(bundle, suite, options, monkeypatch).records
            assert [r.id for r in got] == [r.id for r in want], (name, q, suite)
            for g, w in zip(got, want):
                assert vars(g) == vars(w), (name, q, suite, g.id)
                if g.id.endswith("weak-associativity"):
                    seen.add(("assoc", g.verdict, len(g.witnesses)))
                elif g.id.startswith("skew/") and not g.id.startswith("skew/equivalence/"):
                    seen.add(("skew", g.verdict))
    if "perturbed" in name:
        # the perturbation reaches a failing skew pair and cuts the witness list
        assert ("skew", "fails") in seen and ("assoc", "fail", MAX_WITNESSES) in seen
        alg = bundle.alg
        uniform = alg.assoc_variant == "strong"
        assert len(alg._pairs.weak_assoc_failures(uniform)) > MAX_WITNESSES
