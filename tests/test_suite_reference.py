"""The pair suites against the per-pair loops they replaced (`reference_suites`).

The axioms, locality, skew, jacobi and closure suites read the pair
analysis and build a witness only where a record prints one.  Each suite is
run as it is and again with the loops of `reference_suites` in place of its
locality, skew, jacobi and weak-associativity runners, and the records must
agree field by field: on the seven fixtures and on `matrix_algebra(a3, 3)`,
under every q of `QS` and under from-cocycle where it is defined, and on
seeded perturbed tables, on which skew-symmetry fails, both halves of the
q-Jacobi identity fail and more than `MAX_WITNESSES` (u, w) fail weak
associativity, so the witness cut shows.  On the perturbed m2a3 tables one
jacobi record names both halves, and a pair fails the q-Jacobi identity on
more than `MAX_WITNESSES` w, so that cut shows too.

The witnesses the checks read off the pair analysis are held equal to the
hand-built assemblies of `reference_suites` and to the unshared
Jacobi-like loop of `test_construct`: on the seven fixtures under every q
of `QS`, on the seeded perturbed tables of `test_construct`, and on a
column module with one action mode doubled, which is not the adjoint and
fails weak associativity and locality transfer.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
import reference_suites
from reference_tables import index_from_dense, table_of
from test_construct import _assoc_cases, _unshared_jacobi_like
from test_pair_analysis import NAMES, QS

import vertexcalc.suite as suite_module
from vertexcalc.algebra import (
    AlgebraStructure,
    check_jacobi,
    find_locality_k,
    find_weak_assoc_l,
    weak_assoc_triple,
)
from vertexcalc.construct import (
    check_jacobi_like,
    from_assoc_with_derivation,
    matrix_algebra,
    rmap_identity,
)
from vertexcalc.errors import VertexCalcError
from vertexcalc.fileio import AlgebraBundle, parse_algebra_file
from vertexcalc.modules import (
    ModuleStructure,
    adjoint_module,
    check_locality_transfer,
    check_module,
    wn_module,
)
from vertexcalc.suite import MAX_WITNESSES, SuiteOptions, run_suite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SUITES = ("axioms", "locality", "skew", "jacobi", "closure")


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
                elif g.id.startswith("jacobi/") and not g.id.startswith("jacobi/round-trip/"):
                    halves = {text.split(",")[0] for text in g.witnesses}
                    seen.update(("jacobi", half) for half in halves)
                    seen.add(("jacobi halves", len(halves)))
                    if q != "from-cocycle" and len(g.witnesses) == MAX_WITNESSES:
                        u, v = map(bundle.alg.basis_index, g.id[len("jacobi/") :].split(","))
                        failing = bundle.alg._pairs.jacobi_witnesses(u, v, Fraction(q), None)
                        seen.add(("jacobi cut", len(failing) > MAX_WITNESSES))
    if "perturbed" in name:
        # the perturbation reaches a failing skew pair, fails both Jacobi
        # halves and cuts the witness lists
        assert ("skew", "fails") in seen and ("assoc", "fail", MAX_WITNESSES) in seen
        assert {("jacobi", "at (commutation"), ("jacobi", "at (associativity")} <= seen
        if name.startswith("m2a3"):
            # one record names both halves, and one pair fails on more w than it prints
            assert {("jacobi halves", 2), ("jacobi cut", True)} <= seen
        alg = bundle.alg
        uniform = alg.assoc_variant == "strong"
        assert len(alg._pairs.weak_assoc_failures(uniform)) > MAX_WITNESSES


# -- the analysis's witnesses against the hand-built assemblies --------------------------


def _corrupted_column_module():
    """M(2, a3) and its column module with the action of one*E11 on one#c1 doubled."""
    a3 = parse_algebra_file(FIXTURES / "a3.json").alg
    m2, column = wn_module(a3, adjoint_module(a3), 2)
    index = {key: dict(modes) for key, modes in column.mode_index.items()}
    key = (m2.basis_index("one*E11"), column.basis.index("one#c1"))
    index[key] = {n: [(k, 2 * c) for k, c in img] for n, img in index[key].items()}
    return m2, ModuleStructure(basis=column.basis, mode_index=index)


def _witness_cases():
    """(name, alg, module, R-maps): fixtures, seeded perturbed tables, a corrupted module.

    The perturbed associative sources that still build are associative; the
    perturbed tables of this file are not, and fail both Jacobi halves.
    """
    for name in NAMES:
        bundle = parse_algebra_file(FIXTURES / f"{name}.json")
        alg = bundle.alg
        rmaps = [rmap_identity(alg.dim)] + [r for r in [bundle.resolve_rmap()] if r is not None]
        yield name, alg, adjoint_module(alg), rmaps
    for k, data in enumerate(_assoc_cases(random.Random(20))):
        try:
            alg = from_assoc_with_derivation(data)
        except VertexCalcError:
            continue
        yield f"assoc-{k}", alg, adjoint_module(alg), [rmap_identity(alg.dim)]
    for name, bundle, _qs in BUNDLES:
        if "perturbed" in name:
            yield name, bundle.alg, adjoint_module(bundle.alg), [rmap_identity(bundle.alg.dim)]
    yield "m2a3-corrupted-columns", *_corrupted_column_module(), []


WITNESS_CASES = list(_witness_cases())


@pytest.mark.parametrize(
    "name, alg, mod, rmaps", WITNESS_CASES, ids=[c[0] for c in WITNESS_CASES]
)
def test_the_analysis_witnesses_equal_the_hand_built_ones(name, alg, mod, rmaps):
    basis = range(alg.dim)
    seen = set()
    for u, v in itertools.product(basis, basis):
        for w in range(alg.dim):
            got = weak_assoc_triple(alg, u, v, w)
            assert got == reference_suites.assoc_witness(alg, alg, u, v, w), (name, u, v, w)
            seen.add(("assoc", got is None))
        want = reference_suites.uniform_assoc_witness(alg, alg, u, v)
        assert find_weak_assoc_l(alg, u, v) == want, (name, u, v)
        for q in QS:
            local = find_locality_k(alg, u, v, q)
            assert local == reference_suites.commutation_witness(alg, alg, u, v, q)
            seen.add(("locality", local is None))
            for limit in (None, 1, MAX_WITNESSES):
                rep = check_jacobi(alg, u, v, q, limit)
                assert rep.witnesses == reference_suites.jacobi_witnesses(alg, u, v, q, limit)
                seen.update(("jacobi", wit.where[0]) for wit in rep.witnesses)
            transfer = check_locality_transfer(alg, mod, u, v, q, faithful=False).witnesses
            module = reference_suites.commutation_witness(alg, mod, u, v, q)
            assert transfer == ([module] if local is None and module else []), (name, u, v, q)
            seen.add(("transfer", bool(transfer)))
    rep = check_module(alg, mod)
    got = [wit for wit in rep.witnesses if wit.where[0] not in ("vacuum-action", "d-derivative")]
    cells = itertools.product(basis, range(mod.dim))
    want = [reference_suites.uniform_assoc_witness(alg, mod, u, w) for u, w in cells]
    assert got == [wit for wit in want if wit is not None], name
    assert ("max_assoc_order" in rep.found_orders) == (None in want), name
    seen.add(("module-assoc", not got))
    for rmap in rmaps:
        rep = check_jacobi_like(alg, rmap)
        assert rep.witnesses == _unshared_jacobi_like(alg, rmap).witnesses, name
    if name == "m2a3-corrupted-columns":
        assert {("module-assoc", False), ("transfer", True)} <= seen
    if name == "m2a3":
        assert {("locality", False), ("jacobi", "commutation")} <= seen
    if "perturbed" in name:
        assert {("assoc", False), ("jacobi", "associativity"), ("module-assoc", False)} <= seen

