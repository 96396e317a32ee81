"""How the package represents its numbers: int or Fraction, never float.

The sparse kernel keeps each integral coefficient as an int and every other
one as a Fraction (linalg.integral), and the dense boundary, linalg.densify,
turns each entry back into a Fraction, so witnesses and reports print as they
always have.  The test runs every suite on the shipped fixtures, on the
dim-27 matrix_algebra(a3, 3), and on translation chains whose e^{xD} images
carry 1/j!, under several q, and walks what the suites computed: the sparse
mode indexes, the pair analyses' records and e^{xD} images, the output of
every spin, and every vector densify returned, which the suites no longer
call, so a generated submodule densifies its rows after them.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest
from reference_pairs import resolved_records
from reference_tables import index_from_dense

import vertexcalc.algebra as algebra_module
import vertexcalc.linalg as linalg_module
import vertexcalc.modules as modules_module
from vertexcalc.algebra import AlgebraStructure
from vertexcalc.construct import matrix_algebra
from vertexcalc.fileio import AlgebraBundle, parse_algebra_file
from vertexcalc.linalg import integral, unit_vec, vec_scale
from vertexcalc.suite import SuiteOptions, run_suite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
QS = ("1", "0", "-1", "1/3")


def _chain(shift: Fraction) -> AlgebraStructure:
    """one, e1..e9 with (e_j)_(-2) 1 = shift e_(j+1): D shifts the chain, e^{xD} e1 has degree 8."""
    return AlgebraStructure(
        basis=["one"] + [f"e{j}" for j in range(1, 10)],
        vacuum=0,
        mode_index=index_from_dense(
            {
                **{(0, j): {-1: unit_vec(10, j)} for j in range(10)},
                **{
                    (j, 0): {
                        -1: unit_vec(10, j),
                        **({-2: vec_scale(shift, unit_vec(10, j + 1))} if j < 9 else {}),
                    }
                    for j in range(1, 10)
                },
            },
            10,
        ),
    )


def _bundle(name: str) -> AlgebraBundle:
    if name == "matrix_algebra(a3,3)":
        a3 = parse_algebra_file(FIXTURES / "a3.json").alg
        return AlgebraBundle(alg=matrix_algebra(a3, 3), name=name)
    if name == "chain":
        return AlgebraBundle(alg=_chain(Fraction(1)), name=name)
    if name == "half-chain":
        return AlgebraBundle(alg=_chain(Fraction(1, 2)), name=name)
    return parse_algebra_file(FIXTURES / f"{name}.json")


STRUCTURES = sorted(p.stem for p in FIXTURES.glob("*.json")) + [
    "matrix_algebra(a3,3)",
    "chain",
    "half-chain",
]


def _is_scalar(c) -> bool:
    """An exact coefficient: exactly an int or a Fraction (not a bool, float or subclass)."""
    return type(c) is int or type(c) is Fraction


def _index_entries(index):
    return [c for modes in index.values() for img in modes.values() for _k, c in img]


def _record_entries(analysis):
    """Every q of the commutation profiles and every coefficient of the first differences."""
    commute, assoc = resolved_records(analysis)
    profile_qs = [
        qe
        for flat in commute.values()
        for profile in flat[1::2]
        for qe in profile[::2]
        if qe is not None
    ]
    diffs = [
        c
        for failing in assoc.values()
        for _e, a, b in failing.values()
        for c in (*a.values(), *b.values())
    ]
    return profile_qs, diffs


@pytest.fixture
def spun_and_densified(monkeypatch):
    """Records the output of every spin and of every densify, through each module's binding."""
    spun, dense = [], []
    spin, densify = algebra_module.spin, linalg_module.densify

    def recording_spin(*args):
        out = spin(*args)
        spun.append(out)
        return out

    def recording_densify(coords, n):
        out = densify(coords, n)
        dense.append(out)
        return out

    for module in (algebra_module, modules_module):
        monkeypatch.setattr(module, "spin", recording_spin)
    for name, module in list(sys.modules.items()):
        if name.startswith("vertexcalc") and getattr(module, "densify", None) is densify:
            monkeypatch.setattr(module, "densify", recording_densify)
    return spun, dense


@pytest.mark.parametrize("name", STRUCTURES)
def test_coefficients_are_int_or_fraction_and_dense_values_fraction(name, spun_and_densified):
    spun, dense = spun_and_densified
    bundle = _bundle(name)
    for q in QS:
        run_suite(bundle, "all", SuiteOptions(q=q))
    # the suites' spans keep no coordinates and densify nothing; the dense
    # boundary is still walked through a generated submodule's rows
    module = bundle.module or modules_module.adjoint_module(bundle.alg)
    modules_module.generate_submodule(bundle.alg, module, module.unit(0))
    assert spun and dense
    acting = [bundle.alg] + ([bundle.module] if bundle.module is not None else [])
    for structure in acting:
        entries = _index_entries(structure.mode_index)
        assert entries and all(_is_scalar(c) for c in entries)
        # an integral structure constant is an int
        assert all(type(c) is int for c in entries if c.denominator == 1)
        analysis = structure._pairs
        assert analysis is not None
        profile_qs, diffs = _record_entries(analysis)
        assert all(_is_scalar(q) for q in profile_qs)
        assert all(_is_scalar(c) for c in diffs)
    images = [c for terms in bundle.alg.exp_images for v in terms.values() for c in v.values()]
    assert images and all(_is_scalar(c) for c in images)
    assert all(_is_scalar(c) for rows in spun for v in rows for c in v.values())
    assert all(type(x) is Fraction for v in dense for x in v)


def test_the_chains_carry_fractions_where_the_values_are_fractional():
    # e^{xD} e1 is sum_j x^j e_(1+j) / j!: 1/j! stays a Fraction, and 1 and 1/1! are ints
    bundle = _bundle("chain")
    run_suite(bundle, "axioms")
    image = bundle.alg.exp_images[1]
    assert image[0] == {1: 1} and image[1] == {2: 1} and type(image[1][2]) is int
    assert image[3] == {4: Fraction(1, 6)} and type(image[3][4]) is Fraction
    half = _bundle("half-chain").alg
    assert half.mode_index[(1, 0)][-2] == [(2, Fraction(1, 2))]
    assert type(half.mode_index[(1, 0)][-1][0][1]) is int


def test_integral_returns_an_int_exactly_when_the_value_is_integral():
    assert type(integral(Fraction(4, 2))) is int and integral(Fraction(4, 2)) == 2
    assert type(integral(Fraction(1, 3))) is Fraction
    assert type(integral(True)) is int and integral(True) == 1
    assert integral(-7) == -7 and type(integral("-1/3")) is Fraction
