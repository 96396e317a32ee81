"""Generated submodules and subalgebras against the dense saturation oracle."""

from functools import cache
from pathlib import Path

import pytest
from reference_spans import (
    SpanBasis,
    dense_generate_subalgebra,
    dense_generate_submodule,
    dense_rank,
)

from vertexcalc.algebra import generate_subalgebra
from vertexcalc.construct import matrix_algebra
from vertexcalc.fileio import parse_algebra_file
from vertexcalc.fixtures import truncated_poly_3
from vertexcalc.linalg import unit_vec, vec_add
from vertexcalc.modules import (
    adjoint_module,
    generate_submodule,
    generating_basis_vectors,
    wn_module,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
NAMES = sorted(p.stem for p in FIXTURES.glob("*.json")) + ["matrix-a3-3", "wn-a3-adjoint-2"]


@cache
def structure(name):
    """(algebra, module): a shipped fixture with its module section or adjoint, or a build."""
    if name == "matrix-a3-3":
        alg = matrix_algebra(truncated_poly_3(), 3)
        return alg, adjoint_module(alg)
    if name == "wn-a3-adjoint-2":
        a3 = truncated_poly_3()
        return wn_module(a3, adjoint_module(a3), 2)
    bundle = parse_algebra_file(FIXTURES / f"{name}.json")
    return bundle.alg, bundle.module or adjoint_module(bundle.alg)


def _assert_same_span(rows, ref):
    # the spin's rows are independent and span exactly the oracle's subspace
    span, ref_span = SpanBasis(rows), SpanBasis(ref)
    assert dense_rank(rows) == len(rows) == span.dim == ref_span.dim
    assert all(span.contains(v) for v in ref)
    assert all(ref_span.contains(v) for v in rows)


def test_every_shipped_fixture_is_covered():
    assert len(NAMES) == 9


@pytest.mark.parametrize("name", NAMES)
def test_generated_submodules_match_the_dense_oracle(name):
    alg, mod = structure(name)
    generates = []
    for j in range(mod.dim):
        start = mod.unit(j)
        rows = generate_submodule(alg, mod, start)
        assert rows[0] == start  # spin order: start first
        _assert_same_span(rows, dense_generate_submodule(alg, mod, start))
        generates.append(len(rows) == mod.dim)
    assert generating_basis_vectors(alg, mod) == generates


@pytest.mark.parametrize("name", NAMES)
def test_generated_subalgebras_match_the_dense_oracle(name):
    alg, _mod = structure(name)
    units = [unit_vec(alg.dim, i) for i in range(alg.dim)]
    mixed = units[0]
    for u in units[1:]:
        mixed = vec_add(mixed, u)
    for gens in [[]] + [[u] for u in units] + [[mixed], units]:
        rows = generate_subalgebra(alg, gens)
        assert rows[0] == alg.unit(alg.vacuum)  # spin order: vacuum first
        _assert_same_span(rows, dense_generate_subalgebra(alg, gens))
