"""Generated submodules and subalgebras against the dense saturation oracle.

The spin also stops once its span is the whole space; its rows are held
equal, in order, to those of the loop without that stop (reference_spin),
which it must undercut in sparse_modes calls.
"""

import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from reference_spans import (
    SpanBasis,
    dense_generate_subalgebra,
    dense_generate_submodule,
    dense_rank,
    reference_spin,
)

import vertexcalc.algebra as algebra_module
import vertexcalc.modules as modules_module
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
# larger builds for the generation oracle only, where many basis vectors lie
# in proper submodules found before them
LARGER = ["matrix-a3-4", "matrix-m2a3-2", "wn-a3-adjoint-3"]


@cache
def structure(name):
    """(algebra, module): a shipped fixture with its module section or adjoint, or a build."""
    if name.startswith("matrix-"):
        _kind, base, n = name.split("-")
        if base == "a3":
            base = truncated_poly_3()
        else:
            base = parse_algebra_file(FIXTURES / f"{base}.json").alg
        alg = matrix_algebra(base, int(n))
        return alg, adjoint_module(alg)
    if name.startswith("wn-a3-adjoint-"):
        a3 = truncated_poly_3()
        return wn_module(a3, adjoint_module(a3), int(name[-1]))
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


@pytest.mark.parametrize("name", NAMES + LARGER)
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


def test_generation_spins_only_outside_the_proper_submodules_found(monkeypatch):
    # matrix_algebra(a3, 3): once a spin closes on a proper submodule, the
    # basis vectors inside it are decided without a spin of their own
    alg, mod = structure("matrix-a3-3")
    expected = [len(generate_submodule(alg, mod, mod.unit(j))) == mod.dim for j in range(mod.dim)]
    starts = []
    spin = modules_module.spin

    def counting_spin(index, acting, start, dim, *span):
        starts.append(start)
        return spin(index, acting, start, dim, *span)

    monkeypatch.setattr(modules_module, "spin", counting_spin)
    assert generating_basis_vectors(alg, mod) == expected
    assert 0 < len(starts) < mod.dim
    assert any(expected) and not all(expected)


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


def _spins_against_reference(monkeypatch, run):
    """run() with the library spin and with reference_spin: both results and sparse_modes counts."""
    calls = [0]
    sparse_modes = algebra_module.sparse_modes

    def counting(*args):
        calls[0] += 1
        return sparse_modes(*args)

    monkeypatch.setattr(algebra_module, "sparse_modes", counting)
    got, got_calls = run(), calls[0]
    with monkeypatch.context() as m:
        m.setattr(algebra_module, "spin", reference_spin)
        m.setattr(modules_module, "spin", reference_spin)
        calls[0] = 0
        want, want_calls = run(), calls[0]
    return got, got_calls, want, want_calls


def _random_vec(rng, dim):
    return [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.4 else 0
            for _ in range(dim)]


@pytest.mark.parametrize("name", NAMES)
def test_the_spin_stops_at_full_rank_with_the_same_rows(name, monkeypatch):
    alg, mod = structure(name)
    rng = random.Random(name)
    starts = [mod.unit(j) for j in range(mod.dim)] + [_random_vec(rng, mod.dim) for _ in range(4)]
    gen_sets = [[alg.unit(i)] for i in range(alg.dim)]
    gen_sets += [[_random_vec(rng, alg.dim) for _ in range(rng.randint(1, 2))] for _ in range(4)]

    def run():
        return (
            [generate_submodule(alg, mod, s) for s in starts],
            [generate_subalgebra(alg, gens) for gens in gen_sets],
            generating_basis_vectors(alg, mod),
        )

    got, got_calls, want, want_calls = _spins_against_reference(monkeypatch, run)
    assert got == want
    # a spin that reaches the whole space skips the rest of its queue; any other runs it out
    full = any(len(rows) == mod.dim for rows in got[0]) or any(
        len(rows) == alg.dim for rows in got[1]
    )
    assert got_calls < want_calls if full else got_calls == want_calls


def test_generating_basis_vectors_on_the_m2a3_adjoint_stops_spinning_at_full_rank(monkeypatch):
    alg = parse_algebra_file(FIXTURES / "m2a3.json").alg
    mod = adjoint_module(alg)
    got, got_calls, want, want_calls = _spins_against_reference(
        monkeypatch, lambda: generating_basis_vectors(alg, mod)
    )
    assert got == want and any(got)
    assert got_calls < want_calls
