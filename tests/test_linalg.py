"""Exact linear algebra: row reduction, spans, nullspaces, coordinates.

Row reduction, rank and nullspace are views of the sparse CoordSpan; the
dense Gauss-Jordan loop of reference_spans is their independent oracle.
"""

import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
from reference_spans import SpanBasis, dense_nullspace, dense_rank, dense_row_reduce

from vertexcalc.linalg import (
    CoordSpan,
    identity_mat,
    mat_mul,
    mat_vec,
    nilpotency_index,
    nullspace,
    rank,
    row_reduce,
    vec,
    vec_add,
    vec_scale,
    zero_vec,
)

rationals = st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 7)
)
small_vec = st.lists(rationals, min_size=4, max_size=4).map(vec)


def test_row_reduce_unit_pivots():
    rows, pivots = row_reduce([vec([2, 4, 0]), vec([1, 2, 1])])
    assert pivots == [0, 2]
    for row, p in zip(rows, pivots):
        assert row[p] == 1


def test_row_reduce_drops_dependents():
    rows, _ = row_reduce([vec([1, 2]), vec([2, 4]), vec([0, 1])])
    assert len(rows) == 2


def test_rank_examples():
    assert rank([vec([1, 0]), vec([0, 1])]) == 2
    assert rank([vec([1, 1]), vec([2, 2])]) == 1
    assert rank([zero_vec(3)]) == 0


@given(st.lists(small_vec, min_size=1, max_size=6))
def test_row_reduce_preserves_span_membership(rows):
    reduced, _ = row_reduce(rows)
    span = SpanBasis(rows)
    for r in rows:
        assert span.contains(r)
    for r in reduced:
        assert SpanBasis(rows).contains(r)


@given(st.lists(small_vec, min_size=1, max_size=5), small_vec)
def test_span_membership_matches_rank_test(rows, probe):
    inside = SpanBasis(rows).contains(probe)
    assert inside == (rank(list(rows) + [probe]) == rank(rows))


def test_nullspace_solves_exactly():
    rows = [vec([1, 1, 0]), vec([0, 1, 1])]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_nilpotency_index():
    n = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
    assert nilpotency_index(n) == 2
    assert nilpotency_index(identity_mat(2)) is None


def test_mat_mul_against_manual():
    a = ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)))
    b = ((Fraction(3), Fraction(0)), (Fraction(1), Fraction(1)))
    assert mat_mul(a, b) == ((Fraction(5), Fraction(2)), (Fraction(1), Fraction(1)))
    assert mat_vec(a, vec([1, 1])) == (Fraction(3), Fraction(1))


def _sparse(v, order):
    """v as a {column: nonzero entry} dict, keys inserted in the given order."""
    return {c: v[c] for c in order if v[c] != 0}


def test_coord_span_coordinates_are_exact():
    cs = CoordSpan()
    r1 = vec([1, 2, 0])
    r2 = vec([0, 1, 1])
    assert cs.insert(_sparse(r1, (1, 0, 2))) is None
    assert cs.insert(_sparse(r2, (2, 1, 0))) is None
    combo = vec_add(vec_scale(Fraction(3), r1), vec_scale(Fraction(-2), r2))
    coords = cs.insert(_sparse(combo, (2, 0, 1)))
    assert coords == (Fraction(3), Fraction(-2))
    assert cs.solve(_sparse(combo, (0, 1, 2))) == (Fraction(3), Fraction(-2))
    assert cs.solve({2: Fraction(5)}) is None
    assert cs.dim == 2


@given(st.lists(small_vec, min_size=1, max_size=6), st.permutations(range(4)))
def test_coord_span_reconstructs_members(rows, order):
    cs = CoordSpan()
    reps = []
    for r in rows:
        if cs.insert(_sparse(r, order)) is None:
            reps.append(r)
    assert cs.dim == rank(rows)
    for r in rows:
        coords = cs.solve(_sparse(r, order))
        assert coords is not None
        rebuilt = zero_vec(4)
        for c, rep in zip(coords, reps):
            rebuilt = vec_add(rebuilt, vec_scale(c, rep))
        assert rebuilt == r


def _random_rows(rng, nrows, ncols):
    """Seeded rational rows with zero rows, dependent rows and zero columns mixed in."""
    zero_cols = {c for c in range(ncols) if rng.random() < 0.2}
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append(zero_vec(ncols))
        elif kind < 0.35 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            ca, cb = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows.append(vec_add(vec_scale(ca, a), vec_scale(cb, b)))
        else:
            rows.append(
                vec(
                    0 if c in zero_cols or rng.random() < 0.4
                    else Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                    for c in range(ncols)
                )
            )
    return rows


def test_span_views_equal_the_dense_reference_exactly():
    rng = random.Random(13)
    shapes = set()
    for _ in range(600):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
        rows = _random_rows(rng, nrows, ncols)
        got, ref = row_reduce(rows), dense_row_reduce(rows)
        assert got == ref
        assert rank(rows) == dense_rank(rows)
        assert nullspace(rows, ncols) == dense_nullspace(rows, ncols)
        shapes.add((nrows == 0, len(ref[0]) < nrows, len(ref[0]) == ncols))
    # empty input, dropped rows, full rank and rank deficits all occur
    assert {(True, False, False), (False, True, False), (False, False, True)} <= shapes


def test_span_functions_return_fractions_on_int_input():
    rows = [(2, 4, 0), (1, 3, 5), (3, 7, 5)]
    reduced, _pivots = row_reduce(rows)
    assert reduced == [(1, 0, -10), (0, 1, 5)]
    kernel = nullspace([(2, 4, 0)], 3)
    assert kernel == [(1, Fraction(-1, 2), 0), (0, 0, 1)]
    cs = CoordSpan()
    assert cs.insert({0: 2, 1: 4}) is None and cs.insert({1: 3, 2: 1}) is None
    dependent = cs.insert({0: 4, 1: 11, 2: 1})
    solved = cs.solve({0: 2, 1: 7, 2: 1})
    assert dependent == (2, 1) and solved == (1, 1)
    for entries in reduced + kernel + [dependent, solved]:
        assert all(type(x) is Fraction for x in entries), entries
