"""Exact linear algebra: row reduction, spans, nullspaces, coordinates."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from vertexcalc.linalg import (
    CoordSpan,
    SpanBasis,
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
