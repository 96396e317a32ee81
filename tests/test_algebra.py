"""Axiom checkers on the shipped fixtures, with hand-frozen expected values.

Expected values are derived independently from the defining multiplication
tables: for a3, Y(a,x)b = (e^{xd}a)b with d = t^2 d/dt, so e.g. e^{xd}t =
t + x t^2 and Y(t,x)one = t + x t^2.
"""

import functools
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from vertexcalc.algebra import (
    AlgebraStructure,
    check_creation_exponential,
    check_d_bracket,
    check_jacobi,
    check_skew_symmetry,
    d_operator,
    find_locality_k,
    find_weak_assoc_l,
    generate_subalgebra,
    iterate_series,
    localizer,
    product_series,
    product_terms,
    reversed_product_terms,
    stabilizer,
    subspace_is_subalgebra,
    validate_structure,
    weak_assoc_triple,
)
from vertexcalc.construct import check_jacobi_like, rmap_identity, rmap_tensor_swap
from vertexcalc.errors import MalformedStructure
from vertexcalc.fixtures import (
    klein_twist,
    matrix_over_a3,
    truncated_poly_3,
    upper_triangular_2,
)
from vertexcalc.linalg import SpanBasis, unit_vec, vec_add, vec_scale
from vertexcalc.series import (
    Window,
    delta_three_term,
    from_terms,
    lift_vars,
    mul,
    power_expand,
    sub,
    subst_with_power,
    window_equal,
)

F = Fraction
ONE_Q = F(1)


@pytest.fixture(scope="module")
def a3():
    return truncated_poly_3()


@pytest.fixture(scope="module")
def ut2():
    return upper_triangular_2()


@pytest.fixture(scope="module")
def twist():
    return klein_twist()


# -- structure data ------------------------------------------------------------


def test_a3_mode_products(a3):
    # frozen from (e^{xd} a) b in Q[t]/(t^3) with d = t^2 d/dt
    t, t2 = a3.basis_index("t"), a3.basis_index("t2")
    one = a3.vacuum
    assert a3.product(t, -1, one) == unit_vec(3, t)
    assert a3.product(t, -2, one) == unit_vec(3, t2)
    assert a3.product(t, -1, t) == unit_vec(3, t2)
    assert a3.product(t, -1, t2) == (F(0),) * 3
    assert a3.product(t2, -1, one) == unit_vec(3, t2)
    assert a3.product(t2, -1, t) == (F(0),) * 3


def test_validate_passes_on_fixtures(a3, ut2):
    assert validate_structure(a3).passed
    assert validate_structure(ut2).passed


def test_validate_rejects_vacuum_violation(a3):
    bad = {k: dict(v) for k, v in a3.y_data.items()}
    bad[(a3.vacuum, 1)] = {0: unit_vec(3, 1)}  # (1)_0 t = t breaks Y(1,x) = id
    alg = AlgebraStructure(basis=a3.basis, vacuum=a3.vacuum, y_data=bad)
    report = validate_structure(alg)
    assert not report.passed
    assert report.witnesses


def test_validate_rejects_creation_violation(a3):
    bad = {k: dict(v) for k, v in a3.y_data.items()}
    bad[(1, a3.vacuum)] = dict(bad.get((1, a3.vacuum), {}))
    bad[(1, a3.vacuum)][0] = unit_vec(3, 1)  # t_0 1 = t violates creation
    alg = AlgebraStructure(basis=a3.basis, vacuum=a3.vacuum, y_data=bad)
    assert not validate_structure(alg).passed


def test_malformed_indices_rejected(a3):
    with pytest.raises(MalformedStructure):
        AlgebraStructure(
            basis=a3.basis, vacuum=0, y_data={(0, 7): {-1: unit_vec(3, 0)}}
        )


def test_empty_basis_rejected():
    with pytest.raises(MalformedStructure):
        AlgebraStructure(basis=(), vacuum=0, y_data={})


# -- translation operator ------------------------------------------------------


def test_a3_d_operator(a3):
    d = d_operator(a3)
    t, t2 = a3.basis_index("t"), a3.basis_index("t2")
    assert tuple(row[t] for row in d) == unit_vec(3, t2)  # D(t) = t^2
    assert all(row[t2] == 0 for row in d)  # D(t^2) = 0
    assert all(row[a3.vacuum] == 0 for row in d)  # D(1) = 0


def test_ut2_d_operator_is_zero(ut2):
    assert all(x == 0 for row in d_operator(ut2) for x in row)


def test_d_bracket_fixtures(a3, ut2):
    assert check_d_bracket(a3).passed
    assert check_d_bracket(ut2).passed


def test_d_bracket_detects_corruption(a3):
    bad = {k: dict(v) for k, v in a3.y_data.items()}
    # inject a spurious x-coefficient into Y(t,x)t: the derivative now reads t
    # while Y(D(t),x)t = Y(t2,x)t stays zero
    bad[(1, 1)] = {-1: unit_vec(3, 2), -2: unit_vec(3, 1)}
    alg = AlgebraStructure(basis=a3.basis, vacuum=a3.vacuum, y_data=bad)
    assert not check_d_bracket(alg).passed


def test_creation_exponential(a3, ut2):
    assert check_creation_exponential(a3).passed
    assert check_creation_exponential(ut2).passed


# -- weak associativity ---------------------------------------------------------


def test_a3_weak_assoc_order_zero_everywhere(a3):
    for u in range(3):
        for w in range(3):
            r = find_weak_assoc_l(a3, u, w)
            assert r.found and r.order == 0 and r.exact


def test_ut2_weak_assoc_order_zero_everywhere(ut2):
    for u in range(3):
        for v in range(3):
            for w in range(3):
                r = weak_assoc_triple(ut2, u, v, w)
                assert r.found and r.order == 0


def test_nonassociative_table_is_refuted():
    # corrupt e11 * e12 to e11: then (e11 e12) e11 = e11 while e11 (e12 e11)
    # vanishes, a constant discrepancy no power of (x0+x2) can remove
    ut2 = upper_triangular_2()
    bad = {k: dict(v) for k, v in ut2.y_data.items()}
    bad[(1, 2)] = {-1: unit_vec(3, 1)}
    alg = AlgebraStructure(basis=ut2.basis, vacuum=0, y_data=bad)
    r = find_weak_assoc_l(alg, 1, 1)
    assert r.status == "refuted"
    assert r.witness is not None


def _two_dim_with_mode(n: int) -> AlgebraStructure:
    # synthetic structure with a nonnegative mode a_n a = a; not associative,
    # and its outer mode puts the associativity decision at order n + 1
    return AlgebraStructure(
        basis=("one", "a"),
        vacuum=0,
        y_data={
            (0, 0): {-1: unit_vec(2, 0)},
            (0, 1): {-1: unit_vec(2, 1)},
            (1, 0): {-1: unit_vec(2, 1)},
            (1, 1): {n: unit_vec(2, 1)},
        },
    )


def test_order_scan_passes_window_limited_levels_then_refutes():
    # at order 0 the substituted side is not a Laurent polynomial; at order 1
    # both sides are, and their difference refutes every order
    alg = _two_dim_with_mode(0)
    r = weak_assoc_triple(alg, 1, 1, 1)
    assert r.status == "refuted"


def test_deep_nonnegative_mode_is_refuted_exactly():
    # a_4 a = a puts the decision at order 5, where one exact comparison
    # refutes the relation
    alg = _two_dim_with_mode(4)
    r = weak_assoc_triple(alg, 1, 1, 1)
    assert r.status == "refuted" and r.exact
    assert r.witness is not None and r.witness.exponent is not None
    assert r.witness.lhs != r.witness.rhs


def _series_assoc_reference(alg: AlgebraStructure, u: int, v: int, w: int):
    """Reference verdict and witness: both sides as windowed distributions.

    The order L is read off the product series' own support: the least one
    at which every power (x0+x2)^(e1+L) is a polynomial.  The window is wide
    enough for both sides to be complete, so the windowed comparison is exact
    and a difference is the first differing exponent of the two sides.
    """
    big = Window.symmetric(2, 3 * alg.exp_radius() + 2 * (alg.mode_bounds()[1] + 1) + 4)
    units = (alg.unit(u), alg.unit(v), alg.unit(w))
    prod = product_series(alg, *units, ("x1", "x2"), big)
    order = max(0, -prod.support[0][0])
    lhs = subst_with_power(prod, "x1", "x0", "x2", order, big)
    it = iterate_series(alg, *units, ("x0", "x2"), big)
    rhs = mul(power_expand(order, "x0", "x2", big, 1, 1), it, big)
    assert lhs.complete and rhs.complete
    verdict = window_equal(lhs, rhs)
    if verdict.matched:
        assert verdict.exact
        return "found", None
    return "refuted", (verdict.witness, verdict.lhs, verdict.rhs)


def _random_table(rng: random.Random) -> AlgebraStructure:
    # dim 3 with a clean vacuum row and column; the two other basis vectors
    # get sparse products with modes in [-4, 2], nonnegative ones included
    y_data = {(0, j): {-1: unit_vec(3, j)} for j in range(3)}
    y_data.update({(i, 0): {-1: unit_vec(3, i)} for i in (1, 2)})
    for i in (1, 2):
        for j in (1, 2):
            if rng.random() < 0.6:
                vec = (0, rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1)))
                y_data[(i, j)] = {rng.randint(-4, 2): vec}
    return AlgebraStructure(basis=("one", "a", "b"), vacuum=0, y_data=y_data)


def _reference_algebras() -> list[AlgebraStructure]:
    # 60 seeded random tables that carry a nonnegative mode, where the order
    # 0 substitution is not a Laurent polynomial, and three shipped structures
    rng = random.Random(20020408)
    tables = (_random_table(rng) for _ in itertools.count())
    algs = [_two_dim_with_mode(n) for n in range(5)]
    algs += itertools.islice((t for t in tables if t.mode_bounds()[1] >= 0), 60)
    return algs + [truncated_poly_3(), upper_triangular_2(), klein_twist()[0]]


def test_assoc_invariant_matches_series_reference():
    seen = set()
    for alg in _reference_algebras():
        basis = range(alg.dim)
        for u, v, w in itertools.product(basis, basis, basis):
            r = weak_assoc_triple(alg, u, v, w)
            assert r.status in ("found", "refuted")
            assert r.exact and (r.order == 0) == r.found
            status, witness = _series_assoc_reference(alg, u, v, w)
            assert r.status == status, (alg.y_data, u, v, w)
            if witness is not None:
                assert (r.witness.exponent, r.witness.lhs, r.witness.rhs) == witness
            seen.add(r.status)
    assert seen == {"found", "refuted"}


_HALVES = ("commutation", "associativity")


@functools.lru_cache(maxsize=None)
def _jacobi_deltas(radius: int):
    window = Window.symmetric(3, radius)
    return window, tuple(delta_three_term(side, window) for side in ("d1", "d2", "right"))


def _series_jacobi_reference(alg: AlgebraStructure, u: int, v: int, w: int, rterms) -> bool:
    """Reference verdict: the Jacobi-type identity as windowed delta composites.

    d1 Y(u,x1)Y(v,x2)w - d2 R(x1,x2) against d3 Y(Y(u,x0)v,x2)w on the
    (x0, x1, x2) window of radius exp_radius + 3, where R is the given
    reversed product on (x1, x2) and d1, d2, d3 are the three delta
    composites.  This is the windowed path the checks used to run.
    """
    window, (d1, d2, d3) = _jacobi_deltas(alg.exp_radius() + 3)
    prod_window = Window.symmetric(2, 3 * alg.exp_radius() + 4)
    units = (alg.unit(u), alg.unit(v), alg.unit(w))
    p12 = product_series(alg, *units, ("x1", "x2"), prod_window)
    p21 = from_terms(("x1", "x2"), rterms, prod_window)
    c02 = iterate_series(alg, *units, ("x0", "x2"), prod_window)
    p12, p21, c02 = (lift_vars(d, ("x0", "x1", "x2"), window) for d in (p12, p21, c02))
    lhs = sub(mul(d1, p12, window), mul(d2, p21, window))
    return window_equal(lhs, mul(c02, d3, window)).matched


@pytest.mark.parametrize("q", [Fraction(1), Fraction(-1)])
def test_jacobi_invariant_matches_series_reference(q):
    seen, halves = set(), set()
    for alg in _reference_algebras():
        basis = range(alg.dim)
        for u, v in itertools.product(basis, basis):
            rep = check_jacobi(alg, u, v, q)
            assert rep.exact and rep.found_orders["lemma_equivalence"] == 1
            halves.update(wit.where[0] for wit in rep.witnesses)
            failing = {wit.where[1:] for wit in rep.witnesses}
            assert len(failing) == len(rep.witnesses)
            for w in basis:
                reversed_terms = reversed_product_terms(alg, alg.unit(u), alg.unit(v), alg.unit(w))
                rterms = {e: vec_scale(q, c) for e, c in reversed_terms.items()}
                holds = _series_jacobi_reference(alg, u, v, w, rterms)
                names = (alg.basis[u], alg.basis[v], alg.basis[w])
                assert holds == (names not in failing), (alg.y_data, u, v, w, q)
                seen.add(holds)
    assert seen == {True, False}
    assert halves == set(_HALVES)


def _rmap_terms(alg: AlgebraStructure, rmap, u: int, v: int, w: int) -> dict:
    # (Y x Y)(x2, x1) R(v ⊗ u ⊗ w) on the (x1, x2) grid
    terms: dict = {}
    for coeff, (a, b, c) in rmap.image((v, u, w)):
        units = (alg.unit(a), alg.unit(b), alg.unit(c))
        for (e2, e1), vec in product_terms(alg, *units).items():
            vec = vec_scale(coeff, vec)
            terms[(e1, e2)] = vec_add(terms[(e1, e2)], vec) if (e1, e2) in terms else vec
    return terms


@pytest.mark.parametrize(
    "rmap, fails",
    [(rmap_tensor_swap(3, 4), False), (rmap_identity(12), True)],
    ids=["swap", "identity"],
)
def test_jacobi_like_invariant_matches_series_reference(rmap, fails):
    # M(2, a3) with its tensor-swap R-map passes everywhere; the identity
    # R-map cannot absorb the noncommutativity of the matrix factor
    alg = matrix_over_a3()
    rep = check_jacobi_like(alg, rmap)
    assert rep.exact
    failing = {wit.where[1:] for wit in rep.witnesses}
    assert all(wit.where[0] in _HALVES for wit in rep.witnesses)
    assert len(failing) == len(rep.witnesses)
    expected = set()
    for u, v, w in itertools.product(range(alg.dim), repeat=3):
        if not _series_jacobi_reference(alg, u, v, w, _rmap_terms(alg, rmap, u, v, w)):
            expected.add((alg.basis[u], alg.basis[v], alg.basis[w]))
    assert failing == expected
    assert bool(expected) == fails


def test_jacobi_commutation_witness_is_the_locality_witness():
    # on a nonlocal pair the first failing w is the first w on which
    # commutation fails, so the first witness is the one find_locality_k names
    for alg in (upper_triangular_2(), matrix_over_a3()):
        nonlocal_pairs = 0
        for u, v in itertools.product(range(alg.dim), repeat=2):
            loc = find_locality_k(alg, u, v, ONE_Q)
            if loc.found:
                continue
            nonlocal_pairs += 1
            first = check_jacobi(alg, u, v, ONE_Q).witnesses[0]
            assert first.where[0] == "commutation"
            assert replace(first, where=first.where[1:]) == loc.witness
        assert nonlocal_pairs > 0


# -- locality -------------------------------------------------------------------


def test_a3_locality_found_zero(a3):
    for i in range(3):
        for j in range(3):
            r = find_locality_k(a3, i, j, ONE_Q)
            assert r.found and r.order == 0


def test_ut2_nonlocal_pair_constant_witness(ut2):
    r = find_locality_k(ut2, ut2.basis_index("e11"), ut2.basis_index("e12"), ONE_Q)
    assert not r.found
    assert r.status == "refuted"
    # the witness is the constant discrepancy e12 vs 0 on the vacuum
    assert r.witness.exponent == (0, 0)
    assert r.witness.lhs == unit_vec(3, 2)
    assert r.witness.rhs == (F(0),) * 3


def test_twist_locality_with_commutator_scalar(twist):
    alg, grading, cocycle = twist
    i10, i01 = alg.basis_index("g10"), alg.basis_index("g01")
    q = cocycle.commutator(grading.degrees[i10], grading.degrees[i01])
    assert q == -1
    assert find_locality_k(alg, i10, i01, q).found
    assert not find_locality_k(alg, i10, i01, ONE_Q).found


# -- skew-symmetry ---------------------------------------------------------------


def test_a3_skew_symmetry_all_pairs(a3):
    for i in range(3):
        for j in range(3):
            assert check_skew_symmetry(a3, i, j, ONE_Q).passed


@pytest.mark.parametrize("q", [Fraction(1), Fraction(-1)])
def test_ut2_skew_matches_locality_on_all_pairs(ut2, q):
    for i in range(3):
        for j in range(3):
            loc = find_locality_k(ut2, i, j, q)
            skew = check_skew_symmetry(ut2, i, j, q)
            assert loc.found == skew.passed


@pytest.mark.parametrize("q", [Fraction(1), Fraction(-1)])
def test_twist_skew_matches_locality_on_all_pairs(twist, q):
    alg, _, _ = twist
    for i in range(4):
        for j in range(4):
            loc = find_locality_k(alg, i, j, q)
            skew = check_skew_symmetry(alg, i, j, q)
            assert loc.found == skew.passed


def test_ut2_skew_failure_values(ut2):
    # Y(e11,x)e12 = e12 while e^{xD}Y(e12,-x)e11 = e12*e11 = 0
    rep = check_skew_symmetry(ut2, 1, 2, ONE_Q)
    assert not rep.passed
    w = rep.witnesses[0]
    assert w.lhs == unit_vec(3, 2)
    assert w.rhs == (F(0),) * 3


# -- the q-Jacobi identity --------------------------------------------------------


def test_a3_jacobi_all_pairs(a3):
    for i in range(3):
        for j in range(3):
            rep = check_jacobi(a3, i, j, ONE_Q)
            assert rep.passed
            assert rep.found_orders["lemma_equivalence"] == 1


def test_ut2_jacobi_tracks_locality(ut2):
    for i in range(3):
        for j in range(3):
            rep = check_jacobi(ut2, i, j, ONE_Q)
            loc = find_locality_k(ut2, i, j, ONE_Q)
            assert rep.passed == loc.found
            assert rep.found_orders["lemma_equivalence"] == 1


def test_twist_jacobi_with_cocycle_scalars(twist):
    alg, grading, cocycle = twist
    for i in range(4):
        for j in range(4):
            q = cocycle.commutator(grading.degrees[i], grading.degrees[j])
            rep = check_jacobi(alg, i, j, q)
            assert rep.passed
            assert rep.found_orders["lemma_equivalence"] == 1


# -- generated subalgebras, stabilizers, localizers --------------------------------


def test_generate_from_t_is_everything(a3):
    rows = generate_subalgebra(a3, [unit_vec(3, a3.basis_index("t"))])
    assert len(rows) == 3


def test_generate_from_nothing_is_vacuum_line(a3):
    rows = generate_subalgebra(a3, [])
    assert rows == [unit_vec(3, a3.vacuum)]


def test_generate_ut2_from_e11(ut2):
    rows = generate_subalgebra(ut2, [unit_vec(3, ut2.basis_index("e11"))])
    span = SpanBasis(rows)
    assert span.dim == 2
    assert span.contains(unit_vec(3, ut2.vacuum))
    assert span.contains(unit_vec(3, ut2.basis_index("e11")))


def test_generated_span_is_closed(a3, ut2):
    for alg, gens in ((a3, [unit_vec(3, 1)]), (ut2, [unit_vec(3, 1)])):
        rows = generate_subalgebra(alg, gens)
        assert subspace_is_subalgebra(alg, rows).passed


def test_stabilizer_of_principal_ideal(a3):
    rows = stabilizer(a3, [unit_vec(3, a3.basis_index("t2"))])
    assert len(rows) == 3  # every element preserves the top ideal


def test_stabilizer_of_whole_space(ut2):
    rows = stabilizer(ut2, [unit_vec(3, i) for i in range(3)])
    assert len(rows) == 3


def test_stabilizer_ut2_e12_line(ut2):
    rows = stabilizer(ut2, [unit_vec(3, ut2.basis_index("e12"))])
    assert len(rows) == 3
    assert subspace_is_subalgebra(ut2, rows).passed


def test_localizer_commutative_case(a3):
    rows = localizer(a3, [unit_vec(3, a3.basis_index("t"))])
    assert len(rows) == 3


def test_localizer_ut2(ut2):
    e11 = unit_vec(3, ut2.basis_index("e11"))
    e12 = unit_vec(3, ut2.basis_index("e12"))
    rows = localizer(ut2, [e11])
    span = SpanBasis(rows)
    assert span.contains(unit_vec(3, ut2.vacuum))
    assert not span.contains(e12)  # skew-symmetry fails for (e12, e11)
    rows12 = localizer(ut2, [e12])
    assert SpanBasis(rows12).contains(unit_vec(3, ut2.vacuum))


def test_localizer_output_is_subalgebra(ut2):
    for target in range(3):
        rows = localizer(ut2, [unit_vec(3, target)])
        assert subspace_is_subalgebra(ut2, rows).passed
