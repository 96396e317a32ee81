"""Operator products, the reordering transform, and the closure engine.

The closed-form residue products are cross-checked against an independent
windowed oracle that literally multiplies by the two one-sided kernel
expansions and extracts the residue through the distribution machinery.
The sparse row products are also held against the same closed form
evaluated with dense matrix products.  The reordering transform T, the
associativity relation and the dense operator construction live in
reference_operators, the test-side oracle of vertexcalc.operators.
"""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from reference_operators import (
    check_prop_assoc,
    dense_closure_module,
    dense_modes,
    dense_operator,
    dense_operator_from_structure,
    derivative,
    exps,
    product_distribution,
    reference_closure,
    truncated_t,
)
from reference_tables import apply_mode, mat_add, table_of
from vertexcalc.algebra import check_jacobi, generate_subalgebra, validate_structure
from vertexcalc import operators
from vertexcalc.construct import matrix_algebra
from vertexcalc.errors import InvalidArgument, MalformedStructure, NotCompatible
from vertexcalc.fileio import algebra_to_data, canonical_json, parse_algebra_file
from vertexcalc.fixtures import matrix_over_a3, truncated_poly_3, upper_triangular_2
from vertexcalc.linalg import mat_mul, mat_scale, unit_vec
from vertexcalc.modules import adjoint_module, check_module, wn_module
from vertexcalc.operators import (
    VertexOperator,
    closure,
    closure_module,
    endless_modes,
    find_compat_order,
    identity_operator,
    nth_product,
    nth_product_local,
    operator_from_structure,
    verify_module_structure,
)
from vertexcalc.series import (
    Window,
    binom,
    binom_expand,
    mul,
    power_expand,
    residue,
    sub,
    window_equal,
)

F = Fraction


@pytest.fixture(scope="module")
def a3():
    return truncated_poly_3()


@pytest.fixture(scope="module")
def yt(a3):
    return operator_from_structure(a3, a3.basis_index("t"))


@pytest.fixture(scope="module")
def yt2(a3):
    return operator_from_structure(a3, a3.basis_index("t2"))


def oracle_nth_product(a, b, n, radius=9):
    """Windowed delta-kernel evaluation of the residue product."""
    w2 = Window.symmetric(2, radius)
    prod = product_distribution(a, b, ("x1", "x"), w2)
    straight = binom_expand(n, "x1", "x", -1, w2)
    reexpanded = power_expand(n, "x", "x1", w2, sign_a=-1, sign_b=1)
    return residue(sub(mul(straight, prod, w2), mul(reexpanded, prod, w2)), "x1")


def assert_matches_oracle(a, b, n):
    exact = exps(nth_product(a, b, n))
    orc = oracle_nth_product(a, b, n)
    lo, hi = orc.window.bounds[0]
    got = {e[0]: m for e, m in orc.coeffs.items()}
    assert got == {p: m for p, m in exact.items() if lo <= p <= hi}


# -- construction from structures ------------------------------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _layout(op):
    """The rows in their stored order: modes, then rows, then columns."""
    return [(n, [(r, list(row.items())) for r, row in m.items()]) for n, m in op.rows.items()]


def _fixture_structure(name):
    bundle = parse_algebra_file(FIXTURES / f"{name}.json")
    return bundle.alg, bundle.module or adjoint_module(bundle.alg)


def _matrix_a3_3():
    alg = matrix_algebra(truncated_poly_3(), 3)
    return alg, adjoint_module(alg)


def _wn_a3_2():
    a3 = truncated_poly_3()
    return wn_module(a3, adjoint_module(a3), 2)


STRUCTURES = {
    **{
        p.stem: (lambda name=p.stem: _fixture_structure(name))
        for p in sorted(FIXTURES.glob("*.json"))
    },
    "matrix_algebra(a3,3)": _matrix_a3_3,
    "wn_module(a3,adjoint,2)": _wn_a3_2,
}


@pytest.mark.parametrize("label", sorted(STRUCTURES))
def test_operator_from_structure_matches_dense_construction(label):
    # the rows read off the sparse mode index equal, in value and in order,
    # the rows of the dense mode matrices, on the algebra and on its module
    alg, mod = STRUCTURES[label]()
    for v_idx in range(alg.dim):
        for target in (None, mod):
            got = operator_from_structure(alg, v_idx, target)
            ref = dense_operator_from_structure(alg, v_idx, target)
            assert (got.dim, got.name) == (ref.dim, ref.name) == (
                (target or alg).dim, alg.basis[v_idx]
            )
            assert _layout(got) == _layout(ref), (label, v_idx, target is not None)


@pytest.mark.parametrize("index", (7, -2))
def test_operator_from_structure_refuses_an_index_outside_the_basis(index):
    # -2 read the name e11 by negative indexing and no modes, a zero
    # operator for a nonzero Y(e11, x); 7 ended in IndexError
    ut2 = upper_triangular_2()
    for target in (None, adjoint_module(ut2)):
        with pytest.raises(MalformedStructure, match=rf"basis index {index} is not in range\(3\)"):
            operator_from_structure(ut2, index, target)
        assert operator_from_structure(ut2, 1, target).name == "e11"


def test_identity_operator_rows():
    for dim in (0, 1, 4):
        one = identity_operator(dim)
        ref = dense_operator(dim, {-1: tuple(unit_vec(dim, i) for i in range(dim))}, "1_W")
        assert (one.name, _layout(one)) == (ref.name, _layout(ref))


# -- compatibility --------------------------------------------------------------


def test_pairs_with_identity_are_compatible(yt):
    one = identity_operator(3)
    assert find_compat_order([one, yt]) is None
    assert find_compat_order([yt, one]) is None


def test_sequences_are_compatible_at_order_zero(yt, yt2):
    for seq in ([yt, yt], [yt, yt2, yt], [yt2, yt, yt, yt2]):
        assert find_compat_order(seq) is None


def test_dimension_mismatch_rejected(yt):
    with pytest.raises(NotCompatible):
        find_compat_order([yt, identity_operator(5)])
    with pytest.raises(NotCompatible):
        nth_product(yt, identity_operator(2), -1)
    with pytest.raises(NotCompatible):
        nth_product_local(yt, identity_operator(2), -1)


# -- the reordering transform ------------------------------------------------------


def test_t_transform_is_k_independent(yt, yt2):
    w = Window.symmetric(2, 8)
    base = truncated_t(yt, yt2, 0, w)
    for k in (1, 2, 3):
        assert window_equal(base, truncated_t(yt, yt2, k, w)).matched


def test_damped_t_equals_damped_product(yt, yt2):
    w = Window.symmetric(2, 8)
    prod = product_distribution(yt, yt2, ("x1", "x2"), w)
    for k in (1, 2):
        damp = binom_expand(k, "x1", "x2", -1, w)
        assert window_equal(
            mul(damp, truncated_t(yt, yt2, k, w), w), mul(damp, prod, w)
        ).matched


def test_t_of_commuting_pair_is_reversed_product(yt, yt2):
    from vertexcalc.linalg import mat_mul
    from vertexcalc.series import from_terms

    w = Window.symmetric(2, 8)
    rev_terms = {
        (p, q): mat_mul(mb, ma)
        for p, ma in exps(yt).items()
        for q, mb in exps(yt2).items()
    }
    rev = from_terms(("x1", "x2"), rev_terms, w)
    assert window_equal(truncated_t(yt, yt2, 0, w), rev).matched


# -- residue products -----------------------------------------------------------------


def test_product_minus_one_recovers_structure_constant(a3, yt, yt2):
    assert nth_product(yt, yt, -1).equal(yt2)


def test_products_vanish_at_and_above_compat_order(yt):
    for n in range(0, 6):
        assert nth_product(yt, yt, n).is_zero()


def test_product_minus_two_on_identity_is_derivative(yt):
    assert nth_product(yt, identity_operator(3), -2).equal(derivative(yt))


def test_identity_products(yt):
    one = identity_operator(3)
    assert nth_product(one, yt, -1).equal(yt)
    for n in (-3, -2, 0, 1):
        assert nth_product(one, yt, n).is_zero()


@pytest.mark.parametrize("fixture", [truncated_poly_3, upper_triangular_2])
def test_bridging_identity_on_adjoint_image(fixture):
    # the n-th product of images equals the image of the n-th mode product,
    # on the local fixture and on the nonlocal one alike
    alg = fixture()
    for i in range(alg.dim):
        for j in range(alg.dim):
            for n in range(-4, 2):
                lhs = nth_product(
                    operator_from_structure(alg, i), operator_from_structure(alg, j), n
                )
                uv = apply_mode(alg, alg.unit(i), n, alg.unit(j))
                rhs_modes = {}
                for k, c in enumerate(uv):
                    if c == 0:
                        continue
                    for nn, m in dense_modes(operator_from_structure(alg, k)).items():
                        contrib = mat_scale(c, m)
                        rhs_modes[nn] = (
                            mat_add(rhs_modes[nn], contrib)
                            if nn in rhs_modes
                            else contrib
                        )
                assert lhs.equal(dense_operator(alg.dim, rhs_modes))


@pytest.mark.parametrize("n", [-3, -2, -1, 0, 1])
def test_products_match_window_oracle(yt, n):
    assert_matches_oracle(yt, yt, n)


@pytest.mark.parametrize("n", [-3, -2, -1, 0])
def test_mixed_products_match_window_oracle(yt, yt2, n):
    assert_matches_oracle(yt, yt2, n)
    assert_matches_oracle(yt2, yt, n)


def test_nonlocal_constant_operators_match_oracle():
    ut2 = upper_triangular_2()
    a = operator_from_structure(ut2, 1)
    b = operator_from_structure(ut2, 2)
    for n in (-2, -1, 0):
        assert_matches_oracle(a, b, n)
        assert_matches_oracle(b, a, n)


# -- the two product definitions ---------------------------------------------------------


def test_local_pair_definitions_agree(yt, yt2):
    for n in range(-4, 3):
        assert nth_product(yt, yt2, n).equal(nth_product_local(yt, yt2, n))


def test_constant_nonlocal_pair_definitions_coincide():
    # constant operators have no nonnegative modes, so the reversed-product
    # residue vanishes and both definitions collapse to the same values
    ut2 = upper_triangular_2()
    a = operator_from_structure(ut2, 1)
    b = operator_from_structure(ut2, 2)
    for n in range(-3, 2):
        assert nth_product(a, b, n).equal(nth_product_local(a, b, n))


def test_noncommuting_nonnegative_modes_separate_definitions():
    # a carries a mode at n = 0 (exponent -1); composing against a
    # noncommuting constant distinguishes the straight and reversed residues
    A = ((F(0), F(1)), (F(0), F(0)))
    B = ((F(0), F(0)), (F(0), F(1)))
    a = dense_operator(2, {0: A})
    b = dense_operator(2, {-1: B})
    n = -1
    straight = nth_product(a, b, n)
    two_sided = nth_product_local(a, b, n)
    assert not straight.equal(two_sided)
    # the straight product keeps only A B; the two-sided one subtracts B A
    assert dense_modes(straight)[0] == tuple(
        tuple(sum(A[r][k] * B[k][c] for k in range(2)) for c in range(2))
        for r in range(2)
    )


# -- sparse products against the dense formula ---------------------------------------------


def _is_zero(m):
    return all(x == 0 for row in m for x in row)


def dense_residue_sums(a, b, n, local, mul=mat_mul):
    """The closed-form residue product by dense matrix products.

    Returns, for every mode that some nonzero weighted product A_p B_q (or
    B_q A_p) reaches, the sum of those products, zero sums included, so a
    caller can see which modes cancelled.
    """
    out = {}
    for p, ma in exps(a).items():
        sign = -1 if (n + p + 1) % 2 else 1
        c1, c2 = sign * binom(n, n + p + 1), sign * binom(n, -1 - p)
        if not local:
            c1, c2 = c1 - c2, 0
        for q, mb in exps(b).items():
            key = -(n + 1 + p + q) - 1
            terms = []
            if c1:
                terms.append(mat_scale(c1, mul(ma, mb)))
            if c2:
                terms.append(mat_scale(-c2, mul(mb, ma)))
            for term in terms:
                if not _is_zero(term):
                    out[key] = mat_add(out[key], term) if key in out else term
    return out


def dense_residue_product(a, b, n, local, mul=mat_mul):
    return dense_operator(a.dim, dense_residue_sums(a, b, n, local, mul))


def _random_operator(rng, dim, commuting_with=None):
    """Sparse modes in [-4, 3] with non-integer rational entries.

    With commuting_with=M every mode is c M + d M^2, so all modes of all
    such operators commute and two-sided residues cancel exactly.
    """
    def entry():
        if rng.random() < 0.5:
            return F(0)
        return F(rng.choice((-5, -3, -1, 1, 2, 7)), rng.choice((2, 3, 4, 9)))

    modes = {}
    for n in rng.sample(range(-4, 4), rng.randint(1, 4)):
        if commuting_with is None:
            modes[n] = tuple(tuple(entry() for _ in range(dim)) for _ in range(dim))
        else:
            m = commuting_with
            modes[n] = mat_add(mat_scale(entry(), m), mat_scale(entry(), mat_mul(m, m)))
    return dense_operator(dim, modes)


def test_sparse_residue_product_matches_dense_formula():
    rng = random.Random(606)
    cancelled = 0
    for trial in range(160):
        dim = rng.randint(1, 5)
        if trial % 2:
            m = dense_modes(_random_operator(rng, dim)).get(0, ((F(0),) * dim,) * dim)
            a, b = _random_operator(rng, dim, m), _random_operator(rng, dim, m)
        else:
            a, b = _random_operator(rng, dim), _random_operator(rng, dim)
        for n in range(-8, 3):
            for local in (False, True):
                got = (nth_product_local if local else nth_product)(a, b, n)
                sums = dense_residue_sums(a, b, n, local)
                assert got.rows == dense_operator(dim, sums).rows, (a.rows, b.rows, n, local)
                assert not any(_is_zero(m) for m in dense_modes(got).values())
                cancelled += sum(1 for s in sums.values() if _is_zero(s))
    # some modes sum to zero from nonzero terms: exact cancellation is exercised
    assert cancelled > 0


# the two generator sets of the closure-m2a3 benchmark workload, with the
# ranks of the subalgebras they generate
M2A3_GENERATOR_SETS = (("t*one", "one*E12", "one*E21"), ("t*E12", "t*E21"))
M2A3_SPAN_RANKS = (12, 7)


@pytest.mark.parametrize("local", [False, True], ids=["straight", "local"])
def test_closure_on_m2a3_matches_dense_formula(monkeypatch, local):
    m = matrix_over_a3()
    memo = {}

    def memo_mul(x, y):
        if (x, y) not in memo:
            memo[(x, y)] = mat_mul(x, y)
        return memo[(x, y)]

    def dense(a, b, n, local):
        return dense_residue_product(a, b, n, local, memo_mul)

    for names, span_rank in zip(M2A3_GENERATOR_SETS, M2A3_SPAN_RANKS):
        gens = [operator_from_structure(m, m.basis_index(nm)) for nm in names]
        sparse = closure(gens, local_products=local)
        # the benchmark's oracle: the span is the generated subalgebra
        units = [m.unit(m.basis_index(nm)) for nm in names]
        assert sparse.span.rank == len(generate_subalgebra(m, units)) == span_rank
        assert validate_structure(sparse.structure).passed
        with monkeypatch.context() as patch:
            patch.setattr(operators, "_residue_product", dense)
            ref = closure(gens, local_products=local)
        assert sparse.status == ref.status == "closed"
        assert (sparse.rounds, sparse.notes) == (ref.rounds, ref.notes)
        assert [op.rows for op in sparse.span.operators] == [
            op.rows for op in ref.span.operators
        ]
        assert table_of(sparse.structure) == table_of(ref.structure)


def _floor(a, b, local):
    """The least mode at which a_n b can be nonzero; None when its tail is endless."""
    return None if endless_modes(a, b, local) else min(a.rows)


@pytest.mark.parametrize("local", [False, True], ids=["straight", "local"])
def test_closure_forms_no_product_below_the_certified_floor(monkeypatch, local):
    # a_n b vanishes below the least mode of a unless endless_modes finds a
    # tail, so generation skips those modes; each skipped product is zero, so
    # every round inserts what a loop down to n_lo would insert
    m = matrix_over_a3()
    name = "nth_product_local" if local else "nth_product"
    product = getattr(operators, name)
    formed = []

    def recording(a, b, n):
        formed.append((a, b, n))
        return product(a, b, n)

    skipped = 0
    for names, span_rank in zip(M2A3_GENERATOR_SETS, M2A3_SPAN_RANKS):
        gens = [operator_from_structure(m, m.basis_index(nm)) for nm in names]
        with monkeypatch.context() as patch:
            patch.setattr(operators, name, recording)
            res = closure(gens, local_products=local)
        assert (res.status, res.span.rank, res.certified) == ("closed", span_rank, True)
        floors = [_floor(a, b, local) for a, b, _n in formed]
        assert [n for (_a, _b, n), lo in zip(formed, floors) if lo is not None and n < lo] == []
        # look two modes below the lowest generator mode
        n_lo = min(min(min(g.rows) for g in gens) - 2, -1)
        for g in gens:
            for beta in res.span.operators:
                lo = _floor(g, beta, local)
                if lo is not None:
                    assert all(product(g, beta, n).is_zero() for n in range(n_lo, lo))
                    skipped += max(0, lo - n_lo)
        formed.clear()
    assert skipped > 0


# -- associativity relation ----------------------------------------------------------------


def test_prop_assoc_on_local_pair(a3, yt):
    rep = check_prop_assoc(yt, yt, unit_vec(3, a3.vacuum))
    assert rep.passed and rep.found_orders["l"] == 0


def test_prop_assoc_identity_is_trivial(yt):
    rep = check_prop_assoc(identity_operator(3), yt, unit_vec(3, 1))
    assert rep.passed and rep.found_orders["l"] == 0


def test_prop_assoc_with_nonnegative_mode_holds_at_first_polynomial_order():
    # a(x) = I x^-1 has the nonnegative mode 0, so Y(a,x0)b has no certified
    # floor; the relation holds at l = 1 on the x0-exponents that hold every
    # term of the left side, and the report says it is window-sound
    a = dense_operator(2, {0: ((1, 0), (0, 1))})
    rep = check_prop_assoc(a, identity_operator(2), unit_vec(2, 0))
    assert rep.passed and rep.found_orders["l"] == 1
    assert not rep.exact


def test_prop_assoc_holds_for_random_operator_pairs():
    # every pair of operators on one finite-dimensional space is compatible at
    # order zero, so the relation is a theorem for all of them, with or
    # without nonnegative modes
    rng = random.Random(204)
    for _ in range(100):
        dim = rng.choice((1, 2))

        def random_mat():
            return tuple(tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(dim))

        a, b = (
            dense_operator(dim, {rng.randint(-3, 2): random_mat() for _ in range(3)})
            for _ in "ab"
        )
        rep = check_prop_assoc(a, b, unit_vec(dim, rng.randrange(dim)))
        assert rep.passed, (a.rows, b.rows, rep.witnesses)


def test_prop_assoc_holds_where_locality_fails():
    m = matrix_over_a3()
    u = operator_from_structure(m, m.basis_index("one*E11"))
    v = operator_from_structure(m, m.basis_index("one*E12"))
    rep = check_prop_assoc(u, v, unit_vec(12, m.vacuum))
    assert rep.passed


def test_prop_assoc_order_bounded_by_structure_order(a3, yt, yt2):
    # the closed span has uniform associativity order zero, and the operator
    # relation never needs more
    for op1 in (yt, yt2):
        for op2 in (yt, yt2):
            for w_idx in range(3):
                rep = check_prop_assoc(op1, op2, unit_vec(3, w_idx))
                assert rep.passed and rep.found_orders["l"] == 0


# -- closure ----------------------------------------------------------------------------


def test_closure_from_single_generator(a3, yt):
    res = closure([yt])
    assert res.status == "closed"
    assert res.certified
    assert res.span.rank == 3
    st = res.structure
    assert validate_structure(st).passed
    got, ref = table_of(st), table_of(a3)
    assert set(got) == set(ref)
    for key in got:
        assert got[key] == ref[key]


def test_closure_identifies_span_with_structure_images(a3, yt):
    res = closure([yt])
    for k, op in enumerate(res.span.operators):
        assert op.equal(operator_from_structure(a3, k))


def test_closure_local_variant_identical(a3, yt):
    res = closure([yt])
    res_local = closure([yt], local_products=True)
    assert res_local.status == "closed"
    got, ref = table_of(res_local.structure), table_of(res.structure)
    assert set(got) == set(ref)
    for key in ref:
        assert got[key] == ref[key]


def test_closed_structure_is_ordinary(a3, yt):
    res = closure([yt])
    st = res.structure
    for i in range(3):
        for j in range(3):
            assert check_jacobi(st, i, j, F(1)).passed


def _closures_with_structure():
    a3, ut2, m = truncated_poly_3(), upper_triangular_2(), matrix_over_a3()
    yt = operator_from_structure(a3, a3.basis_index("t"))
    gens_sets = [
        [yt],
        [operator_from_structure(ut2, i) for i in (1, 2)],
    ] + [
        [operator_from_structure(m, m.basis_index(nm)) for nm in names]
        for names in M2A3_GENERATOR_SETS
    ]
    for gens in gens_sets:
        for local in (False, True):
            yield closure(gens, local_products=local)
    yield closure([], dim=3)


def test_closure_module_matches_dense_read_off():
    # the action columns read off the rows equal those of the dense modes,
    # in value and in key order
    count = 0
    for res in _closures_with_structure():
        assert res.status == "closed"
        got, ref = closure_module(res), dense_closure_module(res)
        assert got == ref
        assert [(key, list(modes.items())) for key, modes in table_of(got).items()] == [
            (key, list(modes.items())) for key, modes in table_of(ref).items()
        ]
        count += 1
    assert count == 9


def test_closure_module_needs_a_structure():
    A = ((F(0), F(1)), (F(0), F(0)))
    res = closure([dense_operator(2, {0: A})])
    assert res.structure is None
    for read_off in (closure_module, dense_closure_module):
        with pytest.raises(MalformedStructure):
            read_off(res)


def test_closure_module_is_faithful(yt):
    rep = verify_module_structure(closure([yt]))
    assert rep.passed
    assert rep.found_orders["faithful"] == 1


def test_corrupted_span_fails_module_verification(yt):
    res = closure([yt])
    # drop one coefficient of a span operator: the recorded structure
    # constants no longer match the action, so the module checks must fail
    victim = res.span.operators[2]
    broken = VertexOperator(
        victim.dim,
        {n: m for n, m in victim.rows.items() if n != min(victim.rows)},
        name=victim.name,
    )
    res.span.operators[2] = broken
    rep = verify_module_structure(res)
    assert not rep.passed
    assert rep.witnesses


def test_empty_generating_set(a3):
    res = closure([], dim=3)
    assert res.status == "closed" and res.span.rank == 1
    assert res.structure.basis == ("1_W",)


def test_empty_generating_set_needs_dimension():
    with pytest.raises(MalformedStructure):
        closure([])


@pytest.mark.parametrize("dim_cap", [0, -1], ids=["dim-cap-0", "dim-cap-negative"])
def test_closure_rejects_empty_range_and_caps_below_one(yt, dim_cap):
    with pytest.raises(InvalidArgument):
        closure([yt], dim_cap=dim_cap)


def test_closure_refuses_a_dim_its_generators_do_not_act_on(yt):
    with pytest.raises(NotCompatible):
        closure([yt], dim=4)
    assert closure([yt], dim=3).span.rank == 3


def test_a_product_escaping_the_generated_span_is_an_error(monkeypatch, yt):
    # the words of generator modes on 1_W span the closure, so no verified
    # product can escape; one made to escape raises, naming the pair and mode.
    # The rows of 1_W and of op1 = yt are read off, not formed, so the leak
    # sits in the row of op2, which generation never applies
    victim = closure([yt]).span.operators[2]
    assert not victim.equal(yt)
    residue = operators._residue_product

    def leaking(a, b, n, local):
        if a.equal(victim):
            return VertexOperator(a.dim, {99: {0: {0: 1}}})
        return residue(a, b, n, local)

    monkeypatch.setattr(operators, "_residue_product", leaking)
    with pytest.raises(MalformedStructure, match=r"product \(op2, 1_W\) at mode -1 escapes"):
        closure([yt])


def test_a_generator_above_mode_minus_one_is_infinite_dimensional():
    # a generator whose lowest mode is 3 (x^-4): its mode 3 composes with the
    # identity at mode -1 to itself, so a_n 1_W is nonzero at every n below 3
    # and the closure ends at its first pair, with no mode window to choose
    a_op = dense_operator(2, {3: ((F(1), F(0)), (F(0), F(0)))})
    res = closure([a_op])
    assert (res.status, res.certified, res.structure) == ("infinite-dimensional", True, None)
    assert (res.rounds, res.span.rank) == (1, 1)
    assert res.notes == [
        "modes (3, -1) of (generator 0, 1_W) compose to nonzero: "
        "their n-th products are nonzero at infinitely many n"
    ]


def _endless_witness(note):
    """The modes (n_a, n_b) an infinite-dimensional note names."""
    return tuple(int(m) for m in re.match(r"modes \((-?\d+), (-?\d+)\) of", note).groups())


def test_a_nilpotent_constant_generates_an_infinite_dimensional_span():
    # a(x) = A x^-1 with A nilpotent: A 1 = A is nonzero, so a_n 1_W is nonzero
    # at every n < 0 and no finite span is closed under the products; the
    # closure says so at once, whatever the cap
    A = ((F(0), F(1)), (F(0), F(0)))
    a_op, one = dense_operator(2, {0: A}, name="a"), identity_operator(2)
    for dim_cap in (64, 8, 1):
        res = closure([a_op], dim_cap=dim_cap)
        assert (res.status, res.certified, res.structure) == ("infinite-dimensional", True, None)
        assert res.notes == [
            "modes (0, -1) of (a, 1_W) compose to nonzero: "
            "their n-th products are nonzero at infinitely many n"
        ]
    # the witness re-derived: the two named mode matrices compose to nonzero,
    # and the product is nonzero at ten far modes
    n_a, n_b = _endless_witness(res.notes[0])
    assert any(any(row) for row in mat_mul(dense_modes(a_op)[n_a], dense_modes(one)[n_b]))
    assert not any(nth_product(a_op, one, n).is_zero() for n in range(-40, -30))


def test_a_noncommuting_nonnegative_mode_is_infinite_dimensional_in_both_products():
    # a = E12 at mode 0 and b = E22 at mode -1: E12 E22 = E12 is nonzero and
    # E22 E12 is zero, so the straight product is nonzero at every n < 0 and
    # the local one, a commutator at n >= 0, at every n >= 0
    E12 = ((F(0), F(1)), (F(0), F(0)))
    E22 = ((F(0), F(0)), (F(0), F(1)))
    a, b = dense_operator(2, {0: E12}, name="a"), dense_operator(2, {-1: E22}, name="b")
    for n in range(4):
        assert nth_product_local(a, b, n).rows == {-1 - n: {0: {1: F((-1) ** n)}}}
        assert nth_product(a, b, n).is_zero()
    for n in range(-40, -30):
        assert not nth_product(a, b, n).is_zero()
        assert nth_product_local(a, b, n).is_zero()
    assert endless_modes(a, b, False) == endless_modes(a, b, True) == (0, -1)
    # a meets the identity first, and A 1 = A is nonzero
    for local in (False, True):
        res = closure([a, b], local_products=local)
        assert (res.status, res.certified) == ("infinite-dimensional", True)
        assert res.notes == [
            "modes (0, -1) of (a, 1_W) compose to nonzero: "
            "their n-th products are nonzero at infinitely many n"
        ]


def test_straight_closure_stops_at_the_certified_ceiling(monkeypatch, yt):
    # straight products vanish identically at n >= 0, so none is formed there
    modes = []
    residue = operators._residue_product

    def recording(a, b, n, local):
        modes.append(n)
        return residue(a, b, n, local)

    monkeypatch.setattr(operators, "_residue_product", recording)
    res = closure([yt])
    assert res.status == "closed" and res.certified
    assert modes and max(modes) == -1


def test_closure_from_nonlocal_generators():
    # the image of a nonlocal structure still closes (compatibility, not
    # locality, is what the span needs)
    ut2 = upper_triangular_2()
    gens = [operator_from_structure(ut2, i) for i in (1, 2)]
    res = closure(gens)
    assert res.status == "closed"
    assert res.span.rank == 3
    assert validate_structure(res.structure).passed


def _sign_operator(rng, dim, modes):
    """An operator with sparse random entries 0, 1 and -1 at the given modes."""

    def entry():
        return rng.choice((-1, 1)) if rng.random() < 0.3 else 0

    return dense_operator(
        dim, {n: tuple(tuple(entry() for _ in range(dim)) for _ in range(dim)) for n in modes}
    )


def test_endless_modes_decides_the_far_products_and_the_closure():
    rng = random.Random(5)
    low, high = range(-40, -30), range(30, 40)
    tails = {False: 0, True: 0}
    for _ in range(400):
        dim = rng.choice((1, 2, 3))
        a, b = (_sign_operator(rng, dim, rng.sample(range(-3, 3), 2)) for _ in "ab")
        # straight: nonzero at every far n < 0 exactly on an endless tail, zero at n >= 0
        endless = endless_modes(a, b, False) is not None
        assert [not nth_product(a, b, n).is_zero() for n in low] == [endless] * 10
        assert all(nth_product(a, b, n).is_zero() for n in high)
        # local: some far product is nonzero exactly on an endless tail
        endless = endless_modes(a, b, True) is not None
        far = [not nth_product_local(a, b, n).is_zero() for n in (*low, *high)]
        assert any(far) == endless, (a.rows, b.rows)
        tails[endless] += 1
    assert min(tails.values()) > 50, tails
    statuses = {}
    for _ in range(200):
        dim = rng.choice((2, 3))
        gens = [
            _sign_operator(rng, dim, rng.sample(range(-3, 1), rng.choice((1, 2))))
            for _ in range(rng.choice((1, 2)))
        ]
        local = rng.random() < 0.5
        res = closure(gens, dim_cap=12, local_products=local)
        statuses[res.status] = statuses.get(res.status, 0) + 1
        # each round that does not end the closure adds a span element
        assert res.rounds <= 12 + 1, [g.rows for g in gens]
        assert res.certified == (res.status in ("closed", "infinite-dimensional"))
        if res.status == "closed":
            assert validate_structure(res.structure).passed
            assert check_module(res.structure, closure_module(res)).passed
    assert statuses.get("closed", 0) > 20 and statuses.get("infinite-dimensional", 0) > 20, statuses


def _assert_same_closure(got, ref):
    assert (got.status, got.certified, got.rounds, got.notes) == (
        ref.status,
        ref.certified,
        ref.rounds,
        ref.notes,
    )
    assert got.span.rank == ref.span.rank
    assert [op.rows for op in got.span.operators] == [op.rows for op in ref.span.operators]
    if ref.structure is None:
        assert got.structure is None
        return
    assert got.structure.basis == ref.structure.basis
    assert table_of(got.structure) == table_of(ref.structure)
    # the stored index, in key and mode order
    assert [(key, list(m.items())) for key, m in got.structure.mode_index.items()] == [
        (key, list(m.items())) for key, m in ref.structure.mode_index.items()
    ]
    data = [canonical_json(algebra_to_data(res.structure)) for res in (got, ref)]
    assert data[0] == data[1]


def _nilpotent_operator(rng, dim, modes):
    """An operator with strictly upper triangular random modes: its words of
    length dim vanish, so below mode 0 its closure is finite."""

    def entry(r, c):
        return rng.choice((-1, 1, 2)) if c > r and rng.random() < 0.6 else 0

    return dense_operator(
        dim, {n: tuple(tuple(entry(r, c) for c in range(dim)) for r in range(dim)) for n in modes}
    )


def test_closure_equals_the_all_pairs_reference(yt, yt2):
    # the verification skips pairs whose supports do not meet and reads the
    # vacuum row and the generator rows off invariants; the all-pairs loop,
    # which forms every product, is the oracle
    m, ut2 = matrix_over_a3(), upper_triangular_2()
    sets = [
        [operator_from_structure(m, m.basis_index(nm)) for nm in names]
        for names in M2A3_GENERATOR_SETS
    ]
    # repeated generators, one inside the span of another, and 1_W itself
    sets += [[yt, yt], [yt2, yt], [identity_operator(3), yt]]
    sets.append([operator_from_structure(ut2, i) for i in (1, 2)])
    for gens in sets:
        for local in (False, True):
            res = closure(gens, local_products=local)
            _assert_same_closure(res, reference_closure(gens, local_products=local))
    _assert_same_closure(closure([], dim=0), reference_closure([], dim=0))
    rng = random.Random(30)
    statuses = {}
    for case in range(200):
        dim = rng.choice((2, 3))
        if case % 2:  # below mode 0 only, or with endless tails
            modes = range(-3, rng.choice((0, 1)))
            make, caps = _sign_operator, (16, 64) if case % 16 == 1 else (16,)
        else:
            modes, make, caps = range(-3, 0), _nilpotent_operator, (16, 64)
        gens = [
            make(rng, dim, rng.sample(modes, rng.choice((1, 2))))
            for _ in range(rng.choice((1, 2)))
        ]
        for local in (False, True):
            for dim_cap in caps:
                res = closure(gens, dim_cap=dim_cap, local_products=local)
                _assert_same_closure(
                    res, reference_closure(gens, dim_cap=dim_cap, local_products=local)
                )
                statuses[res.status] = statuses.get(res.status, 0) + 1
    assert sum(statuses.values()) >= 300
    assert min(statuses.values()) >= 30 and len(statuses) == 3, statuses


def test_verification_forms_only_the_products_generation_has_not(monkeypatch):
    # on the benchmark's generator sets the all-pairs loop forms 331 products
    # per pass; the closure forms none in the vacuum row or a generator row
    m = matrix_over_a3()
    residue = operators._residue_product
    formed = []

    def counting(a, b, n, local):
        formed.append(a)
        return residue(a, b, n, local)

    monkeypatch.setattr(operators, "_residue_product", counting)
    counts = {reference_closure: 0, closure: 0}
    for names in M2A3_GENERATOR_SETS:
        gens = [operator_from_structure(m, m.basis_index(nm)) for nm in names]
        for close in counts:
            formed.clear()
            res = close(gens)
            counts[close] += len(formed)
        ops = res.span.operators
        read_off = [ops[0]] + [op for op in ops if any(op.equal(g) for g in gens)]
        assert len(read_off) == 1 + len(gens)
        assert not [a for a in formed if any(a is op for op in read_off)]
    assert counts[reference_closure] == 331
    assert counts[closure] <= 150, counts


def _masked_operator(rng, dim, rows, cols):
    """An operator at two random modes, each with a nonzero entry, that writes
    only the given rows and reads only the given columns."""
    modes = {}
    for n in rng.sample(range(-3, 3), 2):
        keep = (rng.choice(sorted(rows)), rng.choice(sorted(cols)))

        def entry(r, c):
            if (r, c) == keep or (r in rows and c in cols and rng.random() < 0.5):
                return rng.choice((-1, 1))
            return 0

        modes[n] = tuple(tuple(entry(r, c) for c in range(dim)) for r in range(dim))
    return dense_operator(dim, modes)


def test_vacuum_creation_and_disjoint_supports_in_closed_form():
    # 1_{-1} b = b and b_{-1} 1_W = b for both products; and a pair where no
    # column of a is a row of b, nor a column of b a row of a, has every
    # product zero and no endless tail, in both products
    rng = random.Random(31)
    for _ in range(200):
        dim = rng.choice((2, 3, 4))
        rows_a, cols_a = (set(rng.sample(range(dim), rng.randint(1, dim - 1))) for _ in "rc")
        rows_b, cols_b = (
            set(rng.sample(pool, rng.randint(1, len(pool))))
            for pool in (sorted(set(range(dim)) - cols_a), sorted(set(range(dim)) - rows_a))
        )
        a = _masked_operator(rng, dim, rows_a, cols_a)
        b = _masked_operator(rng, dim, rows_b, cols_b)
        one = identity_operator(dim)
        for local, product in ((False, nth_product), (True, nth_product_local)):
            assert product(one, b, -1).equal(b)
            assert product(a, one, -1).equal(a)
            assert endless_modes(a, b, local) is None
            assert all(product(a, b, n).is_zero() for n in range(-8, 4))
