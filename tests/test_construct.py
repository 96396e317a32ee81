"""Builders: associative sources, tensors, matrices, twists, cross products."""

from fractions import Fraction

import pytest

from vertexcalc.algebra import (
    d_operator,
    find_locality_k,
    find_weak_assoc_l,
    validate_structure,
    weak_assoc_triple,
)
from vertexcalc.construct import (
    AssocAlgebraData,
    CocycleData,
    GradedTag,
    GroupActionData,
    check_jacobi_like,
    cocycle_twist,
    cross_product,
    from_assoc_with_derivation,
    full_matrix_algebra,
    group_algebra,
    matrix_algebra,
    rmap_cross_abelian,
    rmap_from_commutator,
    rmap_identity,
    rmap_tensor_swap,
    tensor_product,
)
from vertexcalc.errors import (
    CocycleInvalid,
    GradingInvalid,
    NonNilpotentD,
    NotADerivation,
    NotAnAutomorphism,
)
from vertexcalc.fixtures import (
    cross_a2_z2,
    dual_numbers,
    klein_cocycle,
    klein_group_algebra,
    klein_twist,
    matrix_over_a3,
    sign_flip_action,
    truncated_poly_3,
)
from vertexcalc.linalg import mat_vec, unit_vec

F = Fraction


# -- associative sources -------------------------------------------------------


def test_derivative_on_truncated_polynomials_is_rejected():
    # d/dt fails Leibniz on Q[t]/(t^3): d(t * t^2) = 0 but t^2 + 2t^2 = 3t^2
    basis = ("one", "t", "t2")
    table = {
        (0, 0): unit_vec(3, 0),
        (0, 1): unit_vec(3, 1),
        (0, 2): unit_vec(3, 2),
        (1, 0): unit_vec(3, 1),
        (1, 1): unit_vec(3, 2),
        (1, 2): (F(0),) * 3,
        (2, 0): unit_vec(3, 2),
        (2, 1): (F(0),) * 3,
        (2, 2): (F(0),) * 3,
    }
    ddt = (
        (F(0), F(1), F(0)),
        (F(0), F(0), F(2)),
        (F(0), F(0), F(0)),
    )
    data = AssocAlgebraData(basis=basis, table=table, identity=0, derivation=ddt)
    with pytest.raises(NotADerivation):
        from_assoc_with_derivation(data)


def test_non_nilpotent_derivation_rejected():
    # the Euler derivation t d/dt on Q[t]/(t^2) satisfies Leibniz but never dies
    basis = ("one", "t")
    table = {
        (0, 0): unit_vec(2, 0),
        (0, 1): unit_vec(2, 1),
        (1, 0): unit_vec(2, 1),
        (1, 1): (F(0), F(0)),
    }
    euler = ((F(0), F(0)), (F(0), F(1)))
    data = AssocAlgebraData(basis=basis, table=table, identity=0, derivation=euler)
    with pytest.raises(NonNilpotentD):
        from_assoc_with_derivation(data)


def test_zero_derivation_gives_constant_operators():
    alg = dual_numbers()
    for (i, j), modes in alg.y_data.items():
        assert set(modes) == {-1}


def test_a3_richness_values():
    alg = truncated_poly_3()
    t = alg.basis_index("t")
    t2 = alg.basis_index("t2")
    # Y(t,x)one = t + x t^2 and Y(t,x)t = t^2
    assert alg.product(t, -1, alg.vacuum) == unit_vec(3, t)
    assert alg.product(t, -2, alg.vacuum) == unit_vec(3, t2)
    assert alg.product(t, -1, t) == unit_vec(3, t2)


# -- tensor products ------------------------------------------------------------


def test_tensor_with_unit_factor_is_identity():
    a3 = truncated_poly_3()
    unit = full_matrix_algebra(1)
    out = tensor_product([a3, unit])
    assert validate_structure(out).passed
    assert set(out.y_data) == set(a3.y_data)
    for key in out.y_data:
        assert out.y_data[key] == a3.y_data[key]


def test_tensor_products_validate():
    a3 = truncated_poly_3()
    out = tensor_product([a3, a3])
    assert validate_structure(out).passed
    assert out.dim == 9


def test_tensor_translation_operator_is_additive():
    a3 = truncated_poly_3()
    out = tensor_product([a3, a3])
    d = d_operator(out)
    t_one = out.basis_index("t*one")
    one_t = out.basis_index("one*t")
    t2_one = out.basis_index("t2*one")
    one_t2 = out.basis_index("one*t2")
    assert mat_vec(d, unit_vec(9, t_one)) == unit_vec(9, t2_one)
    assert mat_vec(d, unit_vec(9, one_t)) == unit_vec(9, one_t2)


# -- matrix algebras --------------------------------------------------------------


def test_matrix_algebra_size_one_is_isomorphic():
    a3 = truncated_poly_3()
    out = matrix_algebra(a3, 1)
    assert set(out.y_data) == set(a3.y_data)
    for key in out.y_data:
        assert out.y_data[key] == a3.y_data[key]


def test_matrix_algebra_equals_tensor_with_matrix_factor():
    a3 = truncated_poly_3()
    direct = matrix_algebra(a3, 2)
    via_tensor = tensor_product([a3, full_matrix_algebra(2)])
    assert direct.basis == via_tensor.basis
    assert direct.vacuum == via_tensor.vacuum
    assert set(direct.y_data) == set(via_tensor.y_data)
    for key in direct.y_data:
        assert direct.y_data[key] == via_tensor.y_data[key]


def test_matrix_algebra_mode_value():
    # Y(t*E11, x)(t*E12) = (Y(t,x)t) * E12 = t2 * E12
    m = matrix_over_a3()
    u = m.basis_index("t*E11")
    v = m.basis_index("t*E12")
    out = m.basis_index("t2*E12")
    assert m.product(u, -1, v) == unit_vec(12, out)
    assert m.y_data.get((u, v), {}).keys() == {-1}


def test_matrix_algebra_is_nonlocal():
    m = matrix_over_a3()
    u = m.basis_index("one*E11")
    v = m.basis_index("one*E12")
    assert not find_locality_k(m, u, v, F(1)).found
    assert find_weak_assoc_l(m, u, v).found


# -- cocycle twists ----------------------------------------------------------------


def test_klein_cocycle_validates():
    _, grading = klein_group_algebra()
    klein_cocycle(grading).validate()


def test_broken_cocycle_rejected():
    _, grading = klein_group_algebra()
    c = klein_cocycle(grading)
    c.table[((1, 0), (0, 1))] = F(2)  # breaks the cocycle identity
    with pytest.raises(CocycleInvalid):
        c.validate()


def test_unnormalized_cocycle_rejected():
    _, grading = klein_group_algebra()
    c = klein_cocycle(grading)
    c.table[((0, 0), (1, 0))] = F(-1)
    with pytest.raises(CocycleInvalid):
        c.validate()


def test_grading_must_respect_products():
    alg, grading = klein_group_algebra()
    bad = GradedTag(orders=(2, 2), degrees=((0, 0), (0, 1), (1, 0), (1, 0)))
    with pytest.raises(GradingInvalid):
        cocycle_twist(alg, bad, klein_cocycle(grading))


def test_trivial_cocycle_preserves_structure():
    alg, grading = klein_group_algebra()
    trivial = CocycleData(
        grading=grading,
        table={(g, h): F(1) for g in grading.elements() for h in grading.elements()},
    )
    out = cocycle_twist(alg, grading, trivial)
    assert set(out.y_data) == set(alg.y_data)
    for key in out.y_data:
        assert out.y_data[key] == alg.y_data[key]


def test_twist_sign_table():
    tw, grading, cocycle = klein_twist()
    i01, i10, i11 = (tw.basis_index(n) for n in ("g01", "g10", "g11"))
    # eps((0,1),(1,0)) = -1 flips the product to -g11
    assert tw.product(i01, -1, i10) == tuple(
        F(-1) if k == i11 else F(0) for k in range(4)
    )
    # the commutator scalar is bilinear and equals -1 on the crossed pair
    assert cocycle.commutator((1, 0), (0, 1)) == -1
    for g in grading.elements():
        assert cocycle.commutator(g, (0, 0)) == 1


def test_symmetric_cocycle_keeps_q1_locality():
    alg, grading = klein_group_algebra()
    sym = CocycleData(
        grading=grading,
        table={
            (g, h): F(-1) if (g[0] * h[0]) % 2 else F(1)
            for g in grading.elements()
            for h in grading.elements()
        },
    )
    sym.validate()
    out = cocycle_twist(alg, grading, sym)
    for i in range(4):
        for j in range(4):
            assert find_locality_k(out, i, j, F(1)).found


# -- cross products -----------------------------------------------------------------


def test_cross_product_values():
    cross, base, act = cross_a2_z2()
    tg = cross.basis_index("t|g")
    te = cross.basis_index("t|e")
    oe = cross.basis_index("one|e")
    # Y(t g, x)(t e) = t g(t) (g e) = -t^2 g = 0
    assert (tg, te) not in cross.y_data
    # Y(t g, x)(one e) = t g
    assert cross.product(tg, -1, oe) == unit_vec(4, tg)


def test_cross_product_is_weak_variant():
    cross, _, _ = cross_a2_z2()
    assert cross.assoc_variant == "weak"
    for u in range(4):
        for v in range(4):
            for w in range(4):
                assert weak_assoc_triple(cross, u, v, w).found


def test_non_automorphism_rejected():
    base = dual_numbers()
    bad = GroupActionData(
        elements=("e", "g"),
        table={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
        action={
            0: ((F(1), F(0)), (F(0), F(1))),
            1: ((F(1), F(0)), (F(1), F(1))),  # sends one to one + t
        },
    )
    with pytest.raises(NotAnAutomorphism):
        cross_product(base, bad)


def test_trivial_action_cross_equals_tensor_with_group_algebra():
    base = dual_numbers()
    ident = ((F(1), F(0)), (F(0), F(1)))
    trivial = GroupActionData(
        elements=("e", "g"),
        table={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
        action={0: ident, 1: ident},
    )
    cross = cross_product(base, trivial)
    ga, _ = group_algebra((2,))
    tens = tensor_product([base, ga])
    assert set(cross.y_data) == set(tens.y_data)
    for key in cross.y_data:
        assert cross.y_data[key] == tens.y_data[key]


# -- the Jacobi-like identity with an R-map --------------------------------------------


def test_jacobi_like_identity_rmap_on_local_structure():
    a3 = truncated_poly_3()
    rep = check_jacobi_like(a3, rmap_identity(3))
    assert rep.passed


def test_jacobi_like_cross_abelian():
    cross, base, act = cross_a2_z2()
    rep = check_jacobi_like(cross, rmap_cross_abelian(base.dim, act))
    assert rep.passed


def test_jacobi_like_twist_commutator():
    tw, grading, cocycle = klein_twist()
    rep = check_jacobi_like(tw, rmap_from_commutator(tw, grading, cocycle))
    assert rep.passed


def test_jacobi_like_tensor_swap_on_matrix_structure():
    m = matrix_over_a3()
    rep = check_jacobi_like(m, rmap_tensor_swap(3, 4))
    assert rep.passed


def test_jacobi_like_fails_with_wrong_rmap():
    # the untwisted identity R cannot absorb the noncommutativity of M(2, a3)
    m = matrix_over_a3()
    u = m.basis_index("one*E11")
    v = m.basis_index("one*E12")
    rep = check_jacobi_like(m, rmap_identity(12), triples=[(u, v, m.vacuum)])
    assert not rep.passed
