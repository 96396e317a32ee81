"""Builders: associative sources, tensors, matrices, twists, cross products."""

import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
import reference_builders as dense
from reference_pairs import product_sparse, reversed_sparse
from reference_tables import (
    apply_columns,
    dense_matrix,
    dense_table,
    index_from_dense,
    product,
    sparse_columns,
    table_of,
)

from vertexcalc import pairs as pairs_module
from vertexcalc.algebra import (
    AlgebraStructure,
    add_term,
    check_jacobi,
    d_columns,
    find_locality_k,
    find_weak_assoc_l,
    sparse_differences,
    validate_structure,
    weak_assoc_triple,
)
from vertexcalc.construct import (
    AssocAlgebraData,
    RMap,
    CocycleData,
    GradedTag,
    GroupActionData,
    _MatrixBasis,
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
    table_tensor,
    tensor_product,
)
from vertexcalc.errors import (
    CocycleInvalid,
    GradingInvalid,
    MalformedStructure,
    NonNilpotentD,
    NotADerivation,
    NotAnAutomorphism,
    VertexCalcError,
)
from vertexcalc.fileio import (
    algebra_to_data,
    module_section,
    parse_algebra_file,
    write_algebra_file,
)
from vertexcalc.fixtures import (
    all_fixture_builders,
    cross_a2_z2,
    dual_numbers,
    klein_cocycle,
    klein_group_algebra,
    klein_twist,
    matrix_over_a3,
    sign_flip_action,
    truncated_poly_3,
)
from vertexcalc.linalg import ONE, mat_vec, support, unit_vec, vec_add, vec_scale
from vertexcalc.modules import ModuleStructure, adjoint_module, tensor_module, wn_module
from vertexcalc.operators import closure, closure_module, operator_from_structure
from vertexcalc.pairs import pair_analysis
from vertexcalc.report import CheckReport, Witness

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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
    data = dense.assoc_data(basis, table, 0, ddt)
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
    data = dense.assoc_data(basis, table, 0, euler)
    with pytest.raises(NonNilpotentD):
        from_assoc_with_derivation(data)


def test_zero_derivation_gives_constant_operators():
    alg = dual_numbers()
    for (i, j), modes in table_of(alg).items():
        assert set(modes) == {-1}


def test_a3_richness_values():
    alg = truncated_poly_3()
    t = alg.basis_index("t")
    t2 = alg.basis_index("t2")
    # Y(t,x)one = t + x t^2 and Y(t,x)t = t^2
    assert product(alg, t, -1, alg.vacuum) == unit_vec(3, t)
    assert product(alg, t, -2, alg.vacuum) == unit_vec(3, t2)
    assert product(alg, t, -1, t) == unit_vec(3, t2)


@pytest.mark.parametrize(
    "derivation",
    [
        [[(2, 1)], []],  # two columns
        [[], [(2, 1)], [], []],  # four columns
        [[], [(3, 1)], []],  # a fourth row
    ],
)
def test_a_derivation_that_is_not_dim_by_dim_is_malformed(derivation):
    a3 = parse_algebra_file(FIXTURES / "a3.json").assoc
    with pytest.raises(MalformedStructure, match="the derivation is not 3x3"):
        AssocAlgebraData(a3.basis, a3.table, a3.identity, derivation)


@pytest.mark.parametrize(
    "key,cell", [((0, 3), {0: 1}), ((3, 0), {0: 1}), ((1, 1), {3: 1}), ((1, 1), {-1: 1})]
)
def test_a_table_cell_outside_the_basis_is_malformed(key, cell):
    a3 = parse_algebra_file(FIXTURES / "a3.json").assoc
    table = {**a3.table, key: cell}
    message = re.escape("bad table entry at ({},{})".format(*key))
    with pytest.raises(MalformedStructure, match=message):
        AssocAlgebraData(a3.basis, table, a3.identity, a3.derivation)


def test_the_table_cells_are_sparse():
    # the parser hands each {name: rational} cell in as {k: c}; zero
    # coefficients are dropped and integral values become ints
    a3 = parse_algebra_file(FIXTURES / "a3.json").assoc
    assert a3.table == {
        (0, 0): {0: 1},
        (0, 1): {1: 1},
        (0, 2): {2: 1},
        (1, 0): {1: 1},
        (1, 1): {2: 1},
        (1, 2): {},
        (2, 0): {2: 1},
        (2, 1): {},
        (2, 2): {},
    }
    table = {(0, 0): {0: F(1)}, (0, 1): {1: F(2, 2), 0: 0}}
    data = AssocAlgebraData(("one", "t"), table, 0, [[], []])
    assert data.table == {(0, 0): {0: 1}, (0, 1): {1: 1}}
    assert type(data.table[(0, 0)][0]) is int


def test_the_derivation_is_sparse_columns():
    # the parser hands the dense derivation in as its columns' nonzero (r, c)
    assert parse_algebra_file(FIXTURES / "a3.json").assoc.derivation == [[], [(2, 1)], []]
    data = AssocAlgebraData(("one", "t"), {(0, 0): {0: 1}}, 0, [[(1, F(0))], [(0, F(4, 2))]])
    assert data.derivation == [[], [(0, 2)]] and type(data.derivation[1][0][1]) is int


def test_the_leibniz_failure_names_the_pair_and_its_sparse_sides():
    # d/dt on Q[t]/(t^2) fails Leibniz on (t, t): d(t^2) = 0 but 2t d(t) = 2t
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    data = AssocAlgebraData(("one", "t"), table, 0, [[], [(0, 1)]])
    with pytest.raises(NotADerivation) as exc:
        from_assoc_with_derivation(data)
    assert str(exc.value) == "Leibniz fails on (t, t): 0 != 2 t"


# -- the sparse builders against their dense oracle -------------------------------------

_RATIONALS = (F(1), F(-1), F(2), F(1, 2), F(-3, 2))


def _truncated(k: int, m: int, c: Fraction) -> AssocAlgebraData:
    """Q[t]/(t^k) with c t^m d/dt: a derivation for m >= 1, nilpotent for m >= 2.

    For m = 0 and k >= 2 it is no derivation: d(t^(k-1) t) = 0, but k t^(k-1) is not.
    """
    table = {
        (i, j): unit_vec(k, i + j) if i + j < k else (F(0),) * k for i in range(k) for j in range(k)
    }
    d = tuple(tuple(c * a if r == a + m - 1 else F(0) for a in range(k)) for r in range(k))
    return dense.assoc_data(tuple(f"t{a}" for a in range(k)), table, 0, d)


def _perturbed(data: AssocAlgebraData, rng, derivation: bool) -> AssocAlgebraData:
    """The data with one random entry of its derivation, or of one product, replaced."""
    d = [list(row) for row in dense_matrix(data.derivation)]
    table = dict(data.table)
    r, c = rng.randrange(data.dim), rng.randrange(data.dim)
    if derivation:
        d[r][c] = rng.choice(_RATIONALS)
    else:
        cell = tuple(rng.choice((F(0),) + _RATIONALS) for _ in range(data.dim))
        table[(r, c)] = dict(support(cell))
    return AssocAlgebraData(data.basis, table, data.identity, sparse_columns(d))


def _assoc_cases(rng):
    for k in range(1, 6):
        for m in range(4):
            data = _truncated(k, m, rng.choice(_RATIONALS))
            yield data
            yield _perturbed(data, rng, derivation=True)
            yield _perturbed(data, rng, derivation=False)
    ut2 = parse_algebra_file(FIXTURES / "ut2.json").assoc
    # the inner derivation [E12, -]: e11 -> -e12
    ad = ((F(0),) * 3, (F(0),) * 3, (F(0), rng.choice(_RATIONALS), F(0)))
    yield AssocAlgebraData(ut2.basis, ut2.table, ut2.identity, sparse_columns(ad))
    for derivation in (True, True, False):
        yield _perturbed(ut2, rng, derivation)
    for orders in [(2,), (3,), (2, 2), (4,), (2, 3)]:
        group = GradedTag(orders, ())
        els = group.elements()
        index = {g: n for n, g in enumerate(els)}
        table = {
            (a, b): unit_vec(len(els), index[group.add(ga, gb)])
            for a, ga in enumerate(els)
            for b, gb in enumerate(els)
        }
        zero = tuple((F(0),) * len(els) for _ in els)
        data = dense.assoc_data(tuple(map(str, els)), table, index[group.zero()], zero)
        yield data
        yield _perturbed(data, rng, derivation=True)


def _outcome(build):
    """What build() returns, or the class and message of the library error it raises."""
    try:
        return build()
    except VertexCalcError as exc:
        return type(exc), str(exc)


def test_from_assoc_matches_the_dense_builder():
    # equal structures, mode tables included, or the same error with the same message
    rng = random.Random(20)
    seen = set()
    for data in _assoc_cases(rng):
        expected = _outcome(lambda: dense.from_assoc_with_derivation(data))
        assert _outcome(lambda: from_assoc_with_derivation(data)) == expected
        seen.add(expected[0] if isinstance(expected, tuple) else "built")
    assert seen == {"built", MalformedStructure, NotADerivation, NonNilpotentD}


def _actions(rng):
    """(base, action): random Z2 and Z3 matrix tables on the dual numbers and on a3.

    Each matrix is drawn dense and handed over as its sparse columns: a
    scaling t^r -> b^r t^r, a sign change of the basis vectors other than
    the vacuum, or random entries.  Many draws are no group action.
    """
    z2 = {(g, h): (g + h) % 2 for g in range(2) for h in range(2)}
    z3 = {(g, h): (g + h) % 3 for g in range(3) for h in range(3)}
    entries = (F(0), F(0)) + _RATIONALS
    for base in (dual_numbers(), truncated_poly_3()):
        dim = base.dim
        ident = sparse_columns(tuple(unit_vec(dim, r) for r in range(dim)))

        def matrix():
            kind = rng.random()
            if kind < 0.4:  # t -> b t, an automorphism of the dual numbers
                b = rng.choice(_RATIONALS)
                m = tuple(vec_scale(b**r, unit_vec(dim, r)) for r in range(dim))
            elif kind < 0.7:  # an involution, an automorphism of a3 only if it is 1
                m = tuple(vec_scale(rng.choice((1, -1)) if r else 1, unit_vec(dim, r)) for r in range(dim))
            else:
                m = tuple(tuple(rng.choice(entries) for _ in range(dim)) for _ in range(dim))
            return sparse_columns(m)

        for _ in range(12):
            yield base, GroupActionData(("e", "g"), z2, {0: ident, 1: matrix()})
            yield base, GroupActionData(("e", "g", "g2"), z3, {0: ident, 1: matrix(), 2: matrix()})


def test_group_actions_match_the_dense_builders():
    # the same verdict class; on an automorphism the same cross product and
    # R-map.  Matrices that are no group action are refused before the
    # automorphism check, as dense matrix products decide
    rng = random.Random(20)
    seen = set()
    for base, act in _actions(rng):
        expected = MalformedStructure
        if dense.is_group_action(act):
            expected = _outcome(lambda: dense.validate_action(act, base))
            expected = expected if expected is None else expected[0]
        got = _outcome(lambda: act.validate_action(base))
        assert (got if got is None else got[0]) == expected
        seen.add(expected)
        if expected is None:
            assert cross_product(base, act) == dense.cross_product(base, act)
            rmap = rmap_cross_abelian(base.dim, act)
            assert rmap.entries == dense.rmap_cross_abelian(base.dim, act).entries
    assert seen == {None, NotAnAutomorphism, MalformedStructure}


def test_a_failing_action_names_the_least_failing_mode():
    # the involution t -> -t on a3 keeps every mode -1 product but sends
    # (t)_-2(one) = t2 to -t2, where g(t2) = t2
    a3 = truncated_poly_3()
    flip = GroupActionData(
        ("e", "g"),
        {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
        {0: [[(0, 1)], [(1, 1)], [(2, 1)]], 1: [[(0, 1)], [(1, -1)], [(2, 1)]]},
    )
    with pytest.raises(NotAnAutomorphism, match=r"^g fails on \(t\)_-2\(one\)$"):
        flip.validate_action(a3)


def test_cocycle_keys_outside_the_group_are_refused():
    grading = klein_group_algebra()[1]
    table = klein_cocycle(grading).table
    for key in [((0, 0, 0), (0, 0)), ((0, 2), (0, 0)), ((3, 0), (1, 1))]:
        with pytest.raises(CocycleInvalid, match=re.escape(f"cocycle key {key} is not")):
            CocycleData(grading, {**table, key: F(1)})


@pytest.mark.parametrize("orders", [(10**9, 2), (10**30, 2)])
def test_a_huge_group_is_checked_by_components_and_refused_by_size(orders):
    # the keys were checked against the set of every group element, which
    # ran out of memory at order 2 * 10^9 and overflowed at 2 * 10^30; the
    # Klein table's keys lie in the larger group, and it is 16 entries short
    # of a 2-cocycle on it, refused before validate lists the group
    grading = GradedTag(orders=orders, degrees=())
    table = klein_cocycle(klein_group_algebra()[1]).table
    cocycle = CocycleData(grading, table)
    with pytest.raises(CocycleInvalid, match=re.escape(f"has 16 of {2 * orders[0]}^2 entries")):
        cocycle.validate()
    # a component that is no int, or a key side that is no tuple, is no element either
    outside = [((0, 2), (0, 0)), ((orders[0], 0), (1, 1)), ((0, -1), (0, 0)), ((0,), (0, 0))]
    for key in outside + [(("a", 0), (0, 0)), ((0, 0), 5)]:
        with pytest.raises(CocycleInvalid, match=re.escape(f"cocycle key {key} is not")):
            CocycleData(grading, {**table, key: F(1)})


# -- tensor products ------------------------------------------------------------


def test_tensor_with_unit_factor_is_identity():
    a3 = truncated_poly_3()
    unit = full_matrix_algebra(1)
    out = tensor_product([a3, unit])
    assert validate_structure(out).passed
    got, ref = table_of(out), table_of(a3)
    assert set(got) == set(ref)
    for key in got:
        assert got[key] == ref[key]


def test_tensor_products_validate():
    a3 = truncated_poly_3()
    out = tensor_product([a3, a3])
    assert validate_structure(out).passed
    assert out.dim == 9


def test_tensor_translation_operator_is_additive():
    a3 = truncated_poly_3()
    out = tensor_product([a3, a3])
    cols = d_columns(out)
    t_one = out.basis_index("t*one")
    one_t = out.basis_index("one*t")
    t2_one = out.basis_index("t2*one")
    one_t2 = out.basis_index("one*t2")
    assert apply_columns(cols, unit_vec(9, t_one)) == unit_vec(9, t2_one)
    assert apply_columns(cols, unit_vec(9, one_t)) == unit_vec(9, one_t2)


# -- matrix algebras --------------------------------------------------------------


def test_matrix_algebra_size_one_is_isomorphic():
    a3 = truncated_poly_3()
    out = matrix_algebra(a3, 1)
    got, ref = table_of(out), table_of(a3)
    assert set(got) == set(ref)
    for key in got:
        assert got[key] == ref[key]


def test_matrix_algebra_equals_tensor_with_matrix_factor():
    a3 = truncated_poly_3()
    direct = matrix_algebra(a3, 2)
    via_tensor = tensor_product([a3, full_matrix_algebra(2)])
    assert direct.basis == via_tensor.basis
    assert direct.vacuum == via_tensor.vacuum
    got, ref = table_of(direct), table_of(via_tensor)
    assert set(got) == set(ref)
    for key in got:
        assert got[key] == ref[key]


@pytest.mark.parametrize("n", [0, -1])
def test_matrix_size_below_one_is_malformed(n):
    a3 = truncated_poly_3()
    for build in (lambda: full_matrix_algebra(n), lambda: matrix_algebra(a3, n),
                  lambda: wn_module(a3, adjoint_module(a3), n)):
        with pytest.raises(MalformedStructure, match="matrix size must be positive"):
            build()


def test_matrix_algebra_mode_value():
    # Y(t*E11, x)(t*E12) = (Y(t,x)t) * E12 = t2 * E12
    m = matrix_over_a3()
    u = m.basis_index("t*E11")
    v = m.basis_index("t*E12")
    out = m.basis_index("t2*E12")
    assert product(m, u, -1, v) == unit_vec(12, out)
    assert table_of(m).get((u, v), {}).keys() == {-1}


def test_matrix_algebra_is_nonlocal():
    m = matrix_over_a3()
    u = m.basis_index("one*E11")
    v = m.basis_index("one*E12")
    assert find_locality_k(m, u, v, F(1)) is not None
    assert find_weak_assoc_l(m, u, v) is None


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
    got, ref = table_of(out), table_of(alg)
    assert set(got) == set(ref)
    for key in got:
        assert got[key] == ref[key]


def test_twist_sign_table():
    tw, grading, cocycle = klein_twist()
    i01, i10, i11 = (tw.basis_index(n) for n in ("g01", "g10", "g11"))
    # eps((0,1),(1,0)) = -1 flips the product to -g11
    assert product(tw, i01, -1, i10) == tuple(
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
            assert find_locality_k(out, i, j, F(1)) is None


# -- cross products -----------------------------------------------------------------


def test_cross_product_values():
    cross, base, act = cross_a2_z2()
    tg = cross.basis_index("t|g")
    te = cross.basis_index("t|e")
    oe = cross.basis_index("one|e")
    # Y(t g, x)(t e) = t g(t) (g e) = -t^2 g = 0
    assert (tg, te) not in table_of(cross)
    # Y(t g, x)(one e) = t g
    assert product(cross, tg, -1, oe) == unit_vec(4, tg)


def test_cross_product_is_weak_variant():
    cross, _, _ = cross_a2_z2()
    assert cross.assoc_variant == "weak"
    for u in range(4):
        for v in range(4):
            for w in range(4):
                assert weak_assoc_triple(cross, u, v, w) is None


def test_non_automorphism_rejected():
    base = dual_numbers()
    bad = GroupActionData(
        elements=("e", "g"),
        table={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
        action={
            0: [[(0, 1)], [(1, 1)]],
            1: [[(0, 1), (1, 1)], [(1, -1)]],  # an involution that sends one to one + t
        },
    )
    with pytest.raises(NotAnAutomorphism):
        cross_product(base, bad)


@pytest.mark.parametrize(
    "matrix", [[[(0, 1)], [(1, 1), (2, 5)]], [[(0, 1)], [(1, 1)], [(0, 5)]]]
)
def test_validate_action_refuses_a_matrix_that_is_not_dim_by_dim(matrix):
    # a third row or a third column on the 2-dim base; called on its own, a
    # dense 3x2 matrix was refused as moving the vacuum and a 2x3 one was
    # accepted, its last column cut off
    flip = sign_flip_action()
    act = GroupActionData(("e", "g"), flip.table, {0: flip.action[0], 1: matrix})
    with pytest.raises(MalformedStructure, match="the action matrix of g is not 2x2"):
        act.validate_action(dual_numbers())


_Z2 = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
_ONE2, _FLIP2 = [[(0, 1)], [(1, 1)]], [[(0, 1)], [(1, -1)]]

# tables of matrices on the dual numbers that are no group action, with the refusal
NO_GROUP_ACTIONS = {
    "no-elements": ((), {}, {}, "identity row/column of the group table is wrong"),
    "extra-table-entry": (
        ("e", "g"), {**_Z2, (0, 2): 0}, {0: _ONE2, 1: _FLIP2},
        "the group table is not 2x2 over its elements",
    ),
    "not-associative": (
        ("e", "a", "b"),
        {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (1, 1): 0, (1, 2): 0,
         (2, 0): 2, (2, 1): 0, (2, 2): 1},
        {0: _ONE2, 1: _ONE2, 2: _ONE2},
        "the group table is not associative at (a,a,b)",
    ),
    "no-inverse": (
        ("e", "g"), {**_Z2, (1, 1): 1}, {0: _ONE2, 1: _ONE2}, "element g has no inverse",
    ),
    "identity-not-one": (
        ("e", "g"), _Z2, {0: _FLIP2, 1: _FLIP2}, "the identity e does not act as 1",
    ),
    "not-a-homomorphism": (
        ("e", "g"), _Z2, {0: _ONE2, 1: [[(0, 1)], [(1, 2)]]}, "g after g does not act as e",
    ),
}


@pytest.mark.parametrize("case", sorted(NO_GROUP_ACTIONS))
def test_validate_group_refuses_what_is_no_group_action(case):
    # each was accepted: the cross product was built, and failed its axioms
    elements, table, action, message = NO_GROUP_ACTIONS[case]
    act = GroupActionData(elements, table, action)
    with pytest.raises(MalformedStructure, match=f"^{re.escape(message)}$"):
        act.validate_group(2)
    with pytest.raises(MalformedStructure, match=f"^{re.escape(message)}$"):
        cross_product(dual_numbers(), act)


def test_the_action_matrices_are_sparse_columns():
    # the parser hands each dense matrix in as its columns' nonzero (r, c);
    # the constructor drops zero entries and makes integral values ints
    act = parse_algebra_file(FIXTURES / "a2_base.json").group
    assert act.action == {0: [[(0, 1)], [(1, 1)]], 1: [[(0, 1)], [(1, -1)]]}
    act = GroupActionData(("e",), {(0, 0): 0}, {0: [[(1, F(0)), (0, F(2, 2))], [(1, 1)]]})
    assert act.action == {0: [[(0, 1)], [(1, 1)]]} and type(act.action[0][0][0][1]) is int


def test_trivial_action_cross_equals_tensor_with_group_algebra():
    base = dual_numbers()
    ident = [[(0, 1)], [(1, 1)]]
    trivial = GroupActionData(
        elements=("e", "g"),
        table={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
        action={0: ident, 1: ident},
    )
    cross = cross_product(base, trivial)
    ga, _ = group_algebra((2,))
    tens = tensor_product([base, ga])
    got, ref = table_of(cross), table_of(tens)
    assert set(got) == set(ref)
    for key in got:
        assert got[key] == ref[key]


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


def _q_jacobi_union(alg, q_of):
    # the witnesses of check_jacobi(alg, u, v, q_of(u, v)) over every pair, in
    # triple order: read off the commutation profiles, not off a scatter
    return [
        wit
        for u, v in itertools.product(range(alg.dim), repeat=2)
        for wit in check_jacobi(alg, u, v, q_of(u, v)).witnesses
    ]


def test_jacobi_like_fails_with_wrong_rmap():
    # the untwisted identity R cannot absorb the noncommutativity of M(2, a3):
    # with it the Jacobi-like identity is the q = 1 Jacobi identity
    m = matrix_over_a3()
    rep = check_jacobi_like(m, rmap_identity(12))
    assert (rep.verdict, rep.exact, len(rep.witnesses)) == ("fail", True, 180)
    assert rep.witnesses == _q_jacobi_union(m, lambda u, v: ONE)
    names = ("one*E11", "one*E12", m.basis[m.vacuum])
    assert any(wit.where == ("commutation",) + names for wit in rep.witnesses)


def _klein_cocycles(grading, rng):
    # bicharacters of Z2 x Z2 times coboundaries f(g)f(h)/f(g+h) of seeded
    # rational f with f(0) = 1: every one a normalized 2-cocycle
    for _ in range(6):
        signs = [[rng.choice((1, -1)) for _ in range(2)] for _ in range(2)]
        f = {g: rng.choice(_RATIONALS) for g in grading.elements()}
        f[grading.zero()] = F(1)
        table = {}
        for g in grading.elements():
            for h in grading.elements():
                bichar = math.prod(signs[i][j] ** (g[i] * h[j]) for i in range(2) for j in range(2))
                table[(g, h)] = bichar * f[g] * f[h] / f[grading.add(g, h)]
        yield CocycleData(grading=grading, table=table)


def _commutator_cases():
    for name in ("z22_twist", "z22_base"):
        bundle = parse_algebra_file(FIXTURES / f"{name}.json")
        yield name, bundle.alg, bundle.grading, bundle.cocycle
    base, grading = klein_group_algebra()
    for k, cocycle in enumerate(_klein_cocycles(grading, random.Random(21))):
        cocycle.validate()
        yield f"twist{k}", cocycle_twist(base, grading, cocycle), grading, cocycle
        yield f"base{k}", base, grading, cocycle


def test_jacobi_like_commutator_rmap_is_the_union_of_q_jacobi():
    # R(v ⊗ u) = c(deg u, deg v) v ⊗ u makes the Jacobi-like identity on
    # (u, v, w) the q-Jacobi identity with q = c(deg u, deg v): a twist by the
    # cocycle passes, the untwisted base fails where c is not 1
    counts = {}
    for name, alg, grading, cocycle in _commutator_cases():
        rep = check_jacobi_like(alg, rmap_from_commutator(alg, grading, cocycle))

        def q_of(u, v):
            return cocycle.commutator(grading.degrees[u], grading.degrees[v])

        assert rep.witnesses == _q_jacobi_union(alg, q_of), name
        counts[name] = len(rep.witnesses)
    assert (counts["z22_twist"], counts["z22_base"]) == (0, 24)
    assert all(n == 0 for name, n in counts.items() if name.startswith("twist"))
    assert any(n > 0 for name, n in counts.items() if name.startswith("base"))


_SCALARS = (F(0), ONE, F(-1), F(1, 3), F(2))


def _mixed_rmap(dim, rng):
    # scalar images c (v ⊗ u), multi-term images and the identity, side by side
    entries = {}
    for pair in itertools.product(range(dim), repeat=2):
        roll = rng.random()
        if roll < 0.4:
            entries[pair] = [(rng.choice(_SCALARS), pair)]
        elif roll < 0.6:
            terms = rng.randint(1, 2)
            entries[pair] = [
                (rng.choice(_SCALARS[1:]), (rng.randrange(dim), rng.randrange(dim)))
                for _ in range(terms)
            ]
    entries[(dim - 1, 0)] = [(ONE, (dim - 1, 0)), (F(-1), (0, dim - 1))]
    return RMap(dim, entries)


def _counting(monkeypatch, owner, name, calls):
    fn = getattr(owner, name)

    def wrapped(*args):
        calls.append(name)
        return fn(*args)

    monkeypatch.setattr(owner, name, wrapped)


@pytest.mark.parametrize("seed", range(3))
def test_jacobi_like_reads_scalar_images_off_the_analysis(seed, monkeypatch):
    # a scalar image is read off the commutation profiles, any other one off
    # the scatter of each w, both within one call; the witnesses are those
    # of the unshared loop, which builds every product per triple
    rng = random.Random(3500 + seed)
    calls = []
    _counting(monkeypatch, pairs_module, "scatter_products", calls)
    _counting(monkeypatch, pairs_module.PairAnalysis, "jacobi_witnesses", calls)
    seen = set()
    cases = [_fixture_case(name)[0] for name in ("a3", "ut2", "z22_twist", "cross_a2z2")]
    for alg in cases + [_assoc_only_case()[0], _twist_with_one_product_doubled()[0]]:
        pair_analysis(alg)
        rmap = _mixed_rmap(alg.dim, rng)
        calls.clear()
        rep = check_jacobi_like(alg, rmap)
        assert rep.witnesses == _unshared_jacobi_like(alg, rmap).witnesses, alg.basis
        assert "scatter_products" in calls and "jacobi_witnesses" in calls
        seen.update(wit.where[0] for wit in rep.witnesses)
    assert seen == {"commutation", "associativity"}


def _twist_with_one_product_doubled():
    # z22_twist with g01_(-1) g10 = -2 g11: weak associativity and the
    # twisted commutation both fail
    bundle = parse_algebra_file(FIXTURES / "z22_twist.json")
    alg = bundle.alg
    table = table_of(alg)
    key = (alg.basis_index("g01"), alg.basis_index("g10"))
    table[key] = {n: tuple(2 * x for x in vec) for n, vec in table[key].items()}
    twisted = AlgebraStructure(alg.basis, alg.vacuum, index_from_dense(table, alg.dim))
    return twisted, bundle


def test_jacobi_like_of_the_cocycle_commutator_is_q_jacobi_at_the_cocycle_q(monkeypatch):
    # R(v ⊗ u) = c(deg u, deg v) (v ⊗ u) is a scalar on every pair, so the
    # Jacobi-like identity is the q-Jacobi identity at q = c, the braided
    # locality of Bakalov-Kac, with no scatter: the failures on z22_twist,
    # and on it with one product doubled, are those of check_jacobi at the
    # from-cocycle q, witness for witness, and those of the unshared loop
    broken, bundle = _twist_with_one_product_doubled()
    grading, cocycle = bundle.grading, bundle.cocycle

    def q_of(u, v):
        return cocycle.commutator(grading.degrees[u], grading.degrees[v])

    calls = []
    _counting(monkeypatch, pairs_module, "scatter_products", calls)
    counts = {}
    for name, alg in (("z22_twist", bundle.alg), ("doubled", broken)):
        rmap = rmap_from_commutator(alg, grading, cocycle)
        assert rmap.entries == bundle.resolve_rmap().entries
        pair_analysis(alg)
        calls.clear()
        rep = check_jacobi_like(alg, rmap)
        assert calls == [], name
        assert rep.witnesses == _q_jacobi_union(alg, q_of), name
        assert rep.witnesses == _unshared_jacobi_like(alg, rmap).witnesses, name
        counts[name] = sorted({wit.where[0] for wit in rep.witnesses})
    assert counts == {"z22_twist": [], "doubled": ["associativity", "commutation"]}


def test_rmap_tensor_swap_keys_basis_pairs():
    # R acts on V ⊗ V and keeps w: one image for each of the 75^2 pairs of
    # V ⊗ A with dim V = 3, dim A = 25, less the 3 * 3 * 25 trivial swaps
    rmap = rmap_tensor_swap(3, 25)
    assert len(rmap.entries) == 5400
    assert rmap.image((0 * 25 + 1, 2 * 25 + 7)) == [(ONE, (0 * 25 + 7, 2 * 25 + 1))]
    assert rmap.image((4, 29)) == [(ONE, (4, 29))]


def _unshared_jacobi_like(alg, rmap):
    # check_jacobi_like's former loop: each triple builds its straight product
    # and every reversed product of its R-image afresh
    pairs = pair_analysis(alg)
    report = CheckReport("jacobi-like")
    for u, v, w in itertools.product(range(alg.dim), repeat=3):
        names = (alg.basis[u], alg.basis[v], alg.basis[w])
        rterms = {}
        for coeff, (a, b) in rmap.image((v, u)):
            for e, outer in reversed_sparse(alg, _e(b), _e(a), _e(w)).items():
                add_term(rterms, e, coeff, outer.items())
        diff = next(sparse_differences(product_sparse(alg, _e(u), _e(v), _e(w)), rterms), None)
        if diff is not None:
            report.fail(Witness(("commutation",) + names, *diff, alg.basis))
        elif (assoc := pairs.assoc_failure(u, v, w)) is not None:
            report.fail(Witness(("associativity",) + names, *assoc, alg.basis))
    return report


def _e(i):
    return ((i, ONE),)


def _fixture_case(name):
    bundle = parse_algebra_file(FIXTURES / f"{name}.json")
    return bundle.alg, bundle.resolve_rmap()


def _hand_made_rmap_case():
    # on a3 (one, t, t2): multi-term images, images whose terms cancel, a
    # term on (t2, t2), whose product vanishes on every w, and R(t2 ⊗ t2) =
    # t ⊗ t, which R reaches only backwards: the straight product of
    # (t2, t2) vanishes and its R-side does not
    half = F(1, 2)
    return truncated_poly_3(), RMap(
        3,
        {
            (0, 1): [(ONE, (0, 1)), (ONE, (1, 0))],
            (1, 0): [(ONE, (1, 0)), (ONE, (2, 2))],
            (0, 2): [(ONE, (0, 2)), (half, (1, 1)), (-half, (1, 1))],
            (1, 2): [(2, (2, 1)), (-1, (2, 1))],
            (2, 2): [(ONE, (1, 1))],
        },
    )


def _assoc_only_case():
    # a3 with t2_(-1) t = t: the iterate of (t, t, t) is nonzero while its
    # straight and reversed products vanish, so only the failing-triple
    # accessor brings that pair to the check
    a3 = truncated_poly_3()
    index = {key: dict(modes) for key, modes in a3.mode_index.items()}
    index[(2, 1)] = {**index.get((2, 1), {}), -1: [(1, 1)]}
    return AlgebraStructure(a3.basis, a3.vacuum, index), rmap_identity(3)


JACOBI_LIKE_CASES = {
    "a3": lambda: _fixture_case("a3"),
    "cross_a2z2": lambda: _fixture_case("cross_a2z2"),
    "m2a3": lambda: _fixture_case("m2a3"),
    "z22_twist": lambda: _fixture_case("z22_twist"),
    "m2a3-identity": lambda: (matrix_over_a3(), rmap_identity(12)),
    "a3-hand-made-rmap": _hand_made_rmap_case,
    "a3-assoc-only": _assoc_only_case,
}


@pytest.mark.parametrize("case", sorted(JACOBI_LIKE_CASES))
def test_jacobi_like_equals_the_unshared_loop(case):
    alg, rmap = JACOBI_LIKE_CASES[case]()
    expected = _unshared_jacobi_like(alg, rmap)
    rep = check_jacobi_like(alg, rmap)
    assert (rep.verdict, rep.exact, rep.witnesses) == (
        expected.verdict,
        expected.exact,
        expected.witnesses,
    )


@pytest.mark.parametrize(
    "rmap", [rmap_tensor_swap(3, 4), rmap_identity(12)], ids=["swap", "identity"]
)
def test_jacobi_like_builds_each_product_once(rmap, monkeypatch):
    # one scatter per w, read by the straight side and by the reversed side of
    # every R-image: no product is built per triple; an R-map whose every
    # image is a scalar (the identity) reads the analysis and scatters no w
    m = matrix_over_a3()
    expected = _unshared_jacobi_like(m, rmap)
    pair_analysis(m)  # the analysis's own walk is not counted here
    scattered = []
    scatter = pairs_module.scatter_products

    def counting_scatter(index, cols, w, n):
        scattered.append(w)
        return scatter(index, cols, w, n)

    # the scatter is the library's one path to a two-variable product
    # (product_terms reads it too; the per-triple kernel lives only in
    # reference_pairs, and construct names no scatter: test_import_boundaries)
    monkeypatch.setattr(pairs_module, "scatter_products", counting_scatter)
    rep = check_jacobi_like(m, rmap)
    assert sorted(scattered) == (list(range(m.dim)) if rmap.entries else [])
    assert (rep.verdict, rep.exact, rep.witnesses) == (
        expected.verdict,
        expected.exact,
        expected.witnesses,
    )
    assert rep.passed == (rmap.entries != {})


def test_jacobi_like_visits_the_pairs_only_r_or_associativity_reaches():
    alg, rmap = _hand_made_rmap_case()
    t2 = alg.basis_index("t2")
    assert (t2, t2) not in pair_analysis(alg).products(alg.vacuum)
    where = [wit.where for wit in check_jacobi_like(alg, rmap).witnesses]
    assert ("commutation", "t2", "t2", "one") in where
    assert ("commutation", "t", "one", "one") in where
    alg, rmap = _assoc_only_case()
    t = alg.basis_index("t")
    pairs = pair_analysis(alg)
    assert (t, t) not in pairs.products(t) and (t, t) in pairs.assoc_failing_pairs(t)
    where = [wit.where for wit in check_jacobi_like(alg, rmap).witnesses]
    assert ("associativity", "t", "t", "t") in where


def test_jacobi_like_reports_witnesses_in_triple_order():
    # the triples are decided one w at a time, but reported in (u, v, w) order
    m = matrix_over_a3()
    rep = check_jacobi_like(m, rmap_identity(12))
    failing = [tuple(m.basis_index(nm) for nm in wit.where[1:]) for wit in rep.witnesses]
    assert len({t[2] for t in failing}) > 1
    assert failing == sorted(failing)


# -- the tensor kernel against the dense formulas -------------------------------------
#
# The dense loops below are the builders' former formulas, one coordinate pair
# at a time with every coordinate tested against zero; they share no code with
# table_tensor and are the oracle for every tensor-type table.


def _dense_tensor(table_a, table_b, acting_b, dim_a, dim_b):
    """Y(u*u', x)(w*w') = Y(u, x)w * Y(u', x)w' on two raw mode tables."""
    out = {}
    for (ia, ja), modes_a in table_a.items():
        for (ib, jb), modes_b in table_b.items():
            modes = {}
            for na, va in modes_a.items():
                for nb, vb in modes_b.items():
                    w = [F(0)] * (dim_a * dim_b)
                    for ra, ca in enumerate(va):
                        if ca == 0:
                            continue
                        for rb, cb in enumerate(vb):
                            if cb != 0:
                                w[ra * dim_b + rb] += ca * cb
                    n = na + nb + 1
                    modes[n] = vec_add(modes[n], tuple(w)) if n in modes else tuple(w)
            modes = {n: w for n, w in modes.items() if any(x != 0 for x in w)}
            if modes:
                out[(ia * acting_b + ib, ja * dim_b + jb)] = modes
    return out


def _dense_matrix(alg, n):
    """The entrywise formal matrix product: (Y(v,x)w) * (MN), coordinate by coordinate."""
    mb = _MatrixBasis(n)
    prods = {(mi, mj): mb.to_coords(mb.mult(mb.entries(mi), mb.entries(mj)))
             for mi in range(mb.dim) for mj in range(mb.dim)}
    out = {}
    for (a, b), modes in table_of(alg).items():
        for (mi, mj), prod in prods.items():
            out_modes = {}
            for nn, w in modes.items():
                v = [F(0)] * (alg.dim * mb.dim)
                for r, cv in enumerate(w):
                    if cv == 0:
                        continue
                    for mk, cm in enumerate(prod):
                        if cm != 0:
                            v[r * mb.dim + mk] += cv * cm
                if any(x != 0 for x in v):
                    out_modes[nn] = tuple(v)
            if out_modes:
                out[(a * mb.dim + mi, b * mb.dim + mj)] = out_modes
    return out


def _dense_columns(mod, n):
    """v*M acting on w in column c: Y(v, x)w placed in the rows r with M[r][c] != 0."""
    mb = _MatrixBasis(n)
    out = {}
    for (i, j), modes in table_of(mod).items():
        for mi in range(mb.dim):
            for c in range(n):
                out_modes = {}
                for nn, w in modes.items():
                    v = [F(0)] * (mod.dim * n)
                    for (r, cc), val in mb.entries(mi).items():
                        for wj, cw in enumerate(w):
                            if cc == c and cw != 0:
                                v[wj * n + r] += val * cw
                    if any(x != 0 for x in v):
                        out_modes[nn] = tuple(v)
                if out_modes:
                    out[(i * mb.dim + mi, j * n + c)] = out_modes
    return out


def _dense_cross(alg, act):
    """Y(ug, x)(vh) = Y(u, x)g(v) gh, coordinate by coordinate."""
    ng = len(act.elements)
    out = {}
    for i, g, j, h in itertools.product(range(alg.dim), range(ng), range(alg.dim), range(ng)):
        gv = mat_vec(dense_matrix(act.action[g]), unit_vec(alg.dim, j))
        modes = {}
        for n, w in alg.mode_map(unit_vec(alg.dim, i), gv).items():
            v = [F(0)] * (alg.dim * ng)
            for r, c in enumerate(w):
                if c != 0:
                    v[r * ng + act.table[(g, h)]] += c
            modes[n] = tuple(v)
        if modes:
            out[(i * ng + g, j * ng + h)] = modes
    return out


_SEEDED_RATIONALS = (F(1, 2), F(-3, 4), F(5, 3), F(-7, 6), F(2), F(-1))


def _random_table(rng, n_acting, dim, sign):
    """Non-integer images whose zeros are fresh Fraction(0).

    The last entry holds modes p and p + 1 with images v and sign * v: against
    a table of the opposite sign, the pairs (p, q + 1) and (p + 1, q) meet at
    p + q + 2 and cancel exactly.
    """
    def image(k0):
        return tuple(rng.choice(_SEEDED_RATIONALS) if k == k0 or rng.random() < 0.4 else F(0)
                     for k in range(dim))

    table = {
        (i, j): {n: image(-1) for n in rng.sample(range(-3, 2), rng.randint(1, 2))}
        for i in range(n_acting)
        for j in range(dim)
        if rng.random() < 0.5
    }
    v, p = image(rng.randrange(dim)), rng.randint(-3, 1)
    table[(n_acting - 1, dim - 1)] = {p: v, p + 1: vec_scale(sign, v)}
    return table, p


def _assert_tensor_module(algs, mods):
    alg_t, mod_t = tensor_module(algs, mods)
    ref_t = tensor_product(algs)
    assert table_of(alg_t) == table_of(ref_t)
    ref, names = dense_table(mods[0].mode_index, mods[0].dim), mods[0].basis
    for alg, mod in zip(algs[1:], mods[1:]):
        ref = _dense_tensor(ref, table_of(mod), alg.dim, len(names), mod.dim)
        names = tuple(f"{x}*{y}" for x in names for y in mod.basis)
    assert table_of(mod_t) == ref and mod_t.basis == names


def _assert_matrix_and_columns(alg, mod, n):
    mat = matrix_algebra(alg, n)
    mb = _MatrixBasis(n)
    assert table_of(mat) == _dense_matrix(alg, n)
    assert mat.basis == tuple(f"{v}*{m}" for v in alg.basis for m in mb.names)
    assert mat.vacuum == alg.vacuum * mb.dim
    mat_w, wn = wn_module(alg, mod, n)
    mat_table = table_of(mat)
    assert table_of(mat_w) == mat_table
    assert table_of(wn) == _dense_columns(mod, n)
    assert wn.basis == tuple(f"{w}#c{c+1}" for w in mod.basis for c in range(n))


def test_tensor_kernel_matches_dense_formulas():
    rng = random.Random(9)
    for _ in range(16):
        da, db, dc = (rng.randint(1, 4) for _ in range(3))
        (ta, p), (tb, q) = _random_table(rng, da, da, 1), _random_table(rng, db, db, -1)
        a = AlgebraStructure(
            tuple(f"a{k}" for k in range(da)), rng.randrange(da), index_from_dense(ta, da)
        )
        b = AlgebraStructure(
            tuple(f"b{k}" for k in range(db)), rng.randrange(db), index_from_dense(tb, db)
        )
        got = dense_table(table_tensor(a.mode_index, b.mode_index, b.dim, a.dim, b.dim), da * db)
        assert got == _dense_tensor(table_of(a), table_of(b), db, da, db)
        assert p + q + 2 not in got[(da * db - 1, da * db - 1)]
        ab = tensor_product([a, b])
        assert table_of(ab) == got
        assert ab.basis == tuple(f"{x}*{y}" for x in a.basis for y in b.basis)
        assert ab.vacuum == a.vacuum * db + b.vacuum
        (tm, p), (tw, q) = _random_table(rng, da, dc, 1), _random_table(rng, db, dc, -1)
        ma = ModuleStructure(tuple(f"w{k}" for k in range(dc)), index_from_dense(tm, dc))
        mw = ModuleStructure(tuple(f"x{k}" for k in range(dc)), index_from_dense(tw, dc))
        got = dense_table(table_tensor(ma.mode_index, mw.mode_index, db, dc, dc), dc * dc)
        assert got == _dense_tensor(table_of(ma), table_of(mw), db, dc, dc)
        assert p + q + 2 not in got[(da * db - 1, dc * dc - 1)]
        _assert_tensor_module([a, b], [ma, mw])
        _assert_tensor_module([a, b, a], [ma, mw, ma])
        _assert_matrix_and_columns(a, ma, rng.randint(1, 3))


def test_tensor_builders_match_dense_formulas_on_fixtures():
    algs = {name: build() for name, build in sorted(all_fixture_builders().items())}
    for alg in algs.values():
        for n in (1, 2):
            _assert_matrix_and_columns(alg, adjoint_module(alg), n)
        for other in algs.values():
            if alg.dim * other.dim <= 40:
                both = tensor_product([alg, other])
                assert table_of(both) == _dense_tensor(
                    table_of(alg),
                    table_of(other),
                    other.dim,
                    alg.dim,
                    other.dim,
                )
                _assert_tensor_module([alg, other], [adjoint_module(alg), adjoint_module(other)])
    a3, unit = algs["a3"], full_matrix_algebra(2)
    _assert_matrix_and_columns(a3, adjoint_module(a3), 3)
    _assert_tensor_module([a3, unit, a3], [adjoint_module(x) for x in (a3, unit, a3)])
    cross, base, act = cross_a2_z2()
    assert table_of(cross) == _dense_cross(base, act)
    ident = [[(0, 1)], [(1, 1)]]
    trivial = GroupActionData(elements=("e", "g"), table=act.table, action={0: ident, 1: ident})
    cross_trivial = cross_product(base, trivial)
    assert table_of(cross_trivial) == _dense_cross(base, trivial)


# -- every builder hands over a normalised index ----------------------------------


def _assert_normalised(act):
    """act.mode_index is in normal form: the index of its own dense table, ints where integral."""
    index = act.mode_index
    reference = index_from_dense(table_of(act), act.dim)
    assert [(key, list(modes.items())) for key, modes in index.items()] == [
        (key, list(modes.items())) for key, modes in reference.items()
    ]
    for modes in index.values():
        for img in modes.values():
            assert all(type(c) is (int if c.denominator == 1 else Fraction) for _k, c in img)


def test_every_builder_and_the_parser_hand_over_a_normalised_index(tmp_path):
    # k ascending, no zero coefficient, no empty mode or entry, int when integral
    parsed = {p.stem: parse_algebra_file(p).alg for p in sorted(FIXTURES.glob("*.json"))}
    assert len(parsed) == 7
    built = {name: build() for name, build in sorted(all_fixture_builders().items())}
    a3, ut2 = built["a3"], built["ut2"]
    twisted, _grading, _cocycle = klein_twist()
    cross, _base, _act = cross_a2_z2()
    result = closure([operator_from_structure(a3, a3.basis_index("t"))])
    structures = [
        *parsed.values(),
        *built.values(),
        matrix_algebra(a3, 3),
        tensor_product([a3, ut2]),
        cross,
        twisted,
        result.structure,
        closure_module(result),
        adjoint_module(a3),
        *wn_module(a3, adjoint_module(a3), 2),
        *tensor_module([a3, ut2], [adjoint_module(a3), adjoint_module(ut2)]),
    ]
    # the parser's module section, written and read back
    path = tmp_path / "with_module.json"
    m2a3 = built["m2a3"]
    sections = {"module": module_section(adjoint_module(m2a3), m2a3)}
    write_algebra_file(path, algebra_to_data(m2a3, sections))
    structures.append(parse_algebra_file(path).module)
    for act in structures:
        _assert_normalised(act)
