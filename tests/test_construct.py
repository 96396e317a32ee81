"""Builders: associative sources, tensors, matrices, twists, cross products."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from reference_pairs import product_sparse, reversed_sparse

from vertexcalc import pairs as pairs_module
from vertexcalc.algebra import (
    AlgebraStructure,
    add_term,
    apply_columns,
    d_columns,
    find_locality_k,
    find_weak_assoc_l,
    sparse_differences,
    validate_structure,
    weak_assoc_triple,
)
from vertexcalc.construct import (
    AssocAlgebraData,
    CocycleData,
    GradedTag,
    GroupActionData,
    RMap,
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
)
from vertexcalc.fileio import parse_algebra_file
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
from vertexcalc.linalg import ONE, densify, mat_vec, unit_vec, vec_add, vec_scale
from vertexcalc.modules import ModuleStructure, adjoint_module, tensor_module, wn_module
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
    assert m.product(u, -1, v) == unit_vec(12, out)
    assert m.y_data.get((u, v), {}).keys() == {-1}


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
            assert find_locality_k(out, i, j, F(1)) is None


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
                assert weak_assoc_triple(cross, u, v, w) is None


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


def test_jacobi_like_empty_triples_check_nothing():
    # an empty list is a request for no triple, not for every triple
    m = matrix_over_a3()
    assert len(check_jacobi_like(m, rmap_identity(12)).witnesses) == 180
    rep = check_jacobi_like(m, rmap_identity(12), triples=[])
    assert rep.passed and rep.witnesses == []


@pytest.mark.parametrize("triple", [(0, 0, 12), (-1, 0, 0), (0, 12, 0), (0, 0)])
def test_jacobi_like_refuses_triples_outside_the_basis(triple):
    m = matrix_over_a3()
    with pytest.raises(MalformedStructure, match="basis index triples"):
        check_jacobi_like(m, rmap_identity(12), triples=[(0, 0, 0), triple])


def _unshared_jacobi_like(alg, rmap, triples=None):
    # check_jacobi_like's former loop: each triple builds its straight product
    # and every reversed product of its R-image afresh
    pairs = pair_analysis(alg)
    report = CheckReport("jacobi-like")
    if triples is None:
        triples = itertools.product(range(alg.dim), repeat=3)
    for u, v, w in triples:
        names = (alg.basis[u], alg.basis[v], alg.basis[w])
        rterms = {}
        for coeff, (a, b, c) in rmap.image((v, u, w)):
            for e, outer in reversed_sparse(alg, _e(b), _e(a), _e(c)).items():
                add_term(rterms, e, coeff, outer.items())
        diff = next(sparse_differences(product_sparse(alg, _e(u), _e(v), _e(w)), rterms), None)
        if diff is not None:
            e, lhs, rhs = diff
            report.fail(
                Witness(("commutation",) + names, e, densify(lhs, alg.dim), densify(rhs, alg.dim))
            )
        elif (assoc := pairs.assoc_failure(u, v, w)) is not None:
            report.fail(Witness(("associativity",) + names, *assoc))
    return report


def _e(i):
    return ((i, ONE),)


def _shifted_third_factor(dim):
    # keeps each triple and adds a third of the one whose third factor is the
    # next basis vector: no built R-map changes the third factor
    return RMap(
        dim=dim,
        entries={
            t: [(ONE, t), (F(1, 3), (t[0], t[1], (t[2] + 1) % dim))]
            for t in itertools.product(range(dim), repeat=3)
        },
    )


def _fixture_case(name):
    bundle = parse_algebra_file(FIXTURES / f"{name}.json")
    return bundle.alg, bundle.resolve_rmap(), None


def _m2a3_case(rmap, triples=None):
    return matrix_over_a3(), rmap, triples


JACOBI_LIKE_CASES = {
    "a3": lambda: _fixture_case("a3"),
    "cross_a2z2": lambda: _fixture_case("cross_a2z2"),
    "m2a3": lambda: _fixture_case("m2a3"),
    "z22_twist": lambda: _fixture_case("z22_twist"),
    "m2a3-identity": lambda: _m2a3_case(rmap_identity(12)),
    "m2a3-shifted-third-factor": lambda: _m2a3_case(_shifted_third_factor(12)),
    "m2a3-identity-reversed-subset": lambda: _m2a3_case(
        rmap_identity(12), list(itertools.product(range(12), repeat=3))[::-5]
    ),
}


@pytest.mark.parametrize("case", sorted(JACOBI_LIKE_CASES))
def test_jacobi_like_equals_the_unshared_loop(case):
    alg, rmap, triples = JACOBI_LIKE_CASES[case]()
    expected = _unshared_jacobi_like(alg, rmap, triples)
    rep = check_jacobi_like(alg, rmap, triples)
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
    # every R-image that names it: no product is built per triple
    m = matrix_over_a3()
    expected = _unshared_jacobi_like(m, rmap)
    pair_analysis(m)._records  # the analysis's own walk is not counted here
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
    assert sorted(scattered) == list(range(m.dim))
    assert (rep.verdict, rep.exact, rep.witnesses) == (
        expected.verdict,
        expected.exact,
        expected.witnesses,
    )
    assert rep.passed == (rmap.entries != {})


def test_jacobi_like_reports_witnesses_in_the_order_of_the_triples():
    # the triples are decided grouped by w, but reported in the order given
    m = matrix_over_a3()
    full = check_jacobi_like(m, rmap_identity(12))
    failing = [tuple(m.basis_index(nm) for nm in wit.where[1:]) for wit in full.witnesses]
    assert len({t[2] for t in failing}) > 1
    rev = check_jacobi_like(m, rmap_identity(12), triples=failing[::-1])
    assert rev.witnesses == full.witnesses[::-1]


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
    for (a, b), modes in alg.y_data.items():
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
    for (i, j), modes in mod.action.items():
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
        gv = mat_vec(act.action[g], unit_vec(alg.dim, j))
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


_RATIONALS = (F(1, 2), F(-3, 4), F(5, 3), F(-7, 6), F(2), F(-1))


def _random_table(rng, n_acting, dim, sign):
    """Non-integer images whose zeros are fresh Fraction(0).

    The last entry holds modes p and p + 1 with images v and sign * v: against
    a table of the opposite sign, the pairs (p, q + 1) and (p + 1, q) meet at
    p + q + 2 and cancel exactly.
    """
    def image(k0):
        return tuple(rng.choice(_RATIONALS) if k == k0 or rng.random() < 0.4 else F(0)
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
    assert alg_t.y_data == tensor_product(algs).y_data
    ref, names = mods[0].action, mods[0].basis
    for alg, mod in zip(algs[1:], mods[1:]):
        ref = _dense_tensor(ref, mod.action, alg.dim, len(names), mod.dim)
        names = tuple(f"{x}*{y}" for x in names for y in mod.basis)
    assert mod_t.action == ref and mod_t.basis == names


def _assert_matrix_and_columns(alg, mod, n):
    mat = matrix_algebra(alg, n)
    mb = _MatrixBasis(n)
    assert mat.y_data == _dense_matrix(alg, n)
    assert mat.basis == tuple(f"{v}*{m}" for v in alg.basis for m in mb.names)
    assert (mat.vacuum, mat.meta) == (alg.vacuum * mb.dim, {
        "source": "matrix-over", "matrix_size": n, "factor_dims": (alg.dim, mb.dim)})
    mat_w, wn = wn_module(alg, mod, n)
    assert mat_w.y_data == mat.y_data and wn.action == _dense_columns(mod, n)
    assert wn.basis == tuple(f"{w}#c{c+1}" for w in mod.basis for c in range(n))
    assert wn.meta == {"source": "column-module", "n": n}


def test_tensor_kernel_matches_dense_formulas():
    rng = random.Random(9)
    for _ in range(16):
        da, db, dc = (rng.randint(1, 4) for _ in range(3))
        (ta, p), (tb, q) = _random_table(rng, da, da, 1), _random_table(rng, db, db, -1)
        a = AlgebraStructure(tuple(f"a{k}" for k in range(da)), rng.randrange(da), ta)
        b = AlgebraStructure(tuple(f"b{k}" for k in range(db)), rng.randrange(db), tb)
        got = table_tensor(a.mode_index, b.mode_index, b.dim, a.dim, b.dim)
        assert got == _dense_tensor(a.y_data, b.y_data, db, da, db)
        assert p + q + 2 not in got[(da * db - 1, da * db - 1)]
        ab = tensor_product([a, b])
        assert ab.y_data == got and ab.basis == tuple(f"{x}*{y}" for x in a.basis for y in b.basis)
        assert (ab.vacuum, ab.meta) == (a.vacuum * db + b.vacuum, {"source": "tensor", "factor_dims": (da, db)})
        (tm, p), (tw, q) = _random_table(rng, da, dc, 1), _random_table(rng, db, dc, -1)
        ma = ModuleStructure(tuple(f"w{k}" for k in range(dc)), tm)
        mw = ModuleStructure(tuple(f"x{k}" for k in range(dc)), tw)
        got = table_tensor(ma.mode_index, mw.mode_index, db, dc, dc)
        assert got == _dense_tensor(ma.action, mw.action, db, dc, dc)
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
                assert tensor_product([alg, other]).y_data == _dense_tensor(
                    alg.y_data, other.y_data, other.dim, alg.dim, other.dim)
                _assert_tensor_module([alg, other], [adjoint_module(alg), adjoint_module(other)])
    a3, unit = algs["a3"], full_matrix_algebra(2)
    _assert_matrix_and_columns(a3, adjoint_module(a3), 3)
    _assert_tensor_module([a3, unit, a3], [adjoint_module(x) for x in (a3, unit, a3)])
    cross, base, act = cross_a2_z2()
    assert cross.y_data == _dense_cross(base, act)
    ident = ((F(1), F(0)), (F(0), F(1)))
    trivial = GroupActionData(elements=("e", "g"), table=act.table, action={0: ident, 1: ident})
    assert cross_product(base, trivial).y_data == _dense_cross(base, trivial)
