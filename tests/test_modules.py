"""Module axioms, derived modules, locality transfer, and generation."""

from fractions import Fraction

import pytest
from reference_pairs import commutation_sparse
from reference_spans import dense_rank
from reference_tables import apply_mode, index_from_dense, table_of, term_differences

from vertexcalc.algebra import AlgebraStructure
from vertexcalc.errors import CapExceeded, MalformedStructure
from vertexcalc.fixtures import (
    cross_a2_z2,
    klein_twist,
    matrix_over_a3,
    truncated_poly_3,
    upper_triangular_2,
)
from vertexcalc.construct import matrix_algebra
from vertexcalc.linalg import ONE, CoordSpan, unit_vec, zero_vec
from vertexcalc.modules import (
    ModuleStructure,
    adjoint_module,
    check_locality_transfer,
    check_module,
    check_product_compatibility,
    generate_submodule,
    generating_basis_vectors,
    is_faithful,
    tensor_module,
    wn_module,
)
from vertexcalc.pairs import acting_columns, scatter_products
from vertexcalc.report import CheckReport, Witness

F = Fraction


@pytest.fixture(scope="module")
def a3():
    return truncated_poly_3()


@pytest.fixture(scope="module")
def a3_adj(a3):
    return adjoint_module(a3)


def test_adjoint_modules_pass(a3, a3_adj):
    rep = check_module(a3, a3_adj)
    assert rep.passed
    assert rep.found_orders["max_assoc_order"] == 0


def test_adjoint_modules_pass_on_all_fixtures():
    for alg in (
        upper_triangular_2(),
        klein_twist()[0],
        cross_a2_z2()[0],
    ):
        assert check_module(alg, adjoint_module(alg)).passed


def test_a_wrong_vacuum_action_has_one_witness_per_wrong_mode(a3, a3_adj):
    # (1)_(-1) t = t2 and (1)_0 t = t: each wrong mode of Y(1, x)t is one
    # witness at its exponent, both sides sparse over the module basis
    t, t2 = a3.basis_index("t"), a3.basis_index("t2")
    action = table_of(a3_adj)
    action[(a3.vacuum, t)] = {-1: unit_vec(3, t2), 0: unit_vec(3, t)}
    mod = ModuleStructure(basis=a3_adj.basis, mode_index=index_from_dense(action, 3))
    rep = check_module(a3, mod)
    assert [w.describe() for w in rep.witnesses if w.where[0] == "vacuum-action"] == [
        "at (vacuum-action,t) exponent (-1,): 1 t2 != 1 t",
        "at (vacuum-action,t) exponent (0,): 1 t != 0",
    ]


def test_corrupted_action_fails(a3, a3_adj):
    action = table_of(a3_adj)
    del action[(a3.basis_index("t"), a3.vacuum)]
    mod = ModuleStructure(basis=a3_adj.basis, mode_index=index_from_dense(action, 3))
    assert not check_module(a3, mod).passed


def test_adjoint_is_faithful(a3, a3_adj):
    # creation pins every algebra element to its action on the vacuum
    assert is_faithful(a3, a3_adj)


def _dense_is_faithful(alg, mod) -> bool:
    """Rank of the dense rows (every mode of e_i on every w_j), length dim x dim x modes."""
    table = table_of(mod)
    exps = sorted({n for modes in table.values() for n in modes})
    rows = []
    for i in range(alg.dim):
        row = []
        for j in range(mod.dim):
            modes = table.get((i, j), {})
            for n in exps:
                row.extend(modes.get(n, zero_vec(mod.dim)))
        rows.append(tuple(row))
    return dense_rank(rows) == alg.dim


def test_trivial_module_is_unfaithful(a3):
    # the vacuum acts as the identity on one vector and t, t^2 act as zero
    trivial = ModuleStructure(basis=("w",), mode_index={(a3.vacuum, 0): {-1: [(0, 1)]}})
    assert check_module(a3, trivial).passed
    assert not is_faithful(a3, trivial)
    assert not _dense_is_faithful(a3, trivial)
    # a module that forgets t^2 only: t acts, t^2 does not
    t, t2 = a3.basis_index("t"), a3.basis_index("t2")
    action = {k: v for k, v in table_of(adjoint_module(a3)).items() if k[0] != t2}
    forgetful = ModuleStructure(basis=a3.basis, mode_index=index_from_dense(action, 3))
    assert is_faithful(a3, forgetful) is _dense_is_faithful(a3, forgetful) is False
    action.pop((t, a3.vacuum))
    mod = ModuleStructure(basis=a3.basis, mode_index=index_from_dense(action, 3))
    assert is_faithful(a3, mod) is False


def test_sparse_faithfulness_matches_the_dense_rank():
    a3 = truncated_poly_3()
    cases = []
    for alg in (a3, upper_triangular_2(), klein_twist()[0], cross_a2_z2()[0], matrix_over_a3()):
        cases.append((alg, adjoint_module(alg)))
        cases.append(wn_module(alg, adjoint_module(alg), 2))
    m3 = matrix_algebra(a3, 3)
    cases.append((m3, adjoint_module(m3)))
    cases.append(tensor_module([a3, a3], [adjoint_module(a3), adjoint_module(a3)]))
    for alg, mod in cases:
        assert is_faithful(alg, mod) == _dense_is_faithful(alg, mod) is True


def test_stray_acting_indices_are_malformed(a3, a3_adj):
    # entries acting through indices 7 and -1, outside a3's three basis
    # vectors, must be rejected rather than silently ignored
    action = table_of(a3_adj)
    action[(7, 0)] = {-1: unit_vec(3, 1)}
    action[(-1, 2)] = {0: unit_vec(3, 0)}
    mod = ModuleStructure(basis=a3_adj.basis, mode_index=index_from_dense(action, 3))
    with pytest.raises(MalformedStructure, match=r"\[-1, 7\]"):
        check_module(a3, mod)
    with pytest.raises(MalformedStructure, match=r"\[-1, 7\]"):
        is_faithful(a3, mod)
    for i in range(3):
        with pytest.raises(MalformedStructure, match=r"\[-1, 7\]"):
            check_locality_transfer(a3, mod, i, 0, F(1), faithful=True)
    # the acting indices are found once, when the module is built
    assert mod.acting == (-1, 0, 1, 2, 7)


def test_locality_transfer_a3(a3, a3_adj):
    faithful = is_faithful(a3, a3_adj)
    for i in range(3):
        for j in range(3):
            rep = check_locality_transfer(a3, a3_adj, i, j, F(1), faithful=faithful)
            assert rep.passed
            assert rep.found_orders["faithful"] == 1


def test_locality_transfer_agrees_on_nonlocal_fixture():
    ut2 = upper_triangular_2()
    adj = adjoint_module(ut2)
    faithful = is_faithful(ut2, adj)
    for i in range(3):
        for j in range(3):
            rep = check_locality_transfer(ut2, adj, i, j, F(1), faithful=faithful)
            assert rep.passed
            assert rep.notes[-1] == "agree"


def test_locality_transfer_scalar_pair():
    tw, grading, cocycle = klein_twist()
    adj = adjoint_module(tw)
    i10, i01 = tw.basis_index("g10"), tw.basis_index("g01")
    rep = check_locality_transfer(tw, adj, i10, i01, F(-1), faithful=is_faithful(tw, adj))
    assert rep.passed
    assert rep.found_orders["algebra_k"] == 0
    assert rep.found_orders["module_k"] == 0


def test_stray_acting_index_is_not_packed_into_a_tensor(a3, a3_adj):
    # acting index 3 lies outside a3's basis; packed as the second tensor
    # factor it would silently alias the acting index of t*one
    action = table_of(a3_adj)
    action[(3, 0)] = {-1: unit_vec(3, 1)}
    stray = ModuleStructure(basis=a3_adj.basis, mode_index=index_from_dense(action, 3))
    with pytest.raises(MalformedStructure, match=r"\[3\]"):
        tensor_module([a3, a3], [a3_adj, stray])
    with pytest.raises(MalformedStructure, match=r"\[3\]"):
        tensor_module([a3, a3], [stray, a3_adj])
    with pytest.raises(MalformedStructure, match=r"\[3\]"):
        wn_module(a3, stray, 2)


# -- column modules over matrix structures -------------------------------------


def test_wn_module_passes(a3, a3_adj):
    mat_alg, wn = wn_module(a3, a3_adj, 2)
    assert check_module(mat_alg, wn).passed


def test_wn_module_action_value(a3, a3_adj):
    # Y(t*E12, x)(one in column 2) lands in column 1 as t + x t^2
    mat_alg, wn = wn_module(a3, a3_adj, 2)
    u = mat_alg.basis_index("t*E12")
    w = wn.basis.index("one#c2")
    modes = table_of(wn)[(u, w)]
    assert modes[-1] == unit_vec(6, wn.basis.index("t#c1"))
    assert modes[-2] == unit_vec(6, wn.basis.index("t2#c1"))


def test_wn_module_identity_action(a3, a3_adj):
    mat_alg, wn = wn_module(a3, a3_adj, 2)
    table = table_of(wn)
    for j in range(wn.dim):
        assert table[(mat_alg.vacuum, j)] == {-1: wn.unit(j)}


def test_w1_module_unchanged(a3, a3_adj):
    mat_alg, wn = wn_module(a3, a3_adj, 1)
    assert wn.dim == a3_adj.dim
    got, ref = table_of(wn), table_of(a3_adj)
    assert set(got) == set(ref)
    for key in got:
        assert got[key] == ref[key]


# -- tensor modules --------------------------------------------------------------


def test_tensor_module_passes(a3, a3_adj):
    alg_t, mod_t = tensor_module([a3, a3], [a3_adj, a3_adj])
    assert check_module(alg_t, mod_t).passed


def test_tensor_module_convolution_value(a3, a3_adj):
    alg_t, mod_t = tensor_module([a3, a3], [a3_adj, a3_adj])
    u = alg_t.basis_index("t*one")
    w = mod_t.basis.index("t*t")
    img = apply_mode(mod_t, unit_vec(9, u), -1, unit_vec(9, w))
    assert img == unit_vec(9, mod_t.basis.index("t2*t"))


def test_tensor_module_unit_factor(a3, a3_adj):
    from vertexcalc.construct import full_matrix_algebra

    unit_alg = full_matrix_algebra(1)
    unit_mod = adjoint_module(unit_alg)
    alg_t, mod_t = tensor_module([a3, unit_alg], [a3_adj, unit_mod])
    assert mod_t.dim == 3
    got, ref = table_of(mod_t), table_of(a3_adj)
    assert set(got) == set(ref)
    for key in got:
        assert got[key] == ref[key]


# The check of the embedded actions has no caller in the package; it lives
# here with its two tests.


def check_embedded_actions_commute(
    alg_a: AlgebraStructure,
    alg_b: AlgebraStructure,
    mod: ModuleStructure,
) -> CheckReport:
    """On a tensor module, u (x) 1 and 1 (x) v must commute exactly.

    Both orders of each embedded pair are read off one scatter of each
    basis w (pairs.scatter_products) over the dim_a * dim_b acting vectors.
    """
    report = CheckReport("embedded-actions-commute")
    n = alg_a.dim * alg_b.dim
    cols = acting_columns(mod.mode_index, n)
    prods = [scatter_products(mod.mode_index, cols, w_idx, n) for w_idx in range(mod.dim)]
    for i in range(alg_a.dim):
        a = i * alg_b.dim + alg_b.vacuum
        for j in range(alg_b.dim):
            b = alg_a.vacuum * alg_b.dim + j
            for w_idx, on_w in enumerate(prods):
                reverse = {(e1, e2): c for (e2, e1), c in on_w.get((b, a), {}).items()}
                diffs = term_differences(on_w.get((a, b), {}), reverse, mod.dim)
                # witnesses name the modes (n1, n2), in increasing order
                for e, lhs, rhs in reversed(diffs):
                    report.fail(
                        Witness(
                            (alg_a.basis[i], alg_b.basis[j], mod.basis[w_idx]),
                            (-e[0] - 1, -e[1] - 1),
                            lhs,
                            rhs,
                        )
                    )
    return report


def test_embedded_actions_commute(a3, a3_adj):
    _, mod_t = tensor_module([a3, a3], [a3_adj, a3_adj])
    assert check_embedded_actions_commute(a3, a3, mod_t).passed


def test_embedded_actions_that_do_not_commute_are_refuted(a3, a3_adj):
    # (1 (x) t)_(-1) (one (x) one) picks up half of itself, so 1 (x) t stops
    # commuting with t (x) 1 and t2 (x) 1 on one (x) one; the witnesses are
    # the per-triple oracle's, in (u, v, w) order with the modes (n1, n2)
    # increasing
    _, mod_t = tensor_module([a3, a3], [a3_adj, a3_adj])
    one_t, one_one = mod_t.basis.index("one*t"), mod_t.basis.index("one*one")
    action = table_of(mod_t)
    image = list(action[(one_t, one_one)][-1])
    image[one_t] += F(1, 2)
    action[(one_t, one_one)][-1] = tuple(image)
    mod = ModuleStructure(basis=mod_t.basis, mode_index=index_from_dense(action, mod_t.dim))
    rep = check_embedded_actions_commute(a3, a3, mod)
    expected = []
    for i in range(a3.dim):
        for j in range(a3.dim):
            u, v = ((i * a3.dim + a3.vacuum, ONE),), ((a3.vacuum * a3.dim + j, ONE),)
            for w in range(mod.dim):
                diffs = commutation_sparse(mod, u, v, ((w, ONE),), 1)
                expected += [
                    Witness((a3.basis[i], a3.basis[j], mod.basis[w]), (-e1 - 1, -e2 - 1), lhs, rhs)
                    for (e1, e2), lhs, rhs in reversed(diffs)
                ]
    assert rep.witnesses == expected
    assert [(wit.where, wit.exponent) for wit in rep.witnesses] == [
        (("t", "t", "one*one"), (-2, -1)),
        (("t", "t", "one*one"), (-1, -1)),
        (("t2", "t", "one*one"), (-1, -1)),
    ]


# -- compatibility orders ----------------------------------------------------------


def test_product_compatibility_triple(a3, a3_adj):
    t = a3.basis_index("t")
    assert check_product_compatibility(a3, a3_adj, [t, t, t]) is None


def test_product_compatibility_single(a3, a3_adj):
    assert check_product_compatibility(a3, a3_adj, [1]) is None


def test_product_compatibility_where_locality_fails():
    m = matrix_over_a3()
    adj = adjoint_module(m)
    pair = [m.basis_index("one*E11"), m.basis_index("one*E12")]
    assert check_product_compatibility(m, adj, pair) is None


# -- generation ---------------------------------------------------------------------


def test_vacuum_generates_adjoint(a3, a3_adj):
    rows = generate_submodule(a3, a3_adj, a3_adj.unit(a3.vacuum))
    assert len(rows) == 3


def test_ideal_vectors_do_not_generate(a3, a3_adj):
    # t only reaches the ideal spanned by (t, t^2): a proper submodule
    rows = generate_submodule(a3, a3_adj, a3_adj.unit(a3.basis_index("t")))
    assert len(rows) == 2


def test_generation_that_never_stabilizes_is_refused(a3, a3_adj, monkeypatch):
    # a span that accepts every image as independent never closes: the spin
    # must raise once it holds more vectors than the dimension, instead of
    # running on or returning a partial span; the spy is the span spin
    # inserts into, and it is reached once per accepted vector
    inserted = []
    monkeypatch.setattr(CoordSpan, "insert", lambda self, v: inserted.append(v))
    with pytest.raises(CapExceeded):
        generate_submodule(a3, a3_adj, a3_adj.unit(a3.vacuum))
    assert len(inserted) == a3.dim + 1


def test_generation_transfers_to_column_modules(a3, a3_adj):
    # a basis vector generates W exactly when its column copies generate W^n
    mat_alg, wn = wn_module(a3, a3_adj, 2)
    base = generating_basis_vectors(a3, a3_adj)
    lifted = generating_basis_vectors(mat_alg, wn)
    for j, gen in enumerate(base):
        for c in range(2):
            assert lifted[wn.basis.index(f"{a3_adj.basis[j]}#c{c+1}")] == gen


def test_klein_adjoint_every_vector_generates():
    tw, _, _ = klein_twist()
    adj = adjoint_module(tw)
    assert all(generating_basis_vectors(tw, adj))
    mat_alg, wn = wn_module(tw, adj, 2)
    assert all(generating_basis_vectors(mat_alg, wn))
