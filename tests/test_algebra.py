"""Axiom checkers on the shipped fixtures, with hand-frozen expected values.

Expected values are derived independently from the defining multiplication
tables: for a3, Y(a,x)b = (e^{xd}a)b with d = t^2 d/dt, so e.g. e^{xd}t =
t + x t^2 and Y(t,x)one = t + x t^2.
"""

import collections
import functools
import itertools
import json
import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from reference_pairs import (
    assoc_search,
    assoc_sides,
    commutation_sparse,
    reference_records,
    resolved_records,
    reversed_sparse,
)
from reference_spans import (
    SpanBasis,
    dense_localizer,
    dense_nullspace,
    dense_stabilizer,
    dense_subspace_is_subalgebra,
)
from reference_tables import (
    apply_columns,
    apply_mode,
    dense_witness,
    index_from_dense,
    mode_map,
    mode_matrix,
    product,
    reference_d_bracket,
    reference_normal_index,
    reference_skew_symmetry,
    subspace_is_subalgebra,
    table_of,
    term_differences,
)

import vertexcalc.algebra as algebra_module
from vertexcalc.algebra import (
    AlgebraStructure,
    add_term,
    check_creation_exponential,
    check_d_bracket,
    check_jacobi,
    check_skew_symmetry,
    d_columns,
    dense_terms,
    exp_sparse,
    find_locality_k,
    find_weak_assoc_l,
    generate_subalgebra,
    iterate_series,
    iterate_terms,
    localizer,
    normal_index,
    product_series,
    product_terms,
    skew_difference,
    skew_terms,
    sparse_differences,
    sparse_modes,
    stabilizer,
    truncation_order,
    validate_structure,
    weak_assoc_triple,
)
from vertexcalc.construct import (
    AssocAlgebraData,
    check_jacobi_like,
    from_assoc_with_derivation,
    matrix_algebra,
    rmap_identity,
    rmap_tensor_swap,
)
from vertexcalc.errors import MalformedStructure, NonNilpotentD
from vertexcalc.fileio import AlgebraBundle, parse_algebra_file
from vertexcalc.fixtures import (
    klein_twist,
    matrix_over_a3,
    truncated_poly_3,
    upper_triangular_2,
)
from vertexcalc.linalg import (
    ONE,
    ZERO,
    mat_vec,
    densify,
    support,
    unit_vec,
    vec_add,
    vec_scale,
)
from vertexcalc.modules import ModuleStructure, adjoint_module
from vertexcalc.pairs import (
    PairAnalysis,
    assoc_difference,
    assoc_holds,
    iterate_sources,
    pair_analysis,
    scatter_iterates,
)
from vertexcalc.report import Witness
from vertexcalc.series import (
    Window,
    binom,
    delta_three_term,
    from_terms,
    lift_vars,
    mul,
    power_expand,
    sub,
    subst_with_power,
    window_equal,
)
from vertexcalc.suite import run_suite

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
    assert product(a3, t, -1, one) == unit_vec(3, t)
    assert product(a3, t, -2, one) == unit_vec(3, t2)
    assert product(a3, t, -1, t) == unit_vec(3, t2)
    assert product(a3, t, -1, t2) == (F(0),) * 3
    assert product(a3, t2, -1, one) == unit_vec(3, t2)
    assert product(a3, t2, -1, t) == (F(0),) * 3


def test_validate_passes_on_fixtures(a3, ut2):
    assert validate_structure(a3).passed
    assert validate_structure(ut2).passed


def test_validate_rejects_vacuum_violation(a3):
    bad = table_of(a3)
    bad[(a3.vacuum, 1)] = {0: unit_vec(3, 1)}  # (1)_0 t = t breaks Y(1,x) = id
    alg = AlgebraStructure(basis=a3.basis, vacuum=a3.vacuum, mode_index=index_from_dense(bad, 3))
    report = validate_structure(alg)
    assert not report.passed
    assert report.witnesses


def test_validate_reports_each_defect_once(a3):
    # a wrong (1)_(-1) t, a wrong (1)_(-1) 1 and t_0 1 = t are three defects;
    # the vacuum and creation loops both read (1, 1) and (1, t) at mode -1,
    # and each defect must take one of the suite's three witness slots
    one, t, t2 = a3.vacuum, a3.basis_index("t"), a3.basis_index("t2")
    bad = table_of(a3)
    bad[(one, t)] = {-1: unit_vec(3, t2)}
    bad[(one, one)] = {-1: unit_vec(3, t)}
    bad[(t, one)] = {**bad[(t, one)], 0: unit_vec(3, t)}
    alg = AlgebraStructure(basis=a3.basis, vacuum=one, mode_index=index_from_dense(bad, 3))
    report = validate_structure(alg)
    assert [(w.where, w.exponent) for w in report.witnesses] == [
        (("one", "one"), (-1,)),
        (("one", "t"), (-1,)),
        (("t", "one"), (0,)),
    ]
    assert [(w.lhs, w.rhs) for w in report.witnesses] == [
        ({t: 1}, {one: 1}),
        ({t2: 1}, {t: 1}),
        ({t: 1}, {}),
    ]
    record = run_suite(AlgebraBundle(alg=alg), "axioms").records[0]
    assert record.id == "axioms/structure"
    assert record.witnesses == [w.describe() for w in report.witnesses]


def test_validate_rejects_creation_violation(a3):
    bad = table_of(a3)
    bad[(1, a3.vacuum)] = dict(bad.get((1, a3.vacuum), {}))
    bad[(1, a3.vacuum)][0] = unit_vec(3, 1)  # t_0 1 = t violates creation
    alg = AlgebraStructure(basis=a3.basis, vacuum=a3.vacuum, mode_index=index_from_dense(bad, 3))
    assert not validate_structure(alg).passed


def test_malformed_indices_rejected(a3):
    with pytest.raises(MalformedStructure):
        table = {(0, 7): {-1: unit_vec(3, 0)}}
        AlgebraStructure(basis=a3.basis, vacuum=0, mode_index=index_from_dense(table, 3))


def test_a_structure_keeps_its_lazy_values_in_fields(a3):
    # a cached_property writes through the instance __dict__, after which
    # CPython 3.11 reads every attribute of the instance more slowly; the
    # pair analysis and the images of e^{xD} are fields set on first use
    for cls in (AlgebraStructure, ModuleStructure):
        assert [n for n, v in vars(cls).items() if isinstance(v, functools.cached_property)] == []
    alg = replace(a3)
    assert alg._exp_images is None
    images = alg.exp_images
    assert alg.exp_images is images and alg._exp_images is images
    assert images[1] == {0: {1: 1}, 1: {2: 1}}  # e^{xD} t = t + x t^2 for D = t^2 d/dt


def test_empty_basis_rejected():
    with pytest.raises(MalformedStructure):
        AlgebraStructure(basis=(), vacuum=0, mode_index={})
    with pytest.raises(MalformedStructure, match="empty module basis"):
        ModuleStructure(basis=(), mode_index={})


# (index on a three-vector basis, the refusal), each one defect away from a valid index
_BAD_INDICES = {
    "acting-index-3": ({(3, 0): {-1: [(0, 1)]}}, r"indices \(3,0\) out of range"),
    "acting-index-negative": ({(-1, 0): {-1: [(0, 1)]}}, r"indices \(-1,0\) out of range"),
    "target-index-3": ({(0, 3): {-1: [(0, 1)]}}, r"indices \(0,3\) out of range"),
    "target-index-negative": ({(0, -1): {-1: [(0, 1)]}}, r"indices \(0,-1\) out of range"),
    "coordinate-3": ({(0, 1): {-1: [(1, 1), (3, 2)]}}, r"coordinates \[1, 3\] at \(0,1,-1\)"),
    "coordinate-negative": ({(0, 1): {-2: [(-1, 1)]}}, r"coordinates \[-1\] at \(0,1,-2\)"),
    "coordinate-3-zero": ({(0, 1): {-1: [(3, 0)]}}, r"coordinates \[3\] at \(0,1,-1\)"),
    "coordinate-repeated": (
        {(1, 1): {0: [(2, 1), (2, -1)]}},
        r"coordinates \[2, 2\] at \(1,1,0\)",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_INDICES))
def test_sparse_index_out_of_range_is_malformed(case):
    # a coordinate outside range(dim) is the sparse form of a vector of the wrong
    # length; a module does not know its algebra, so only its acting index passes
    index, message = _BAD_INDICES[case]
    with pytest.raises(MalformedStructure, match=message):
        AlgebraStructure(basis=("one", "a", "b"), vacuum=0, mode_index=index)
    if case.startswith("acting"):
        mod = ModuleStructure(basis=("w0", "w1", "w2"), mode_index=index)
        assert mod.acting == (next(iter(index))[0],)
    else:
        with pytest.raises(MalformedStructure, match=message):
            ModuleStructure(basis=("w0", "w1", "w2"), mode_index=index)


# (index on a three-vector basis, the refusal): an index, a mode or a coordinate that is
# no int; a float coordinate or acting index ended the axioms suite in a TypeError,
# and a float mode was cut to an int.  Then entries of the wrong shape, each of which
# once escaped as a bare TypeError, AttributeError or ValueError
_MALFORMED_INDICES = {
    "acting-index": ({(0.5, 0): {-1: [(0, 1)]}}, r"indices \(0\.5,0\) are not integers"),
    "acting-index-bool": ({(True, 0): {-1: [(0, 1)]}}, r"indices \(True,0\) are not integers"),
    "target-index": ({(0, F(1)): {-1: [(1, 1)]}}, r"indices \(0,Fraction\(1, 1\)\) are not"),
    "mode": ({(0, 1): {-1.5: [(1, 1)]}}, r"mode -1\.5 at \(0,1\) is not an integer"),
    "mode-bool": ({(0, 1): {False: [(1, 1)]}}, r"mode False at \(0,1\) is not an integer"),
    "coordinate": ({(1, 0): {-1: [(1.5, 1)]}}, r"coordinates \[1\.5\] at \(1,0,-1\)"),
    "coordinate-bool": ({(0, 1): {-1: [(True, 1)]}}, r"coordinates \[True\] at \(0,1,-1\)"),
    "coordinate-str-beside-int": ({(0, 1): {-1: [(1, 1), ("a", 1)]}}, "'<' not supported"),
    "modes-list": ({(0, 1): [(-1, [(1, 1)])]}, "'list' object has no attribute 'items'"),
    "coefficient-str": ({(0, 1): {-1: [(1, "x")]}}, "Invalid literal for Fraction: 'x'"),
    "image-item-triple": ({(0, 1): {-1: [(1, 1, 0)]}}, r"too many values to unpack"),
    "image-item-int": ({(0, 1): {-1: [1]}}, "'int' object is not subscriptable"),
    "key-triple": ({(0, 1, 2): {-1: [(1, 1)]}}, r"too many values to unpack"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_INDICES))
def test_a_non_integer_index_mode_or_coordinate_is_malformed(case):
    index, message = _MALFORMED_INDICES[case]
    with pytest.raises(MalformedStructure, match=message):
        AlgebraStructure(basis=("one", "a", "b"), vacuum=0, mode_index=index)
    with pytest.raises(MalformedStructure, match=message):
        ModuleStructure(basis=("w0", "w1", "w2"), mode_index=index)


class _SubFraction(Fraction):
    pass


def test_normal_index_reads_every_coefficient_through_integral():
    kept = F(-3, 4)
    index = {
        (0, 0): {-1: [(0, F(1)), (1, F(0))], -2: [(1, "1/2"), (0, 0)]},
        (0, 1): {-1: [(0, kept)], -3: [(1, True), (0, _SubFraction(2))]},
        (1, 1): {-1: [(0, F(0)), (1, 0)]},
    }
    clean = AlgebraStructure(("a", "b"), 0, index).mode_index
    assert clean == {
        (0, 0): {-1: [(0, 1)], -2: [(1, F(1, 2))]},
        (0, 1): {-1: [(0, kept)], -3: [(0, 2), (1, 1)]},
    }
    assert clean[(0, 1)][-1][0][1] is kept  # a clean Fraction is not converted again
    assert list(clean[(0, 0)]) == [-1, -2]  # modes keep their input order, k comes ascending
    types = {type(c) for modes in clean.values() for img in modes.values() for _k, c in img}
    assert types == {int, Fraction}  # int where integral, and no Fraction subclass
    assert (1, 1) not in clean  # a mode that is all zeros is dropped
    # a module shares the normal form; its acting indices are checked against the algebra later
    mod = ModuleStructure(("w",), {(5, 0): {0: [(0, "2/4")], 1: [(0, 0)]}})
    assert mod.mode_index == {(5, 0): {0: [(0, F(1, 2))]}} and mod.acting == (5,)


# coefficients as builders and the parser hand them in: zeros, Fractions with
# denominator 1, rational strings and bools (_raw_index rarely adds a string
# no rational reads)
_RAW_COEFFICIENTS = (0, 1, -2, F(3, 4), F(6, 3), F(0), "1/2", "-3", "4/2", "0", True, False)


def _raw_index(rng, dim):
    """A mode index spec {(i, j): {n: (as_iterator, [(k, c), ...])}}, unsorted, sometimes malformed.

    i, j or k fall out of range, or k repeats, with small probability each.
    """
    def index_in(bound, slack):
        return rng.choice((-1, bound + slack)) if rng.random() < 0.06 else rng.randrange(bound)

    spec = {}
    for _ in range(rng.randint(0, 5)):
        modes = {}
        for _ in range(rng.randint(0, 3)):
            ks = rng.sample(range(dim), rng.randint(0, dim))
            if rng.random() < 0.1:
                ks.append(rng.choice((-1, dim, *ks)))
            rng.shuffle(ks)
            pairs = [(k, rng.choice(_RAW_COEFFICIENTS)) for k in ks]
            if pairs and rng.random() < 0.02:
                pairs[0] = (pairs[0][0], "one half")
            modes[rng.randint(-4, 2)] = (rng.random() < 0.3, pairs)
        spec[(index_in(dim, 1), index_in(dim, 0))] = modes
    return spec


def _normal_outcome(fn, spec, dim, n_acting):
    """fn's normal form with every coefficient's type, in order, or the error it raises."""
    index = {
        key: {n: iter(pairs) if lazy else list(pairs) for n, (lazy, pairs) in modes.items()}
        for key, modes in spec.items()
    }
    try:
        out = fn(index, dim, n_acting)
    except MalformedStructure as exc:
        return type(exc).__name__, str(exc)
    return [
        (key, [(n, [(k, c, type(c)) for k, c in img]) for n, img in modes.items()])
        for key, modes in out.items()
    ]


def _reference_refusing(index, dim, n_acting):
    """reference_normal_index, with a Python error refused as normal_index refuses it."""
    try:
        return reference_normal_index(index, dim, n_acting)
    except ValueError as exc:  # a coefficient no rational reads
        raise MalformedStructure(f"malformed mode table: {exc}") from exc


@pytest.mark.parametrize("seed", range(4))
def test_normal_index_equals_the_four_pass_reference(seed):
    # the one-pass walk against the four passes it replaced: equal output,
    # order and coefficient types, or the same refusal
    rng = random.Random(seed)
    kinds = collections.Counter()
    for _ in range(400):
        dim = rng.randint(1, 4)
        n_acting = rng.choice((None, dim, dim + 1))
        spec = _raw_index(rng, dim)
        got = _normal_outcome(normal_index, spec, dim, n_acting)
        assert got == _normal_outcome(_reference_refusing, spec, dim, n_acting), (spec, dim)
        kinds[got[0] if isinstance(got, tuple) else "normal"] += 1
        if isinstance(got, tuple):
            kinds[got[1].split(" ")[0]] += 1
    assert kinds["normal"] > 100 and kinds["malformed"] > 0  # a coefficient refusal
    assert kinds["mode"] > 0 and kinds["image"] > 0  # an index and a coordinate refusal


# -- the sparse mode table ------------------------------------------------------


def _dense_mode_map(table, u, w):
    """The dense formula: every coordinate pair of u and w tested against zero."""
    out = {}
    for i, cu in enumerate(u):
        if cu == 0:
            continue
        for j, cw in enumerate(w):
            if cw == 0:
                continue
            for n, img in table.get((i, j), {}).items():
                s = vec_scale(cu * cw, img)
                out[n] = vec_add(out[n], s) if n in out else s
    return {n: v for n, v in out.items() if any(x != 0 for x in v)}


_RATIONALS = (F(1, 2), F(-3, 4), F(5, 3), F(-7, 6), F(2), F(-1))


def _random_mode_table(rng, n_acting, dim):
    """A table with non-integer images; acting index 1 mirrors index 0 times -r."""
    table = {}
    for i in range(n_acting):
        for j in range(dim):
            if rng.random() < 0.6:
                table[(i, j)] = {
                    n: tuple(rng.choice(_RATIONALS) if rng.random() < 0.5 else 0 for _ in range(dim))
                    for n in rng.sample(range(-4, 3), rng.randint(1, 3))
                }
    r = rng.choice(_RATIONALS)
    if n_acting > 1:
        for j in range(dim):
            table.pop((1, j), None)
            if (0, j) in table:
                table[(1, j)] = {n: vec_scale(-r, v) for n, v in table[(0, j)].items()}
    return table, r


def _probe_vectors(rng, dim, r):
    """Units, rational vectors whose zeros are fresh Fraction(0), vec_add sums, and
    r e_0 + e_1, on which every image of acting index 1 cancels exactly."""
    units = [unit_vec(dim, k) for k in range(dim)]
    fresh = [tuple(rng.choice(_RATIONALS) if rng.random() < 0.4 else F(0) for _ in range(dim))
             for _ in range(3)]
    fresh.append(tuple(F(0) for _ in range(dim)))
    sums = [vec_add(rng.choice(units), vec_scale(rng.choice(_RATIONALS), rng.choice(units))),
            vec_add(units[0], vec_scale(-1, units[0]))]
    out = units + fresh + sums
    if dim > 1:
        out.append(vec_add(vec_scale(r, units[0]), units[1]))
    return out


def _views(act):
    """(mode_map, mode_matrix): an algebra's own dense views, the test-side ones of a module."""
    if isinstance(act, AlgebraStructure):
        return act.mode_map, act.mode_matrix
    return functools.partial(mode_map, act), functools.partial(mode_matrix, act)


def _assert_sparse_matches_dense(act, table, acting, targets):
    act_mode_map, act_mode_matrix = _views(act)
    for u in acting:
        for w in targets:
            got, ref = act_mode_map(u, w), _dense_mode_map(table, u, w)
            assert got == ref and list(got) == list(ref), (u, w)
            assert all(any(x != 0 for x in v) for v in got.values())
            for n in range(-5, 4):
                assert apply_mode(act, u, n, w) == ref.get(n, tuple(F(0) for _ in w))
        for n in range(-5, 4):
            cols = [_dense_mode_map(table, u, e).get(n, (F(0),) * act.dim)
                    for e in (unit_vec(act.dim, j) for j in range(act.dim))]
            assert act_mode_matrix(u, n) == tuple(zip(*cols))


def test_sparse_mode_table_matches_dense_formula():
    rng = random.Random(8)
    assert F(0) is not ZERO
    assert support((F(0), F(-1, 2), ZERO, F(0), F(3))) == [(1, F(-1, 2)), (4, F(3))]
    for dim in range(1, 7):
        for _ in range(3):
            table, r = _random_mode_table(rng, dim, dim)
            basis = tuple(f"e{k}" for k in range(dim))
            alg = AlgebraStructure(basis=basis, vacuum=0, mode_index=index_from_dense(table, dim))
            probes = _probe_vectors(rng, dim, r)
            _assert_sparse_matches_dense(alg, table_of(alg), probes, probes)
            n_acting = rng.randint(2, 6)
            action, r = _random_mode_table(rng, n_acting, dim)
            basis = tuple(f"w{k}" for k in range(dim))
            mod = ModuleStructure(basis=basis, mode_index=index_from_dense(action, dim))
            acting = _probe_vectors(rng, n_acting, r)
            _assert_sparse_matches_dense(mod, table_of(mod), acting, _probe_vectors(rng, dim, r))
            # the cancelling combination leaves no mode at all, not a zero mode
            for j in range(dim):
                assert mode_map(mod, acting[-1], unit_vec(dim, j)) == {}
            # mode_map hands out fresh dicts, never the stored modes
            for act, table, n in ((alg, table_of(alg), dim), (mod, table_of(mod), n_acting)):
                act_mode_map = _views(act)[0]
                for (i, j), stored in table.items():
                    modes = act_mode_map(unit_vec(n, i), unit_vec(dim, j))
                    assert modes == stored
                    modes[99] = unit_vec(dim, 0)
                    assert 99 not in act_mode_map(unit_vec(n, i), unit_vec(dim, j))


# -- the sparse term kernel against the dense formulas ----------------------------
#
# The reference functions are the dense term-dictionary code the kernel
# replaced: every mode product by _dense_mode_map, every vector a tuple, and
# zero vectors kept wherever they arise.


def _ref_add(terms, e, c):
    terms[e] = vec_add(terms[e], c) if e in terms else c


def _ref_product(table, u, v, w):
    terms = {}
    for n2, inner in _dense_mode_map(table, v, w).items():
        for n1, outer in _dense_mode_map(table, u, inner).items():
            _ref_add(terms, (-n1 - 1, -n2 - 1), outer)
    return terms


def _ref_iterate(alg_table, table, u, v, w):
    terms = {}
    for n0, uv in _dense_mode_map(alg_table, u, v).items():
        for n2, out in _dense_mode_map(table, uv, w).items():
            _ref_add(terms, (-n0 - 1, -n2 - 1), out)
    return terms


def _ref_differences(lhs, rhs, zero):
    out = []
    for e in sorted(set(lhs) | set(rhs)):
        a, b = lhs.get(e, zero), rhs.get(e, zero)
        if a != b:
            out.append((e, a, b))
    return out


def _ref_assoc(alg_table, table, u, v, w, zero):
    prod = _ref_product(table, u, v, w)
    order = max([0] + [-e1 for (e1, _e2), c in prod.items() if any(c)])
    lhs, rhs = {}, {}
    for (e1, e2), c in prod.items():
        for i in range(e1 + order + 1):
            _ref_add(lhs, (e1 + order - i, e2 + i), vec_scale(binom(e1 + order, i), c))
    for (e0, e2), c in _ref_iterate(alg_table, table, u, v, w).items():
        for i in range(order + 1):
            _ref_add(rhs, (e0 + order - i, e2 + i), vec_scale(binom(order, i), c))
    return _ref_differences(lhs, rhs, zero)


def _ref_skew(d, modes, q):
    terms = {}
    for n, w in modes.items():
        m = -n - 1
        sgn = -q if m % 2 else q
        for j, dv in _dense_exp(d, w).items():
            _ref_add(terms, m + j, vec_scale(sgn, dv))
    return terms


def _nonzero_terms(terms):
    return {e: v for e, v in terms.items() if any(v)}


def _random_nilpotent(rng, dim):
    """A strictly lower triangular D, as its dense matrix and its sparse columns."""
    d = tuple(
        tuple(rng.choice(_RATIONALS) if r > c and rng.random() < 0.6 else F(0) for c in range(dim))
        for r in range(dim)
    )
    return d, [support(tuple(row[c] for row in d)) for c in range(dim)]


def _truncated_poly(n):
    """Q[t]/(t^n) with the derivation t^2 d/dt: associative, with x-powers up to n - 2."""
    table = {(i, j): {i + j: 1} for i in range(n) for j in range(n) if i + j < n}
    d = [[(c + 1, c)] if 0 < c < n - 1 else [] for c in range(n)]  # sparse columns: t^c -> c t^(c+1)
    basis = tuple(f"t{k}" for k in range(n))
    return from_assoc_with_derivation(AssocAlgebraData(basis, table, 0, d))


def _kernel_cases(rng):
    """(alg, mod, acting probes, module probes): random tables, with module
    dimensions other than and equal to the algebra's, then Q[t]/(t^5) on
    itself, whose associativity holds through binomial weights above 1."""
    for dim in range(1, 6):
        for dim_m in (dim % 5 + 1, dim):
            table, r = _random_mode_table(rng, dim, dim)
            basis = tuple(f"e{k}" for k in range(dim))
            alg = AlgebraStructure(basis=basis, vacuum=0, mode_index=index_from_dense(table, dim))
            action, r_m = _random_mode_table(rng, dim, dim_m)
            mod = ModuleStructure(
                basis=tuple(f"w{k}" for k in range(dim_m)),
                mode_index=index_from_dense(action, dim_m),
            )
            yield alg, mod, _probe_vectors(rng, dim, r), _probe_vectors(rng, dim_m, r_m)
    poly = _truncated_poly(5)
    probes = _probe_vectors(rng, 5, F(1))
    yield poly, adjoint_module(poly), probes, probes


_QS = (F(0), F(-1), F(1, 3), F(1))


def test_term_kernel_matches_dense_formulas():
    rng = random.Random(10)
    seen = set()
    for alg, mod, acting, module_probes in _kernel_cases(rng):
        dim = alg.dim
        cases = ((alg, table_of(alg), acting), (mod, table_of(mod), module_probes))
        for act, table, targets in cases:
            zero = (ZERO,) * act.dim
            for _ in range(30):
                u, v, w = rng.choice(acting), rng.choice(acting), rng.choice(targets)
                prod, rev = _ref_product(table, u, v, w), _ref_product(table, v, u, w)
                assert product_terms(act, u, v, w) == prod
                su, sv, sw = support(u), support(v), support(w)
                assert dense_terms(reversed_sparse(act, su, sv, sw), act.dim) == {
                    (e1, e2): c for (e2, e1), c in rev.items()
                }
                iterated = _ref_iterate(table_of(alg), table, u, v, w)
                assert iterate_terms(alg, act, u, v, w) == iterated
                for q in _QS:
                    rhs = {(e1, e2): vec_scale(q, c) for (e2, e1), c in rev.items()}
                    diffs = _ref_differences(prod, rhs, zero)
                    assert commutation_sparse(act, su, sv, sw, q) == diffs
                    seen.add(("commute", q, not diffs))
                diffs = _ref_assoc(table_of(alg), table, u, v, w, zero)
                names = ("u", "v", "w")
                got = assoc_search(alg, act, support(u), support(v), support(w), names)
                assert (got is None) == (not diffs)
                assert got == (dense_witness(names, diffs[0], act.basis) if diffs else None)
                seen.add(("assoc", act is alg, not diffs))
        # skew-symmetry terms and the exponential, against a random nilpotent D
        d, cols = _random_nilpotent(rng, dim)
        images = [exp_sparse(cols, ((k, ONE),)) for k in range(dim)]
        for _ in range(30):
            u, v = rng.choice(acting), rng.choice(acting)
            straight = sparse_modes(alg.mode_index, support(u), support(v))
            lhs = {(-n - 1,): c for n, c in straight.items()}
            modes = sparse_modes(alg.mode_index, support(v), support(u))
            assert dense_terms(modes, dim) == _dense_mode_map(table_of(alg), v, u)
            assert dense_terms(exp_sparse(cols, support(u)), dim) == _dense_exp(d, u)
            assert apply_columns(cols, u) == mat_vec(d, u)
            for q in _QS:
                got = skew_terms(images, modes, q)
                ref = _ref_skew(d, _dense_mode_map(table_of(alg), v, u), q)
                assert _nonzero_terms(dense_terms(got, dim)) == _nonzero_terms(ref)
                rhs = {(m,): c for m, c in got.items()}
                ref_lhs = {(-n - 1,): c for n, c in _dense_mode_map(table_of(alg), u, v).items()}
                ref_rhs = {(m,): c for m, c in ref.items()}
                diffs = _ref_differences(ref_lhs, ref_rhs, (ZERO,) * dim)
                assert term_differences(lhs, rhs, dim) == diffs
                seen.add(("skew", q, not diffs))
    # every q refutes and confirms somewhere, and so does associativity on both tables
    kinds = ("commute", "skew")
    assert seen >= {(kind, q, ok) for kind in kinds for q in _QS for ok in (True, False)}
    assert seen >= {("assoc", on_alg, ok) for on_alg in (True, False) for ok in (True, False)}


def test_add_term_never_writes_into_its_source():
    src = {0: F(1, 2), 3: F(-1)}
    terms = {}
    add_term(terms, (1, 0), ONE, src.items())
    add_term(terms, (1, 0), 1, src.items())
    add_term(terms, (1, 0), F(-2), {0: F(1, 2)}.items())
    add_term(terms, (2, 0), 0, src.items())
    assert src == {0: F(1, 2), 3: F(-1)}
    assert terms == {(1, 0): {3: F(-2)}}  # coordinate 0 cancels and is dropped


# -- translation operator ------------------------------------------------------


def _d_columns_dense(alg):
    """The images D e_j, read off the sparse columns and densified."""
    return [densify(dict(col), alg.dim) for col in d_columns(alg)]


def test_a3_d_operator(a3):
    d = _d_columns_dense(a3)
    t, t2 = a3.basis_index("t"), a3.basis_index("t2")
    assert d[t] == unit_vec(3, t2)  # D(t) = t^2
    assert all(x == 0 for x in d[t2])  # D(t^2) = 0
    assert all(x == 0 for x in d[a3.vacuum])  # D(1) = 0


def test_ut2_d_operator_is_zero(ut2):
    assert all(x == 0 for col in _d_columns_dense(ut2) for x in col)


def test_d_bracket_fixtures(a3, ut2):
    assert check_d_bracket(a3).passed
    assert check_d_bracket(ut2).passed


def test_d_bracket_detects_corruption(a3):
    bad = table_of(a3)
    # inject a spurious x-coefficient into Y(t,x)t: the derivative now reads t
    # while Y(D(t),x)t = Y(t2,x)t stays zero
    bad[(1, 1)] = {-1: unit_vec(3, 2), -2: unit_vec(3, 1)}
    alg = AlgebraStructure(basis=a3.basis, vacuum=a3.vacuum, mode_index=index_from_dense(bad, 3))
    assert not check_d_bracket(alg).passed


def test_creation_exponential(a3, ut2):
    assert check_creation_exponential(a3).passed
    assert check_creation_exponential(ut2).passed


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _dense_exp(m, v):
    """{j: m^j v / j!} by dense matrix iteration, until the iterate vanishes."""
    out, cur, fact = {}, v, F(1)
    while any(x != 0 for x in cur):
        assert len(out) <= len(m)
        out[len(out)] = tuple(x / fact for x in cur)
        cur = mat_vec(m, cur)
        fact *= len(out)
    return out


def _d_matrix(alg):
    """Matrix of v -> v_(-2) vacuum from the dense products (column j is D e_j)."""
    cols = [product(alg, j, -2, alg.vacuum) for j in range(alg.dim)]
    return tuple(tuple(col[r] for col in cols) for r in range(alg.dim))


def test_sparse_d_matches_dense_matrix():
    shipped = [parse_algebra_file(p).alg for p in sorted(FIXTURES.glob("*.json"))]
    assert len(shipped) == 7
    for alg in shipped + [matrix_algebra(parse_algebra_file(FIXTURES / "a3.json").alg, 3)]:
        d, cols = _d_matrix(alg), d_columns(alg)
        units = [alg.unit(k) for k in range(alg.dim)]
        mixed = tuple(F(k % 3, 2) if k % 2 else F(0) for k in range(alg.dim))
        for v in units + [mixed, vec_add(units[-1], vec_scale(F(-5, 3), units[0]))]:
            assert apply_columns(cols, v) == mat_vec(d, v)
            assert dense_terms(exp_sparse(cols, support(v)), alg.dim) == _dense_exp(d, v)


def test_non_nilpotent_d_is_refused():
    # D a = a: e^{xD} a never terminates
    table = {(0, 0): {-1: (1, 0)}, (0, 1): {-1: (0, 1)}, (1, 0): {-1: (0, 1), -2: (0, 1)}}
    alg = AlgebraStructure(basis=("one", "a"), vacuum=0, mode_index=index_from_dense(table, 2))
    with pytest.raises(NonNilpotentD):
        check_creation_exponential(alg)


# -- weak associativity ---------------------------------------------------------


def test_a3_weak_assoc_order_zero_everywhere(a3):
    for u in range(3):
        for w in range(3):
            assert find_weak_assoc_l(a3, u, w) is None


def test_ut2_weak_assoc_order_zero_everywhere(ut2):
    for u in range(3):
        for v in range(3):
            for w in range(3):
                assert weak_assoc_triple(ut2, u, v, w) is None


def test_nonassociative_table_is_refuted():
    # corrupt e11 * e12 to e11: then (e11 e12) e11 = e11 while e11 (e12 e11)
    # vanishes, a constant discrepancy no power of (x0+x2) can remove
    ut2 = upper_triangular_2()
    bad = table_of(ut2)
    bad[(1, 2)] = {-1: unit_vec(3, 1)}
    alg = AlgebraStructure(basis=ut2.basis, vacuum=0, mode_index=index_from_dense(bad, 3))
    r = find_weak_assoc_l(alg, 1, 1)
    assert r is not None
    assert r.where == ("e11", "e12", "e11") and r.lhs != r.rhs


def _two_dim_with_mode(n: int) -> AlgebraStructure:
    # synthetic structure with a nonnegative mode a_n a = a; not associative,
    # and its outer mode puts the associativity decision at order n + 1
    return AlgebraStructure(
        basis=("one", "a"),
        vacuum=0,
        mode_index=index_from_dense(
            {
                (0, 0): {-1: unit_vec(2, 0)},
                (0, 1): {-1: unit_vec(2, 1)},
                (1, 0): {-1: unit_vec(2, 1)},
                (1, 1): {n: unit_vec(2, 1)},
            },
            2,
        ),
    )


def test_order_scan_passes_window_limited_levels_then_refutes():
    # at order 0 the substituted side is not a Laurent polynomial; at order 1
    # both sides are, and their difference refutes every order
    alg = _two_dim_with_mode(0)
    r = weak_assoc_triple(alg, 1, 1, 1)
    assert r is not None


def test_deep_nonnegative_mode_is_refuted_exactly():
    # a_4 a = a puts the decision at order 5, where one exact comparison
    # refutes the relation
    alg = _two_dim_with_mode(4)
    r = weak_assoc_triple(alg, 1, 1, 1)
    assert r is not None
    assert r.exponent is not None
    assert r.lhs != r.rhs


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


def _random_table(rng: random.Random, modes=None) -> AlgebraStructure:
    # dim 3 with a clean vacuum row and column; the two other basis vectors
    # get sparse products with one mode in [-4, 2], nonnegative ones
    # included, or with one or two of the given modes
    table = {(0, j): {-1: unit_vec(3, j)} for j in range(3)}
    table.update({(i, 0): {-1: unit_vec(3, i)} for i in (1, 2)})
    for i in (1, 2):
        for j in (1, 2):
            if rng.random() < 0.6:
                vec = (0, rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1)))
                if modes is None:
                    table[(i, j)] = {rng.randint(-4, 2): vec}
                else:
                    table[(i, j)] = {n: vec for n in rng.sample(modes, rng.randint(1, 2))}
    return AlgebraStructure(
        basis=("one", "a", "b"), vacuum=0, mode_index=index_from_dense(table, 3)
    )


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
            assert r is None or isinstance(r, Witness)
            status, witness = _series_assoc_reference(alg, u, v, w)
            assert ("found" if r is None else "refuted") == status, (table_of(alg), u, v, w)
            if witness is not None:
                exponent, lhs, rhs = witness
                sides = (dict(support(lhs)), dict(support(rhs)))
                assert (r.exponent, r.lhs, r.rhs) == (exponent, *sides)
            seen.add(status)
    assert seen == {"found", "refuted"}


def test_a_pole_in_the_product_or_the_iterate_fails_weak_associativity():
    # the pole theorem of weak associativity on seeded random tables: a
    # triple whose product Y(u,x1)Y(v,x2)w has a negative x1 exponent, or
    # whose iterate Y(Y(u,x0)v,x2)w has a negative x0 exponent, fails it
    rng = random.Random(7)
    poles = {"product": 0, "iterate": 0}
    for _ in range(1500):
        alg = _random_table(rng)
        pairs = pair_analysis(alg)
        sources = iterate_sources(alg.mode_index)
        for w in range(alg.dim):
            iterates = scatter_iterates(pairs.acting_columns, sources, w)
            for kind, by_pair in (("product", pairs.products(w)), ("iterate", iterates)):
                for (u, v), terms in by_pair.items():
                    if min(e[0] for e in terms) < 0:
                        poles[kind] += 1
                        assert pairs.assoc_failure(u, v, w) is not None, (table_of(alg), u, v, w)
    assert poles == {"product": 5383, "iterate": 3610}


def _random_module(rng: random.Random, modes) -> ModuleStructure:
    # dim 2 under _random_table's algebra: the vacuum acts as the identity
    # and each other basis vector acts on each w by one random mode
    table = {(0, j): {-1: unit_vec(2, j)} for j in range(2)}
    for i in (1, 2):
        for j in range(2):
            if rng.random() < 0.7:
                table[(i, j)] = {rng.choice(modes): (rng.choice((-1, 0, 1)), rng.choice((-1, 1)))}
    return ModuleStructure(basis=("w0", "w1"), mode_index=index_from_dense(table, 2))


@pytest.mark.parametrize(
    "modes",
    (None, (-2, -1, 0, 1), (-40, -2, -1, 0, 1, 30)),
    ids=("modes-4..2", "two-modes", "large-and-singular-modes"),
)
def test_weak_associativity_by_its_poles_equals_the_full_expansion(modes):
    # the pole theorem's decision (assoc_holds; assoc_difference at the order of
    # assoc_sides) against both sides expanded in full (reference_pairs), per
    # triple, on the algebra and on a module acting table: the verdict, and
    # the first difference the witness prints
    rng = random.Random(9)
    seen = collections.Counter()
    for _ in range(120):
        alg = _random_table(rng, modes)
        for act in (alg, _random_module(rng, modes or range(-4, 3))):
            analysis = PairAnalysis(alg, act)
            sources = iterate_sources(alg.mode_index)
            for w in range(act.dim):
                iterates = scatter_iterates(analysis.acting_columns, sources, w)
                for (u, v), prod in analysis.products(w).items():
                    iterate = iterates.get((u, v), {})
                    first = next(sparse_differences(*assoc_sides(prod, iterate)), None)
                    order = max(0, -min(prod)[0])
                    assert assoc_holds(prod, iterate) == (first is None), (prod, iterate)
                    assert assoc_difference(prod, iterate, order) == first, (prod, iterate)
                    iterate_pole = min(iterate or [(0,)])[0] < 0
                    pole = "product" if order else "iterate" if iterate_pole else None
                    seen[pole, first is None, act is alg] += 1
                    seen["equal sides with a pole"] += bool(order) and prod == iterate
            # the records read each triple as the full expansion does
            assert resolved_records(analysis) == reference_records(analysis), table_of(act)
    # every triple with a pole fails; poles in both sides, holding and failing
    # triples without one, on the algebra and on the module
    for on_alg in (True, False):
        assert not seen["product", True, on_alg] and not seen["iterate", True, on_alg]
        assert seen["product", False, on_alg] and seen["iterate", False, on_alg]
        assert seen[None, True, on_alg] and seen[None, False, on_alg]
    # a product equal to its iterate with an outer exponent -2 and 0, which fails
    assert modes is None or seen["equal sides with a pole"]


def _a3_with_mode(tmp_path, n):
    """The a3 fixture with its (t, one) mode -2 entry moved to mode n, parsed."""
    doc = json.loads((FIXTURES / "a3.json").read_text())
    (entry,) = [e for e in doc["entries"] if (e["u"], e["v"], e["n"]) == ("t", "one", -2)]
    entry["n"] = n
    (tmp_path / f"a3-{-n}.json").write_text(json.dumps(doc))
    return parse_algebra_file(tmp_path / f"a3-{-n}.json")


def test_a_large_mode_costs_what_its_terms_cost(tmp_path):
    # (t, one, one) fails at its second x0 layer, whatever the mode: the
    # axioms suite keeps one layer per side, not (x0+x2)^(-n-1) expanded
    witness = run_suite(_a3_with_mode(tmp_path, -2000), "axioms").records[3].witnesses
    assert witness == ["at (t,one,one) exponent (1, 1998): 1999 t2 != 0"]
    for n in (-10**4, -10**5):
        bundle = _a3_with_mode(tmp_path, n)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            record = run_suite(bundle, "axioms").records[3]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 5 and peak < 2**20, (n, peak)
        assert record.witnesses == [f"at (t,one,one) exponent (1, {-n - 2}): {-n - 1} t2 != 0"]


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
            assert rep.exact and rep.found_orders == {}
            halves.update(wit.where[0] for wit in rep.witnesses)
            failing = {wit.where[1:] for wit in rep.witnesses}
            assert len(failing) == len(rep.witnesses)
            for w in basis:
                units = ((u, ONE),), ((v, ONE),), ((w, ONE),)
                reversed_terms = dense_terms(reversed_sparse(alg, *units), alg.dim)
                rterms = {e: vec_scale(q, c) for e, c in reversed_terms.items()}
                holds = _series_jacobi_reference(alg, u, v, w, rterms)
                names = (alg.basis[u], alg.basis[v], alg.basis[w])
                assert holds == (names not in failing), (table_of(alg), u, v, w, q)
                seen.add(holds)
    assert seen == {True, False}
    assert halves == set(_HALVES)


def _rmap_terms(alg: AlgebraStructure, rmap, u: int, v: int, w: int) -> dict:
    # (Y x Y)(x2, x1) R(v ⊗ u) ⊗ w on the (x1, x2) grid
    terms: dict = {}
    for coeff, (a, b) in rmap.image((v, u)):
        units = (alg.unit(a), alg.unit(b), alg.unit(w))
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
            if loc is None:
                continue
            nonlocal_pairs += 1
            first = check_jacobi(alg, u, v, ONE_Q).witnesses[0]
            assert first.where[0] == "commutation"
            assert replace(first, where=first.where[1:]) == loc
        assert nonlocal_pairs > 0


# -- locality -------------------------------------------------------------------


def test_a3_locality_found_zero(a3):
    for i in range(3):
        for j in range(3):
            assert find_locality_k(a3, i, j, ONE_Q) is None


def test_ut2_nonlocal_pair_constant_witness(ut2):
    r = find_locality_k(ut2, ut2.basis_index("e11"), ut2.basis_index("e12"), ONE_Q)
    assert r is not None
    # the witness is the constant discrepancy e12 vs 0 on the vacuum
    assert r.exponent == (0, 0)
    assert r.lhs == {2: 1}
    assert r.rhs == {}


def test_twist_locality_with_commutator_scalar(twist):
    alg, grading, cocycle = twist
    i10, i01 = alg.basis_index("g10"), alg.basis_index("g01")
    q = cocycle.commutator(grading.degrees[i10], grading.degrees[i01])
    assert q == -1
    assert find_locality_k(alg, i10, i01, q) is None
    assert find_locality_k(alg, i10, i01, ONE_Q) is not None


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
            assert (loc is None) == skew.passed


@pytest.mark.parametrize("q", [Fraction(1), Fraction(-1)])
def test_twist_skew_matches_locality_on_all_pairs(twist, q):
    alg, _, _ = twist
    for i in range(4):
        for j in range(4):
            loc = find_locality_k(alg, i, j, q)
            skew = check_skew_symmetry(alg, i, j, q)
            assert (loc is None) == skew.passed


def test_ut2_skew_failure_values(ut2):
    # Y(e11,x)e12 = e12 while e^{xD}Y(e12,-x)e11 = e12*e11 = 0
    rep = check_skew_symmetry(ut2, 1, 2, ONE_Q)
    assert not rep.passed
    w = rep.witnesses[0]
    assert w.lhs == {2: 1}
    assert w.rhs == {}


# -- pair-level closed forms against the all-pairs loops ------------------------------


def _sparse_table_with_d(rng, dim):
    """A sparse random table on e0..e{dim-1}, vacuum e0, with a nilpotent D.

    About a quarter of the pairs carry one or two modes in [-3, 1].  D e_j,
    the mode -2 of (j, vacuum), has coordinates only above j, so e^{xD}
    terminates; D e_0 may be nonzero, which the bracket check reports.
    """
    index = {}
    for i in range(dim):
        for j in range(dim):
            if rng.random() < 0.25:
                index[(i, j)] = {
                    n: [(k, rng.choice(_RATIONALS)) for k in rng.sample(range(dim), rng.randint(1, 2))]
                    for n in rng.sample(range(-3, 2), rng.randint(1, 2))
                }
    for j in range(dim):
        modes = index.setdefault((j, 0), {})
        modes[-2] = [(k, rng.choice(_RATIONALS)) for k in range(j + 1, dim) if rng.random() < 0.4]
    basis = tuple(f"e{k}" for k in range(dim))
    return AlgebraStructure(basis=basis, vacuum=0, mode_index=index)


def _reached_through_d(alg, i, j):
    """Whether (i, j) has no index entry but (i, k) has one for e_k in D e_j, or (k, j) for e_k in D e_i."""
    index, cols = alg.mode_index, d_columns(alg)
    return (i, j) not in index and (
        any((i, k) in index for k, _c in cols[j]) or any((k, j) in index for k, _c in cols[i])
    )


@pytest.mark.parametrize("seed", range(3))
def test_pair_closed_forms_equal_the_all_pairs_loops(seed):
    rng = random.Random(2900 + seed)
    seen = set()
    for _ in range(25):
        alg = _sparse_table_with_d(rng, rng.randint(3, 6))
        got = check_d_bracket(alg)
        assert got == reference_d_bracket(alg)
        seen.add(("bracket", got.passed))  # random tables fail it; the fixtures pass it
        pairs = list(itertools.product(range(alg.dim), repeat=2))
        reached = [p for p in pairs if _reached_through_d(alg, *p)]
        if reached:
            seen.add("reached through D")
            names = [w.where[1:] for w in got.witnesses if len(w.where) == 3]
            if any((alg.basis[i], alg.basis[j]) in names for i, j in reached):
                seen.add("witness reached through D")
        for q in (F(1), F(-1), F(1, 3), F(0)):
            for u, v in pairs:
                rep = check_skew_symmetry(alg, u, v, q)
                assert rep == reference_skew_symmetry(alg, u, v, q), (u, v, q)
                closed = (u, v) not in alg.mode_index and (v, u) not in alg.mode_index
                seen.add(("skew", closed, rep.passed))
    assert {("bracket", False), "reached through D"} <= seen
    assert "witness reached through D" in seen
    assert {("skew", True, True), ("skew", False, True), ("skew", False, False)} <= seen


def test_bracket_and_skew_visit_only_the_pairs_the_index_names(monkeypatch):
    # matrix_algebra(a3, 3): 234 index entries among 729 ordered pairs; D
    # reaches no pair outside them, and 318 pairs have (u, v) or (v, u) in it
    visits = []
    read = algebra_module.basis_modes

    def counting(index, i, j):
        visits.append((i, j))
        return read(index, i, j)

    monkeypatch.setattr(algebra_module, "basis_modes", counting)
    m3 = matrix_algebra(parse_algebra_file(FIXTURES / "a3.json").alg, 3)
    assert check_d_bracket(m3).passed
    assert len(visits) == len(set(visits)) == len(m3.mode_index) == 234
    assert set(visits) == set(m3.mode_index)
    visits.clear()
    for u, v in itertools.product(range(m3.dim), repeat=2):
        check_skew_symmetry(m3, u, v, ONE_Q)
    both = {(u, v) for u, v in m3.mode_index} | {(v, u) for u, v in m3.mode_index}
    assert len(visits) == 2 * len(both) == 2 * 318


# -- the q-Jacobi identity --------------------------------------------------------


def test_a3_jacobi_all_pairs(a3):
    for i in range(3):
        for j in range(3):
            rep = check_jacobi(a3, i, j, ONE_Q)
            assert rep.passed
            assert rep.found_orders == {}


def test_ut2_jacobi_tracks_locality(ut2):
    for i in range(3):
        for j in range(3):
            rep = check_jacobi(ut2, i, j, ONE_Q)
            loc = find_locality_k(ut2, i, j, ONE_Q)
            assert rep.passed == (loc is None)
            assert rep.found_orders == {}


def test_twist_jacobi_with_cocycle_scalars(twist):
    alg, grading, cocycle = twist
    for i in range(4):
        for j in range(4):
            q = cocycle.commutator(grading.degrees[i], grading.degrees[j])
            rep = check_jacobi(alg, i, j, q)
            assert rep.passed
            assert rep.found_orders == {}


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


def _intersection(dim, spans):
    """The intersection of subspaces: the nullspace of their stacked annihilators."""
    return dense_nullspace([a for rows in spans for a in dense_nullspace(rows, dim)], dim)


def _same_span(a, b):
    sa = SpanBasis(a)
    return sa.dim == SpanBasis(b).dim and all(sa.contains(v) for v in b)


@pytest.mark.parametrize("name", ["a3", "ut2", "z22_twist", "m2a3"])
def test_localizer_of_several_targets_is_the_intersection(name):
    alg = parse_algebra_file(FIXTURES / f"{name}.json").alg
    units = [alg.unit(k) for k in range(alg.dim)]
    mixed = vec_add(units[-1], vec_scale(F(-2, 3), units[0]))
    for targets in (units, [units[-1], mixed]):
        rows = localizer(alg, targets)
        assert _same_span(rows, _intersection(alg.dim, [localizer(alg, [w]) for w in targets]))
    if name == "a3":  # commutative: every vector localizes every target
        assert len(localizer(alg, units)) == alg.dim


def test_localizer_output_is_subalgebra(ut2):
    for target in range(3):
        rows = localizer(ut2, [unit_vec(3, target)])
        assert subspace_is_subalgebra(ut2, rows).passed


@pytest.mark.parametrize("builder", (generate_subalgebra, stabilizer, localizer))
@pytest.mark.parametrize("length", (4, 2))
def test_subspace_functions_refuse_a_vector_outside_the_space(a3, builder, length):
    # a vector of another length is not in the space the structure acts on
    with pytest.raises(MalformedStructure, match=f"length {length} in a space of dimension 3"):
        builder(a3, [unit_vec(3, 1), unit_vec(length, 1)])


# each relation check: its number of basis indices, and the arguments after them
RELATION_CHECKS = {
    find_locality_k: (2, (ONE_Q,)),
    weak_assoc_triple: (3, ()),
    find_weak_assoc_l: (2, ()),
    check_jacobi: (2, (ONE_Q,)),
    check_skew_symmetry: (2, (ONE_Q,)),
}


@pytest.mark.parametrize("check", RELATION_CHECKS, ids=lambda check: check.__name__)
@pytest.mark.parametrize("index", (7, -2))
def test_relation_checks_refuse_an_index_outside_the_basis(ut2, check, index):
    # the pair analysis reads a pair it never recorded as one that holds, and
    # -2 would name the basis vector 1 in a report: both are refused
    arity, rest = RELATION_CHECKS[check]
    for position in range(arity):
        indices = [1] * arity
        indices[position] = index
        with pytest.raises(MalformedStructure, match=rf"basis index {index} is not in range\(3\)"):
            check(ut2, *indices, *rest)


@pytest.mark.parametrize("index", (7, -2))
def test_skew_readers_refuse_an_index_outside_the_basis(ut2, index):
    # the mode index names no pair with such an index, which read as a
    # holding comparison and truncation order 0
    for u, v in ((index, 2), (2, index), (index, index)):
        with pytest.raises(MalformedStructure, match=rf"basis index {index} is not in range\(3\)"):
            skew_difference(ut2, u, v, ONE_Q)
        with pytest.raises(MalformedStructure, match=rf"basis index {index} is not in range\(3\)"):
            truncation_order(ut2, u, v)
    # an in-range pair the index names no entry for still holds in closed form
    empty = [(u, v) for u in range(3) for v in range(3) if (u, v) not in ut2.mode_index]
    assert empty and all(truncation_order(ut2, u, v) == 0 for u, v in empty)
    unnamed = [(u, v) for u, v in empty if (v, u) not in ut2.mode_index]
    assert unnamed and all(skew_difference(ut2, u, v, ONE_Q) is None for u, v in unnamed)


SUBSPACE_STRUCTURES = sorted(p.stem for p in FIXTURES.glob("*.json")) + ["matrix-a3-3"]


@functools.cache
def _subspace_structure(name):
    if name == "matrix-a3-3":
        return matrix_algebra(truncated_poly_3(), 3)
    return parse_algebra_file(FIXTURES / f"{name}.json").alg


def _random_subspaces(rng, dim, count):
    """Spans of one to three seeded rational vectors plus one dependent row."""
    for _ in range(count):
        rows = []
        for _ in range(rng.randint(1, 3)):
            rows.append(tuple(
                F(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 3 / dim else F(0)
                for _ in range(dim)
            ))
        rows.append(vec_add(rows[0], vec_scale(F(-2), rows[-1])))
        yield rows


@pytest.mark.parametrize("name", SUBSPACE_STRUCTURES)
def test_subspace_functions_equal_the_dense_reference(name):
    # rows and witnesses, in order: the span's echelon rows are the dense RREF
    alg = _subspace_structure(name)
    rng = random.Random(f"subspaces-{name}")
    units = [alg.unit(k) for k in range(alg.dim)]
    subspaces = [[u] for u in units[:6]] + [units[1::2]]
    subspaces += _random_subspaces(rng, alg.dim, 3 if alg.dim > 12 else 6)
    subspaces.append(generate_subalgebra(alg, [units[-1]]))
    failing = 0
    for rows in subspaces:
        assert stabilizer(alg, rows) == dense_stabilizer(alg, rows)
        assert localizer(alg, rows) == dense_localizer(alg, rows)
        got = subspace_is_subalgebra(alg, rows)
        assert got == dense_subspace_is_subalgebra(alg, rows)
        failing += not got.passed
    assert 0 < failing < len(subspaces)
