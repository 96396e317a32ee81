"""The pair analysis against the per-call loops it replaced, and its build count.

Each structure's pair analysis (`pairs.pair_analysis`) builds every
product Y(u,x1)Y(v,x2)w of basis vectors once and serves locality,
skew-symmetry, weak associativity, the q-Jacobi identity and the module
checks.  The oracles below are the loops those checks ran before it, on
the per-triple kernel of `reference_pairs`: one `commutation_sparse` per
basis w, one `assoc_search` per triple, and the Jacobi verdict as
commutation first, associativity second.  Verdicts and
witness strings must agree on every pair and triple, for several q.  The
analysis's own records are held equal to those of the per-pair walk it
replaced (`reference_pairs`), and its scattered products and iterates to
that walk's nonzero ones.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from reference_pairs import (
    assoc_search,
    commutation_sparse,
    pair_walk,
    product_sparse,
    reference_records,
    reversed_sparse,
    scale_terms,
)
from reference_tables import dense_witness, index_from_dense, table_of, term_differences

import vertexcalc.algebra as algebra_module
import vertexcalc.pairs as pairs_module
from vertexcalc.algebra import (
    AlgebraStructure,
    check_jacobi,
    check_skew_symmetry,
    d_columns,
    exp_sparse,
    find_locality_k,
    find_weak_assoc_l,
    sparse_modes,
    truncation_order,
    weak_assoc_triple,
)
from vertexcalc.construct import matrix_algebra
from vertexcalc.fileio import AlgebraBundle, parse_algebra_file
from vertexcalc.linalg import ONE
from vertexcalc.modules import (
    ModuleStructure,
    adjoint_module,
    check_locality_transfer,
    check_module,
    wn_module,
)
from vertexcalc.pairs import (
    PairAnalysis,
    acting_columns,
    iterate_sources,
    pair_analysis,
    scatter_iterates,
    scatter_products,
)
from vertexcalc.report import Witness
from vertexcalc.suite import run_suite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
NAMES = ("a2_base", "a3", "cross_a2z2", "m2a3", "ut2", "z22_base", "z22_twist")
QS = (Fraction(1), Fraction(0), Fraction(-1), Fraction(1, 3))


def _e(i):
    return ((i, ONE),)


# -- the per-call loops the analysis replaced ----------------------------------


def _locality_oracle(alg, u, v, q) -> Witness | None:
    for w in range(alg.dim):
        diffs = commutation_sparse(alg, _e(u), _e(v), _e(w), q)
        if diffs:
            names = (alg.basis[u], alg.basis[v], alg.basis[w])
            return dense_witness(names, diffs[0], alg.basis)
    return None


def _assoc_oracle(alg, act, u, v, w) -> Witness | None:
    names = (alg.basis[u], alg.basis[v], act.basis[w])
    return assoc_search(alg, act, _e(u), _e(v), _e(w), names)


def _skew_oracle(alg, u, v, q) -> tuple:
    # e^{xD} applied to every mode afresh, and locality searched again
    cols = d_columns(alg)
    lhs = {(-n - 1,): c for n, c in sparse_modes(alg.mode_index, _e(u), _e(v)).items()}
    rhs: dict = {}
    for n, c in sparse_modes(alg.mode_index, _e(v), _e(u)).items():
        m = -n - 1
        sgn = -q if m % 2 else q
        for j, dv in exp_sparse(cols, c.items()).items():
            algebra_module.add_term(rhs, (m + j,), sgn, dv.items())
    diffs = term_differences(lhs, rhs, alg.dim)
    witnesses = [dense_witness((alg.basis[u], alg.basis[v]), diffs[0], alg.basis)] if diffs else []
    k_min = truncation_order(alg, u, v)
    local = _locality_oracle(alg, u, v, q) is None
    k_used = 0 if local else k_min
    if k_used < k_min:
        witnesses.append(
            Witness(
                (alg.basis[u], alg.basis[v]),
                None,
                f"x^{k_used} leaves negative powers",
                f"needs k >= {k_min}",
            )
        )
    orders = {"truncation_k": k_min, **({"locality_k": 0} if local else {})}
    return [w.describe() for w in witnesses], orders, not diffs


def _jacobi_oracle(alg, u, v, q) -> list[str]:
    out = []
    for w in range(alg.dim):
        names = (alg.basis[u], alg.basis[v], alg.basis[w])
        rterms = scale_terms(q, reversed_sparse(alg, _e(u), _e(v), _e(w)))
        diffs = term_differences(product_sparse(alg, _e(u), _e(v), _e(w)), rterms, alg.dim)
        if diffs:
            out.append(dense_witness(("commutation",) + names, diffs[0], alg.basis))
            continue
        wit = _assoc_oracle(alg, alg, u, v, w)
        if wit is not None:
            where = ("associativity",) + wit.where
            out.append(Witness(where, wit.exponent, wit.lhs, wit.rhs, wit.basis))
    return [w.describe() for w in out]


def _module_assoc_oracle(alg, mod) -> tuple[list[str], bool]:
    failed, uniform = [], False
    for u in range(alg.dim):
        for w in range(mod.dim):
            for v in range(alg.dim):
                wit = _assoc_oracle(alg, mod, u, v, w)
                if wit is not None:
                    failed.append(wit.describe())
                    break
            else:
                uniform = True
    return failed, uniform


def _transfer_oracle(alg, mod, u, v, q, faithful) -> tuple:
    alg_local = _locality_oracle(alg, u, v, q) is None
    witness = None
    for w in range(mod.dim):
        diffs = commutation_sparse(mod, _e(u), _e(v), _e(w), q)
        if diffs:
            witness = dense_witness((alg.basis[u], alg.basis[v], mod.basis[w]), diffs[0], mod.basis)
            break
    mod_holds = witness is None
    witnesses, orders = [], {"faithful": int(faithful)}
    if alg_local:
        orders["algebra_k"] = 0
        if not mod_holds:
            witnesses.append(witness.describe())
    if faithful and mod_holds and not alg_local:
        witnesses.append(
            Witness(
                (alg.basis[u], alg.basis[v]),
                None,
                "module relation holds",
                "algebra relation should follow on a faithful module",
            ).describe()
        )
    if mod_holds:
        orders["module_k"] = 0
    note = "agree" if (alg_local == mod_holds or not faithful) else "disagree"
    return witnesses, orders, [note]


# -- structures -------------------------------------------------------------------


def _perturbed(alg: AlgebraStructure, key, n, factor) -> AlgebraStructure:
    """alg with one mode product scaled, which breaks weak associativity."""
    table = table_of(alg)
    table[key][n] = tuple(factor * x for x in table[key][n])
    return AlgebraStructure(
        basis=alg.basis, vacuum=alg.vacuum, mode_index=index_from_dense(table, alg.dim)
    )


def _random_table(rng, n_acting: int, dim: int) -> dict:
    """Sparse random modes in [-3, 1] with entries in {0, 1, -1, 2, 1/2}."""
    table = {}
    for i in range(n_acting):
        for j in range(dim):
            if rng.random() < 0.5:
                table[(i, j)] = {
                    n: tuple(rng.choice((0, 0, 1, -1, 2, Fraction(1, 2))) for _ in range(dim))
                    for n in rng.sample(range(-3, 2), rng.randint(1, 2))
                }
    return table


def _random_cases():
    """Random tables and modules: not vertex algebras, but every check is defined on them.

    They reach what the shipped structures do not: a triple whose first
    exponent commutes for some q while a later one does not, and a failing
    associativity where both products vanish but the iterate does not.
    """
    rng = random.Random(11)
    for k, dim in enumerate((2, 3, 3, 4)):
        table = _random_table(rng, dim, dim)
        for j in range(dim):  # D = 0, so every e^{xD} terminates
            table.get((j, 0), {}).pop(-2, None)
        basis = tuple(f"e{i}" for i in range(dim))
        alg = AlgebraStructure(basis=basis, vacuum=0, mode_index=index_from_dense(table, dim))
        dim_m = dim % 3 + 1
        mod = ModuleStructure(
            basis=tuple(f"w{i}" for i in range(dim_m)),
            mode_index=index_from_dense(_random_table(rng, dim, dim_m), dim_m),
        )
        yield f"random-{k}", alg, mod, [lambda i, j, q=q: q for q in QS]


def _cases():
    """(name, alg, module, per-pair q functions) for every structure compared."""
    bundles = {name: parse_algebra_file(FIXTURES / f"{name}.json") for name in NAMES}
    a3, ut2 = bundles["a3"].alg, bundles["ut2"].alg
    cases = []
    for name, bundle in bundles.items():
        alg = bundle.alg
        qfuns = [lambda i, j, q=q: q for q in QS]
        if bundle.grading is not None and bundle.cocycle is not None:
            qfuns.append(
                lambda i, j, deg=bundle.grading.degrees, cocycle=bundle.cocycle: (
                    cocycle.commutator(deg[i], deg[j])
                )
            )
        cases.append((name, alg, adjoint_module(alg), qfuns))
    m3 = matrix_algebra(a3, 3)
    cases.append(("m3a3", m3, adjoint_module(m3), [lambda i, j, q=q: q for q in QS]))
    m2, column = wn_module(a3, adjoint_module(a3), 2)
    cases.append(("m2a3-columns", m2, column, [lambda i, j, q=q: q for q in QS]))
    # e11 e11 = 2 e11 makes (e11 e11) e12 = 2 e12 differ from e11 (e11 e12) = e12
    e11 = ut2.basis_index("e11")
    broken = _perturbed(ut2, (e11, e11), -1, Fraction(2))
    cases.append(("ut2-broken", broken, adjoint_module(broken), [lambda i, j: Fraction(1)]))
    cases.append(("ut2-broken-on-ut2", broken, adjoint_module(ut2), [lambda i, j: Fraction(1)]))
    # e2_1 e0 = -e2_1 e1, so Y(e2,x1)Y(e2,x2)e0 cancels at mode 1 above a nonzero
    # mode -2: a cancelled exponent left in would raise the associativity order
    cancel = AlgebraStructure(
        basis=("e0", "e1", "e2"),
        vacuum=0,
        mode_index=index_from_dense(
            {
                (0, 0): {1: (-1, 0, -1)},
                (1, 2): {0: (0, 0, 1)},
                (2, 0): {1: (-1, -1, 1)},
                (2, 1): {1: (1, 1, -1)},
                (2, 2): {-2: (-1, 0, -1)},
            },
            3,
        ),
    )
    cases.append(("cancelling", cancel, adjoint_module(cancel), [lambda i, j, q=q: q for q in QS]))
    return cases + list(_random_cases())


CASES = _cases()


@pytest.mark.parametrize("name, alg, mod, qfuns", CASES, ids=[c[0] for c in CASES])
def test_analysis_matches_the_per_call_loops(name, alg, mod, qfuns):
    basis = range(alg.dim)
    seen = set()
    for u, v, w in itertools.product(basis, basis, basis):
        got, want = weak_assoc_triple(alg, u, v, w), _assoc_oracle(alg, alg, u, v, w)
        assert got == want, (name, u, v, w)
        seen.add(("assoc", got is None))
    for u, w in itertools.product(basis, basis):
        want = next(
            (s for v in basis if (s := _assoc_oracle(alg, alg, u, v, w)) is not None), None
        )
        assert find_weak_assoc_l(alg, u, w) == want, (name, u, w)
    rep = check_module(alg, mod)
    failed, uniform = _module_assoc_oracle(alg, mod)
    prefixes = ("vacuum-action", "d-derivative")
    assert [w.describe() for w in rep.witnesses if w.where[0] not in prefixes] == failed
    assert ("max_assoc_order" in rep.found_orders) == uniform
    seen.add(("module-assoc", not failed))
    for qfun in qfuns:
        for u, v in itertools.product(basis, basis):
            q = qfun(u, v)
            loc = find_locality_k(alg, u, v, q)
            assert loc == _locality_oracle(alg, u, v, q), (name, u, v, q)
            seen.add(("locality", loc is None))
            skew = check_skew_symmetry(alg, u, v, q)
            got = ([w.describe() for w in skew.witnesses], skew.found_orders, skew.exact)
            assert got == _skew_oracle(alg, u, v, q), (name, u, v, q)
            jac = check_jacobi(alg, u, v, q)
            assert [w.describe() for w in jac.witnesses] == _jacobi_oracle(alg, u, v, q)
            seen.update(("jacobi", w.where[0]) for w in jac.witnesses)
            for flag in (True, False):
                t = check_locality_transfer(alg, mod, u, v, q, faithful=flag)
                got = ([w.describe() for w in t.witnesses], t.found_orders, t.notes)
                assert got == _transfer_oracle(alg, mod, u, v, q, flag), (name, u, v, q)
    if name == "m2a3":
        assert seen >= {("locality", True), ("locality", False), ("jacobi", "commutation")}
    if name.startswith("ut2-broken"):
        assert seen >= {("assoc", True), ("assoc", False), ("module-assoc", False)}
        assert ("jacobi", "associativity") in seen


def _analyses(alg, mod):
    return [PairAnalysis(alg, alg), PairAnalysis(alg, mod)]


@pytest.mark.parametrize("name, alg, mod, qfuns", CASES, ids=[c[0] for c in CASES])
def test_scatter_walk_records_equal_the_pair_walk(name, alg, mod, qfuns):
    for analysis in _analyses(alg, mod):
        commute, assoc = analysis._records
        assert (commute, assoc) == reference_records(analysis), name
        # equal profiles are one object
        profiles = [p for flat in commute.values() for p in flat[1::2]]
        assert len({id(p) for p in profiles}) == len(set(profiles))


@pytest.mark.parametrize("name, alg, mod, qfuns", CASES, ids=[c[0] for c in CASES])
def test_scatter_walk_builds_exactly_the_nonzero_products(name, alg, mod, qfuns):
    # no cancelled exponent and no zero product or iterate is kept
    for analysis in _analyses(alg, mod):
        index, n = analysis.index, analysis.n
        cols, sources = acting_columns(index, n), iterate_sources(analysis.alg_index)
        for w in range(analysis.dim):
            walk = pair_walk(analysis.alg_index, index, n, w)
            prods = {key: p for key, (p, _r, _i) in walk.items() if p}
            iterates = {key: i for key, (_p, _r, i) in walk.items() if i}
            assert scatter_products(index, cols, w, n) == prods, (name, w)
            assert scatter_iterates(index, sources, w) == iterates, (name, w)


def test_one_analysis_serves_every_q():
    # the same analysis object answers q = 1 and q = -1 on the graded twist
    bundle = parse_algebra_file(FIXTURES / "z22_twist.json")
    alg = bundle.alg
    pairs = pair_analysis(alg)
    answers = {
        q: [pairs.commutes(u, v, q) for u in range(alg.dim) for v in range(alg.dim)]
        for q in (Fraction(1), Fraction(-1))
    }
    assert pair_analysis(alg) is pairs
    assert answers[Fraction(1)] != answers[Fraction(-1)]
    assert any(answers[Fraction(-1)]) and not all(answers[Fraction(-1)])


def test_adjoint_module_shares_the_algebra_analysis():
    alg = parse_algebra_file(FIXTURES / "m2a3.json").alg
    a3 = parse_algebra_file(FIXTURES / "a3.json").alg
    assert pair_analysis(alg, adjoint_module(alg)) is pair_analysis(alg)
    m2, column = wn_module(a3, adjoint_module(a3), 2)
    assert pair_analysis(m2, column) is not pair_analysis(m2)
    assert pair_analysis(m2, column) is pair_analysis(m2, column)


# -- each product is built once -------------------------------------------------------


@pytest.fixture
def build_counts(monkeypatch):
    """Counts of product builds per (acting table, u, v, w), through the scatter."""
    counts: dict = {}
    calls = []
    scatter = pairs_module.scatter_products

    def counting_scatter(index, cols, w_idx, n):
        calls.append((id(index), w_idx))
        prods = scatter(index, cols, w_idx, n)
        for u, v in prods:
            key = (id(index), u, v, w_idx)
            counts[key] = counts.get(key, 0) + 1
        return prods

    monkeypatch.setattr(pairs_module, "scatter_products", counting_scatter)
    return counts, calls


def test_every_triple_is_built_at_most_once_across_suites(build_counts):
    counts, calls = build_counts
    bundle = parse_algebra_file(FIXTURES / "m2a3.json")
    assert bundle.alg._pairs is None and calls == []
    for suite in ("axioms", "locality", "skew", "jacobi", "modules"):
        run_suite(bundle, suite)
    assert counts and max(counts.values()) == 1
    # one walk: each target basis vector once
    assert sorted(w for _index, w in calls) == list(range(bundle.alg.dim))


def test_parsing_and_building_make_no_analysis(build_counts):
    counts, calls = build_counts
    a3 = parse_algebra_file(FIXTURES / "a3.json").alg
    m2 = matrix_algebra(a3, 2)
    assert a3._pairs is None and m2._pairs is None
    assert counts == {} and calls == []
    bundle = AlgebraBundle(alg=m2, name="m2")
    run_suite(bundle, "locality")
    assert m2._pairs is not None and a3._pairs is None


def test_a_held_analysis_is_returned_without_entering_pair_analysis(monkeypatch):
    # every locality check reads the structure's analysis; once it is held,
    # algebra._analysis returns it as it is
    entered = []
    build = pairs_module.pair_analysis

    def counting(alg, act=None):
        entered.append(id(alg))
        return build(alg, act)

    monkeypatch.setattr(pairs_module, "pair_analysis", counting)
    a3 = parse_algebra_file(FIXTURES / "a3.json").alg
    m3 = matrix_algebra(a3, 3)
    run_suite(AlgebraBundle(alg=m3, name="m3"), "locality")
    assert entered == [id(m3)]
    analysis = m3._pairs
    run_suite(AlgebraBundle(alg=m3, name="m3"), "locality")
    assert entered == [id(m3)] and m3._pairs is analysis
