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
that walk's nonzero ones.  The closed forms the analysis decides most
profiles and triples by are held equal to the loops on random term
dictionaries, and their share of the work is counted.  The closed-form
commutation verdict of each (u, v, q) is held equal to "every profile of the
per-pair walk admits q", its memoized first failure to the first failure of
the walk over its profiles, and only failing ones are counted to walk them,
once; weak associativity, decided by its poles and walked by x0 exponent
(`assoc_holds`, `assoc_difference`), is held equal to the full expansion of
both sides (`reference_pairs.assoc_sides`), and its binomials, by the ratio
recurrence, are counted to call `linalg.binom` never.
"""

import collections
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from reference_pairs import (
    assoc_search,
    assoc_sides,
    binom_row,
    commutation_sparse,
    pair_walk,
    product_sparse,
    reference_profile,
    reference_records,
    resolved_records,
    reversed_sparse,
    scale_terms,
)
from reference_tables import dense_witness, index_from_dense, table_of, term_differences

import vertexcalc.algebra as algebra_module
import vertexcalc.linalg as linalg_module
import vertexcalc.pairs as pairs_module
import vertexcalc.suite as suite_module
from vertexcalc.algebra import (
    AlgebraStructure,
    check_jacobi,
    check_skew_symmetry,
    d_columns,
    exp_sparse,
    find_locality_k,
    find_weak_assoc_l,
    scale,
    skew_difference,
    sparse_differences,
    sparse_modes,
    truncation_order,
    weak_assoc_triple,
)
from vertexcalc.construct import matrix_algebra
from vertexcalc.fileio import AlgebraBundle, parse_algebra_file
from vertexcalc.linalg import ONE, binom, densify
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
    assoc_difference,
    assoc_holds,
    iterate_sources,
    pair_analysis,
    pair_profiles,
    scatter_iterates,
    scatter_products,
    swapped,
)
from vertexcalc.errors import InvalidArgument
from vertexcalc.report import Witness
from vertexcalc.suite import MAX_WITNESSES, SuiteOptions, run_suite

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
        commute, assoc = resolved_records(analysis)
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
            assert scatter_iterates(cols, sources, w) == iterates, (name, w)


def _cancelling_tables():
    """Seeded tables with entries 0 and +-1 on the modes -2, -1 and 0, and one hand-made table.

    Contributions to one coordinate of a product or iterate cancel.  In the
    hand-made table whole pairs cancel: Y(e1,x)e0 = e1 - e2 while e1 and e2
    both go to e0 under Y(e2,x), and under Y(e1,x) and Y(e2,x) e1 goes to
    e0, so the product of (e2, e1) on e0 and the iterate of (e1, e0) on e1
    vanish.
    """
    for seed in range(4):
        rng = random.Random(3500 + seed)
        dim = 3 + seed % 2
        table = {
            (i, j): {n: tuple(rng.choice((0, 1, -1)) for _ in range(dim)) for n in range(-2, 1)}
            for i, j in itertools.product(range(dim), repeat=2)
            if rng.random() < 0.8
        }
        yield table, dim
    unit = {-1: (1, 0, 0)}
    yield {(1, 0): {-1: (0, 1, -1)}, (2, 1): unit, (2, 2): unit, (1, 1): unit}, 3


def test_the_walk_drops_exactly_the_vectors_that_cancel(monkeypatch):
    emptied = collections.Counter()
    add_scaled, scatter = pairs_module.add_scaled, ["products"]

    def counting(acc, c, entries):
        add_scaled(acc, c, entries)
        emptied[scatter[0]] += not acc

    monkeypatch.setattr(pairs_module, "add_scaled", counting)
    for table, dim in _cancelling_tables():
        basis = tuple(f"e{i}" for i in range(dim))
        alg = AlgebraStructure(basis=basis, vacuum=0, mode_index=index_from_dense(table, dim))
        analysis = PairAnalysis(alg, alg)
        cols, sources = analysis.acting_columns, iterate_sources(analysis.alg_index)
        got = {}
        for w in range(dim):
            walk = pair_walk(analysis.alg_index, analysis.index, dim, w)
            scatter[0] = "products"
            prods = got["products", w] = analysis.products(w)
            scatter[0] = "iterates"
            iterates = got["iterates", w] = scatter_iterates(cols, sources, w)
            assert prods == {key: p for key, (p, _r, _i) in walk.items() if p}, (table, w)
            assert iterates == {key: i for key, (_p, _r, i) in walk.items() if i}, (table, w)
            # no empty vector and no pair without a vector survives
            for terms in (*prods.values(), *iterates.values()):
                assert terms and all(terms.values()), (table, w)
        scatter[0] = "records"
        assert resolved_records(analysis) == reference_records(analysis), table
    assert emptied["products"] > 0 and emptied["iterates"] > 0
    # the last table's cancelled pairs, which the scatter reached
    assert (2, 1) not in got["products", 0] and (1, 0) not in got["iterates", 1]


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


def test_each_structure_builds_one_analysis_and_holds_it(monkeypatch):
    # every locality check reads the structure's analysis through
    # pair_analysis; it is constructed once, and a held one is returned as it is
    built = []

    class CountingAnalysis(pairs_module.PairAnalysis):
        def __init__(self, alg, act):
            built.append(id(alg))
            super().__init__(alg, act)

    monkeypatch.setattr(pairs_module, "PairAnalysis", CountingAnalysis)
    a3 = parse_algebra_file(FIXTURES / "a3.json").alg
    m3 = matrix_algebra(a3, 3)
    run_suite(AlgebraBundle(alg=m3, name="m3"), "locality")
    assert built == [id(m3)]
    analysis = m3._pairs
    run_suite(AlgebraBundle(alg=m3, name="m3"), "locality")
    assert built == [id(m3)] and m3._pairs is analysis


# -- closed forms against the loops -----------------------------------------------------

COEFFS = (1, -1, 2, Fraction(1, 2), Fraction(-3, 2))


def _random_vec(rng):
    return {k: rng.choice(COEFFS) for k in rng.sample(range(3), rng.randint(1, 3))}


def _random_terms(rng, outer=range(-2, 3)):
    """A term dictionary {(e1, e2): nonzero sparse vector} with 0 to 4 exponents."""
    size = rng.randint(0, 4)
    return {(rng.choice(outer), rng.randint(-3, 1)): _random_vec(rng) for _ in range(size)}


def _copy(terms):
    return {e: dict(v) for e, v in terms.items()}


def _profile_sides(rng):
    """Two term dictionaries: empty, equal, proportional, proportional up to a change, or random."""
    lhs = _random_terms(rng)
    kind = rng.choice(("empty-lhs", "empty-rhs", "equal", "proportional", "changed", "random"))
    if kind == "empty-lhs":
        return {}, lhs
    if kind == "empty-rhs":
        return lhs, {}
    if kind == "equal":
        return lhs, _copy(lhs)
    rhs = {e: scale(rng.choice((-1, 2, Fraction(1, 3))), v) for e, v in lhs.items()}
    if kind == "changed":
        rhs[(rng.randint(-2, 2), rng.randint(-3, 1))] = _random_vec(rng)
    elif kind == "random":
        rhs = _random_terms(rng)
    return lhs, rhs


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_profile_equals_the_loop(seed):
    # as the scatter leaves them: puv is nonzero and no side holds an empty
    # vector; the (v, u) profile compares pvu with puv swapped, and on the
    # diagonal u = v pvu is puv itself
    rng = random.Random(seed)
    shapes = set()
    for _ in range(400):
        puv, rhs = _profile_sides(rng)
        if not puv:
            puv, rhs = rhs, puv
        if not puv:
            continue
        pvu, diagonal = swapped(rhs), reference_profile(puv, swapped(puv))
        profiles = (*pair_profiles(puv, pvu), *pair_profiles(puv, puv))
        refs = (reference_profile(puv, rhs), reference_profile(pvu, swapped(puv)), diagonal, diagonal)
        for got, ref in zip(profiles, refs):
            assert (got, [type(x) for x in got]) == (ref, [type(x) for x in ref]), (puv, rhs)
            shapes.add(ref[0])
    # lhs = q rhs for no q, and for q = 0, 1 and the inverse ratios -1, 1/2, 3
    assert shapes >= {None, 0, 1, -1, Fraction(1, 2), 3}


def _assoc_sides_of(rng):
    """(prod, iterate): order-0 or not, holding or failing, with empty sides and positive e1."""
    outer = rng.choice((range(0, 1), range(0, 3), range(-2, 3)))
    prod = _random_terms(rng, outer)
    kind = rng.choice(("expanded", "expanded", "random", "empty"))
    if kind == "empty":
        return prod, {}
    if kind == "random":
        return prod, _random_terms(rng)
    # with every e1 >= 0 the order is 0 and the expansion of prod is an iterate that holds
    iterate = assoc_sides(prod, {})[0] if all(e1 >= 0 for e1, _e2 in prod) else _random_terms(rng)
    if iterate and rng.random() < 0.3:
        iterate[min(iterate)] = _random_vec(rng)
    return prod, iterate


@pytest.mark.parametrize("seed", range(4))
def test_assoc_holds_equals_the_first_difference_of_its_sides(seed):
    rng = random.Random(seed)
    seen = set()
    for _ in range(400):
        prod, iterate = _assoc_sides_of(rng)
        holds = assoc_holds(prod, iterate)
        lhs, rhs = assoc_sides(prod, iterate)
        first = next(sparse_differences(lhs, rhs), None)
        assert holds == (first is None), (prod, iterate)
        assert holds == (term_differences(lhs, rhs, 3) == [])
        # the walk at the order of assoc_sides stops at the same first difference
        order = max([0] + [-e1 for e1, _e2 in prod])
        assert assoc_difference(prod, iterate, order) == first, (prod, iterate)
        order0 = all(e1 == 0 for e1, _e2 in prod)
        seen.add((order0, bool(prod), holds))
    assert seen >= {(o, True, h) for o in (True, False) for h in (True, False)}
    assert (True, False, True) in seen and (True, False, False) in seen


@pytest.mark.parametrize("seed", range(4))
def test_sparse_differences_equals_the_full_walk(seed):
    rng = random.Random(seed)
    for _ in range(300):
        lhs, rhs = _profile_sides(rng)
        if rng.random() < 0.2:
            rhs[(0, 0)] = {}  # an empty vector reads as zero
        for a, b in ((lhs, rhs), (lhs, _copy(lhs)), (rhs, rhs)):
            got = [(e, densify(x, 3), densify(y, 3)) for e, x, y in sparse_differences(a, b)]
            assert got == term_differences(a, b, 3)


def test_closed_forms_leave_few_pairs_to_walk(monkeypatch):
    # matrix_algebra(a3, 3): each unordered pair is decided once per w, and
    # most have an empty or an equal side; most triples have every outer
    # exponent 0
    calls = collections.Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapped)

    counting(pairs_module, "pair_profiles")
    counting(pairs_module, "profile_walk")
    counting(pairs_module, "assoc_holds")
    a3 = parse_algebra_file(FIXTURES / "a3.json").alg
    records = pair_analysis(matrix_algebra(a3, 3))._records
    # 1,061 pairs u != v and 68 pairs u = v, for 2,190 ordered profiles
    assert calls["pair_profiles"] == 1061 + 68
    assert calls["profile_walk"] <= 60
    # of the 1,510 triples with a product or an iterate, only the 151 with a
    # nonzero outer exponent reach the layer walk; the rest are compared at
    # order 0 in closed form, or have no product at all.  Every triple holds,
    # so no failure is kept for a first difference to be walked from
    assert calls["assoc_holds"] == 151 and records[1] == {}


# -- one commutation verdict per (u, v, q) -----------------------------------------------


def _fixture_qfuns():
    """(name, alg, per-pair q functions) on the seven fixtures, from-cocycle where it is defined."""
    for name, alg, _mod, qfuns in CASES:
        if name in NAMES:
            yield name, alg, qfuns


@pytest.mark.parametrize("name, alg, qfuns", list(_fixture_qfuns()), ids=NAMES)
def test_the_memoized_first_failure_is_the_first_commutation_failure(name, alg, qfuns):
    analysis = PairAnalysis(alg, alg)
    basis = range(alg.dim)
    failing = 0
    for qfun in qfuns:
        for u, v in itertools.product(basis, basis):
            q = qfun(u, v)
            first = next(analysis.commutation_failures(u, v, q), None)
            want = None
            if first is not None:
                w, *diff = first
                want = Witness((alg.basis[u], alg.basis[v], alg.basis[w]), *diff, alg.basis)
            for _ in range(2):  # the second read is the memo's
                assert analysis.commutation_witness(u, v, q) == want, (name, u, v, q)
                assert analysis.commutes(u, v, q) == (want is None)
            # the walk reads the kept first failure back
            assert next(analysis.commutation_failures(u, v, q), None) == first
            failing += want is not None
    assert len(qfuns) == (5 if name in ("z22_base", "z22_twist") else 4)
    assert failing > 0


@pytest.mark.parametrize("name, alg, mod, qfuns", CASES, ids=[c[0] for c in CASES])
def test_commutes_is_the_closed_form_of_the_reference_profiles(name, alg, mod, qfuns):
    # (u, v) commutes for q exactly when every profile the per-pair walk
    # records for it admits q: there is none, or each is (q, e)
    seen = set()
    for analysis in _analyses(alg, mod):
        commute = reference_records(analysis)[0]
        for u, v in itertools.product(range(alg.dim), repeat=2):
            profiles = commute.get((u, v), ())[1::2]
            named = {p[0] for p in profiles if p[0] is not None}
            for q in {qfun(u, v) for qfun in qfuns} | named:
                want = all(profile[::2] == (q,) for profile in profiles)
                assert analysis.commutes(u, v, q) == want, (name, u, v, q)
                seen.add(want)
    assert seen == {True, False}


def test_repeated_locality_calls_return_equal_witnesses():
    for name in NAMES:
        alg = parse_algebra_file(FIXTURES / f"{name}.json").alg
        for u, v in itertools.product(range(alg.dim), repeat=2):
            for q in QS:
                first = find_locality_k(alg, u, v, q)
                assert find_locality_k(alg, u, v, q) == first, (name, u, v, q)


def test_locality_and_skew_walk_each_profile_list_once(monkeypatch):
    walks = collections.Counter()
    walk = PairAnalysis._failures

    def counting(self, u, v, q):
        walks[(u, v, q)] += 1
        return walk(self, u, v, q)

    monkeypatch.setattr(PairAnalysis, "_failures", counting)
    a3 = parse_algebra_file(FIXTURES / "a3.json").alg
    bundle = AlgebraBundle(alg=matrix_algebra(a3, 3), name="m3")
    run_suite(bundle, "locality")
    # a commuting (u, v, q) is a dict read; only the failing ones are walked
    assert len(walks) == 204 and set(walks.values()) == {1}
    pairs, basis = bundle.alg._pairs, range(bundle.alg.dim)
    assert set(walks) == {(u, v, 1) for u in basis for v in basis if not pairs.commutes(u, v, 1)}
    run_suite(bundle, "skew")
    assert len(walks) == 204 and set(walks.values()) == {1}
    # a repeated question, as the locality transfer asks, reads the memo
    for u, v, q in list(walks):
        assert find_locality_k(bundle.alg, u, v, q) is not None
    assert len(walks) == 204 and set(walks.values()) == {1}


# -- witnesses built on demand --------------------------------------------------------------


@pytest.mark.parametrize(
    "name, alg, qfuns",
    [(name, alg, qfuns) for name, alg, _mod, qfuns in CASES if name in NAMES + ("m3a3",)],
    ids=NAMES + ("m3a3",),
)
def test_check_jacobi_limit_keeps_the_verdict_and_the_first_witnesses(name, alg, qfuns):
    cut = 0
    for qfun in qfuns:
        for u, v in itertools.product(range(alg.dim), repeat=2):
            q = qfun(u, v)
            full = check_jacobi(alg, u, v, q)
            for k in range(1, 5):
                rep = check_jacobi(alg, u, v, q, limit=k)
                assert rep.verdict == full.verdict, (name, u, v, q, k)
                assert rep.witnesses == full.witnesses[:k], (name, u, v, q, k)
                cut += len(full.witnesses) > k
    assert cut > 0  # some full list is longer than a limit
    for limit in (0, -1):
        with pytest.raises(InvalidArgument):
            check_jacobi(alg, 0, 0, Fraction(1), limit=limit)


def test_check_jacobi_reads_no_failure_past_its_limit(monkeypatch):
    # a w among the first `limit` failing w has fewer than `limit` commutation
    # failures before it, so only the first `limit` are read
    consumed = []
    walk = PairAnalysis._failures

    def counting(self, u, v, q):
        for item in walk(self, u, v, q):
            consumed.append((u, v, q))
            yield item

    monkeypatch.setattr(PairAnalysis, "_failures", counting)
    a3 = parse_algebra_file(FIXTURES / "a3.json").alg
    m2a3 = parse_algebra_file(FIXTURES / "m2a3.json")
    for bundle, everything, kept in (
        (AlgebraBundle(alg=matrix_algebra(a3, 3), name="m3"), 1420, 612),
        (m2a3, 180, 102),
    ):
        consumed.clear()
        run_suite(bundle, "jacobi")
        assert len(consumed) == kept
        consumed.clear()
        basis = range(bundle.alg.dim)
        for u, v in itertools.product(basis, basis):
            check_jacobi(bundle.alg, u, v, Fraction(1))
        assert len(consumed) == everything


@pytest.mark.parametrize("q", ["1", "0", "1/3"])
def test_each_failing_pair_builds_its_first_witness_once(q, monkeypatch):
    built = []
    mode_pair = pairs_module.mode_pair

    def counting(*args):
        built.append(args[1:])
        return mode_pair(*args)

    monkeypatch.setattr(pairs_module, "mode_pair", counting)
    bundle, options, qf = parse_algebra_file(FIXTURES / "m2a3.json"), SuiteOptions(q=q), Fraction(q)
    alg, basis = bundle.alg, range(bundle.alg.dim)
    report = run_suite(bundle, "locality", options)
    failing = [(u, v) for u in basis for v in basis if not alg._pairs.commutes(u, v, qf)]
    sides = 1 if qf == 0 else 2  # q = 0 drops the reversed side
    assert failing and len(built) == sides * len(failing)
    # skew reads the verdicts, and the locality transfer the memoized first failures
    run_suite(bundle, "skew", options)
    run_suite(bundle, "modules", options)
    assert len(built) == sides * len(failing)
    # a jacobi record builds sides only for the witnesses it prints, a record
    # that holds none, and the suite builds no report and calls no check_jacobi
    per_record = {}
    add, mark = suite_module.SuiteReport.add, [len(built)]
    reports = []

    def counting_add(self, record):
        per_record[record.id] = (record.verdict, len(built) - mark[0])
        mark[0] = len(built)
        add(self, record)

    def no_report(*args, **kwargs):
        reports.append(args)
        return check_report(*args, **kwargs)

    check_report = algebra_module.CheckReport
    monkeypatch.setattr(suite_module.SuiteReport, "add", counting_add)
    monkeypatch.setattr(algebra_module, "CheckReport", no_report)
    monkeypatch.setattr(algebra_module, "check_jacobi", no_report)
    run_suite(bundle, "jacobi", options)
    counts = [v for rid, v in per_record.items() if not rid.startswith("jacobi/round-trip/")]
    assert len(counts) == alg.dim**2 and reports == []
    assert max(n for _verdict, n in counts) <= 2 * MAX_WITNESSES
    assert {n for verdict, n in counts if verdict == "holds"} == {0}
    assert any(n for verdict, n in counts if verdict == "fails")
    # a repeated question reads the memo: an equal witness, no new build
    built.clear()
    witnesses = {r.id: r.witnesses for r in report.records}
    for u, v in failing:
        again = find_locality_k(alg, u, v, qf)
        assert [again.describe()] == witnesses[f"locality/{alg.basis[u]},{alg.basis[v]}"]
        assert find_locality_k(alg, u, v, qf) == again
    assert built == []


# -- binomial rows ------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_binomial_rows_equal_binom(seed):
    # the rows the reference expansion (reference_pairs.assoc_sides) is built from
    rng = random.Random(seed)
    for m in [0, 1, 2] + [rng.randint(3, 400) for _ in range(20)]:
        assert binom_row(m) == [binom(m, i) for i in range(m + 1)], m
        assert all(type(c) is int for c in binom_row(m))


def test_assoc_difference_calls_no_binom(monkeypatch, tmp_path):
    # a mode n = -1600 makes an outer exponent 1599: 1600 layers, each
    # binomial from the one before by the ratio recurrence
    calls = []

    def counting(n, i):
        calls.append((n, i))
        return binom(n, i)

    monkeypatch.setattr(linalg_module, "binom", counting)
    monkeypatch.setattr(algebra_module, "binom", counting, raising=False)
    prod = {(1599, -1): {0: 1}, (-2, 0): {1: Fraction(1, 2)}}
    iterate = {(3, -2): {2: -1}}
    first = next(sparse_differences(*assoc_sides(prod, iterate)))
    assert assoc_difference(prod, iterate, 2) == first == ((0, 0), {1: Fraction(1, 2)}, {})
    whole = {(1599, -1): {0: 1}}
    expanded = assoc_sides(whole, {})[0]
    assert assoc_holds(whole, expanded) and assoc_difference(whole, expanded) is None
    expanded[(1000, 598)] = {0: 7}
    assert assoc_difference(whole, expanded) == ((1000, 598), {0: binom(1599, 1000)}, {0: 7})
    assert not assoc_holds(whole, expanded)
    assert calls == []
    # a3 with Y(t,x)one's mode -2 moved to -1600: the axioms suite calls no binom
    doc = json.loads((FIXTURES / "a3.json").read_text())
    (entry,) = [e for e in doc["entries"] if (e["u"], e["v"], e["n"]) == ("t", "one", -2)]
    entry["n"] = -1600
    (tmp_path / "a3.json").write_text(json.dumps(doc))
    report = run_suite(parse_algebra_file(tmp_path / "a3.json"), "axioms")
    assert calls == [] and len(report.records) == 4


class _CountedVec(dict):
    """A sparse vector that counts how often its terms are read."""

    reads = 0

    def items(self):
        _CountedVec.reads += 1
        return super().items()


def test_the_walks_stop_at_the_first_differing_layer(monkeypatch):
    # (x0+x2)^top: each layer 1 <= a < top reads the vector once to scale it
    top = 10**4
    prod = {(top, 0): _CountedVec({0: 1})}
    expanded = assoc_sides({(top, 0): {0: 1}}, {})[0]
    cases = (
        (expanded, True, top - 1),  # holds: every layer is walked
        ({**expanded, (-1, 0): {1: 1}}, False, 0),  # a pole in the iterate: layer 0
        ({**expanded, (0, 0): {1: 1}}, False, 0),  # an unmatched iterate term at layer 0
        ({**expanded, (5, 0): {1: 1}}, False, 5),  # the same at layer 5
    )
    for iterate, holds, reads in cases:
        _CountedVec.reads = 0
        assert assoc_holds(prod, iterate) == holds and _CountedVec.reads == reads
    # the difference walk steps over the x0 exponents no term reaches
    layers = []
    compare = pairs_module.sparse_differences

    def counting(lhs, rhs):
        layers.append(1)
        return compare(lhs, rhs)

    monkeypatch.setattr(pairs_module, "sparse_differences", counting)
    far = {(0, 0): {0: 1}, (10**5, 0): {1: 1}}
    assert assoc_difference({(0, 0): {0: 1}}, far) == ((10**5, 0), {}, {1: 1})
    assert len(layers) == 2


# -- the pair suites read the analysis ----------------------------------------------------


@pytest.mark.parametrize("name, alg, mod, qfuns", CASES, ids=[c[0] for c in CASES])
def test_the_skew_comparison_of_a_pair_is_that_of_the_reversed_pair_under_1_over_q(
    name, alg, mod, qfuns
):
    # Y(u,x)v = q e^{xD}Y(v,-x)u exactly when Y(v,x)u = q^-1 e^{xD}Y(u,-x)v:
    # substitute x -> -x and apply e^{xD}
    for q in QS:
        if q == 0:
            continue
        for u, v in itertools.product(range(alg.dim), repeat=2):
            agree = skew_difference(alg, u, v, q) is None
            assert agree == (skew_difference(alg, v, u, 1 / q) is None), (name, u, v, q)


def test_the_pair_suites_on_m3a3_build_only_what_they_print(monkeypatch):
    calls = collections.Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(algebra_module, "basis_modes")
    counting(suite_module, "find_locality_k")
    counting(suite_module, "find_weak_assoc_l")
    a3 = parse_algebra_file(FIXTURES / "a3.json").alg
    bundle = AlgebraBundle(alg=matrix_algebra(a3, 3), name="m3")
    # 162 unordered pairs the index names, 6 of them diagonal: one comparison
    # each under q = 1, which reads Y(u,x)v and Y(v,x)u
    run_suite(bundle, "skew")
    assert calls["basis_modes"] == 324
    # one witness per nonlocal pair
    run_suite(bundle, "locality")
    assert calls["find_locality_k"] == 204
    # weak associativity holds on m3a3: no witness to build
    report = run_suite(bundle, "axioms")
    assert report.records[-1].verdict == "pass" and calls["find_weak_assoc_l"] == 0
