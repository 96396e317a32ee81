"""The pair analysis: every product Y(u,x1)Y(v,x2)w of basis vectors, and each failure's witness.

Locality, skew-symmetry, weak associativity, the Jacobi-type identities and
the module checks all read the same two-variable products of basis vectors.
A structure's `PairAnalysis` (pair_analysis) builds each nonzero one once,
in one walk that scatters coordinates through sparse columns
(scatter_products, scatter_iterates), records each triple's commutation
profile and weak-associativity failure (assoc_holds, assoc_difference), and
drops the products.  It builds on the sparse kernel of vertexcalc.linalg
alone and reads a structure only through its mode index, its basis and the
analysis it holds, so vertexcalc.algebra imports it, not the other way round.

The analysis owns the refutations: every witness of a commutation, weak
associativity or Jacobi failure is built here from its records
(commutation_witness, assoc_witness, jacobi_witness, jacobi_witnesses), and
the checks in algebra, modules and construct read it.  jacobi_witness is
the one rule that names the failing half, commutation first.  The
Jacobi-like identity routes its reversed side through an R-map: where R is
a scalar c on v ⊗ u it is the q-Jacobi identity at q = c (jacobi_holds,
jacobi_witnesses); any other image is compared on one w's scatter at a
time (PairAnalysis.products), its difference handed to jacobi_witness.  The
analysis is held by the structure it acts through, like the mode index.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import islice
from typing import TYPE_CHECKING

from .linalg import SparseVec, Terms, add_scaled, add_term, integral, scale, sparse_differences
from .report import Witness

if TYPE_CHECKING:
    from .algebra import AlgebraStructure, ModeIndex
    from .modules import ModuleStructure


def solving_q(a: SparseVec, b: SparseVec) -> int | Fraction | None:
    """The one q with a = q b for a nonzero b, or None when no q solves it (or b is zero)."""
    if not b:
        return None
    if not a:
        return 0
    if a == b:
        return 1
    k, c = next(iter(b.items()))
    if k not in a:
        return None
    q = integral(Fraction(a[k], c))
    return q if a == scale(q, b) else None


def profile_walk(lhs: Terms, rhs: Terms) -> tuple:
    """The profile (pair_profiles) of lhs = q rhs, exponent by exponent in increasing order."""
    out: tuple = ()
    for e in sorted(set(lhs) | set(rhs)):
        a, b = lhs.get(e, {}), rhs.get(e, {})
        if not (a or b):
            continue
        qe = solving_q(a, b)
        if not out or qe != out[0]:
            out += (qe, e)
            if qe is None or len(out) == 4:
                break
    return out


def swapped(terms: Terms) -> Terms:
    """terms with its two exponents exchanged: Y(v,x1)Y(u,x2)w read as Y(v,x2)Y(u,x1)w."""
    return {(e2, e1): x for (e1, e2), x in terms.items()}


def pair_profiles(puv: Terms, pvu: Terms) -> tuple[tuple, tuple]:
    """The commutation profiles of (u, v) and (v, u) on one w, from puv = Y(u,x1)Y(v,x2)w and pvu.

    The profile of lhs = q rhs says for which q it holds and where each q
    fails first.  Each exponent e is solved by every q (both sides vanish
    there), by one q_e, or by none (q_e is None).  The profile is (q_1, e_1)
    for the least exponent e_1, followed by (q_2, e_2) for the least
    exponent that q_1 leaves unsolved when q_1 is not None.  So the relation
    holds for every q when the profile is empty, for exactly q_1 when it is
    (q_1, e_1) with q_1 not None, and for no q otherwise; and for each q it
    fails for, its least differing exponent is the first e_i whose q_i is
    not q.

    The (v, u) relation is the (u, v) one with x1 and x2 exchanged and q
    inverted, so one comparison of puv (nonzero) with pvu read swapped
    decides both: (None, e) and (0, e') when pvu is zero, (1, e) twice when
    they are equal, each e least in its own (x1, x2) order.  The scatter
    leaves no empty vector in either side, so only two different nonzero
    sides are swapped and walked (profile_walk), once in each direction; on
    the diagonal u = v, pvu is puv and the one profile is walked once.
    """
    if not pvu:
        return (None, min(puv)), (0, min([(e2, e1) for e1, e2 in puv]))
    if len(puv) == len(pvu):
        for (e1, e2), x in puv.items():
            if pvu.get((e2, e1)) != x:
                break
        else:
            return (1, min(puv)), (1, min(pvu))
    p = profile_walk(puv, swapped(pvu))
    return p, p if pvu is puv else profile_walk(pvu, swapped(puv))


def assoc_holds(prod: Terms, iterate: Terms) -> bool:
    """Whether (u, v, w) is weakly associative, decided by its poles and one order-0 walk.

    prod is Y(u,x1)Y(v,x2)w and iterate Y(Y(u,x0)v,x2)w.  x0 and x0+x2 are
    coprime in Q[x0, x2, x2^-1], so it holds exactly when prod has no
    negative x1 exponent, iterate no negative x0 exponent, and Σ c
    (x0+x2)^e1 x2^e2 over prod equals iterate.  That sum is walked one x0
    exponent at a time (as assoc_difference), each layer read against the
    iterate's sorted terms, up to the first that differs.  It is a walk of
    its own because it builds no layer of the iterate: a holding triple, the
    common case, is decided without one.
    """
    if not prod or min(prod)[0] < 0:
        return not (prod or iterate)
    rows, keys, p = [[e1, e2, c, 1] for (e1, e2), c in prod.items()], sorted(iterate), 0
    for a in range(max(prod)[0] + 1):
        layer: Terms = {}
        for row in rows:
            e1, e2, c, b = row
            if e1 >= a:
                if (e := (a, e1 + e2 - a)) in layer:  # a second term at e: a fresh sum
                    add_scaled(acc := dict(layer[e]), b, c.items())
                    layer[e] = acc
                else:  # c itself is only read
                    layer[e] = c if b == 1 else {k: b * x for k, x in c.items()}
                row[3] = b * (e1 - a) // (a + 1)
        if not all(layer.values()):  # a cancelled vector reads as zero
            layer = {e: x for e, x in layer.items() if x}
        p += len(layer)
        # a layer term differs, or an iterate term at x0 exponent <= a is unmatched
        if not layer.items() <= iterate.items() or p < len(keys) and keys[p][0] <= a:
            return False
    return p == len(keys)


def assoc_difference(prod: Terms, iterate: Terms, order: int = 0):
    """The first difference (exponent, lhs, rhs) of weak associativity at order, or None.

    The sides are (x0+x2)^order times prod = Y(u,x1)Y(v,x2)w at x1 = x0+x2
    and times iterate = Y(Y(u,x0)v,x2)w (order >= every -e1 of prod), in
    nonnegative powers of x2: a term c x0^s (x0+x2)^m x2^t puts binom(m, a-s)
    c at (a, t+m+s-a).  Both are walked by increasing x0 exponent a, each
    binomial from the last by the ratio recurrence, up to the first layer
    where they differ: one layer and one binomial per term, never the whole
    expansion, and no step at an a that no term reaches.
    """
    terms = [[0, e1 + order, e2, c, 1, 0] for (e1, e2), c in prod.items()]
    terms += [[e0, order, e2, c, 1, 1] for (e0, e2), c in iterate.items()]
    a = min([term[0] for term in terms], default=0)
    while terms:
        layers: tuple = ({}, {})
        for term in terms:
            s, m, t, c, b, side = term
            if s <= a:
                add_term(layers[side], (a, t + m + s - a), b, c.items())
                term[4] = b * (m + s - a) // (a - s + 1)
        if (diff := next(sparse_differences(*layers), None)) is not None:
            return diff
        terms = [term for term in terms if term[0] + term[1] > a]
        a = max(a + 1, min([term[0] for term in terms], default=a))
    return None


def mode_pair(index: ModeIndex, u: int, v: int, w: int, e) -> SparseVec:
    """The (x1, x2)-exponent e coefficient u_n1 v_n2 w of Y(u,x1)Y(v,x2)w, for basis vectors.

    Lookups of the one mode n2 of v on w and the one mode n1 of u in the
    table's sparse image index: this rebuilds one side of a witness whose
    exponent is already known.
    """
    acc: SparseVec = {}
    n1 = -e[0] - 1
    for k, c in index.get((v, w), {}).get(-e[1] - 1, ()):
        out = index.get((u, k), {}).get(n1)
        if out is not None:
            add_scaled(acc, c, out)
    return acc


def acting_columns(index: ModeIndex, n: int) -> dict[int, list]:
    """The acting table by target coordinate: for each k, the (u, [(e1, u_n e_k), ...]), e1 = -n-1.

    u ranges over the first n acting basis indices, and each nonzero mode
    is stored once, in exponent form, in index order.  This is the column
    layout of the sparse product (Gustavson, ACM TOMS 4, 1978): a
    coordinate c e_k of Y(v,x2)w is pushed through column k once, and lands
    on every u whose modes read e_k.
    """
    cols: dict[int, list] = {}
    for (u, k), modes in index.items():
        if 0 <= u < n:
            cols.setdefault(k, []).append((u, [(-n1 - 1, img) for n1, img in modes.items()]))
    return cols


def iterate_sources(alg_index: ModeIndex) -> dict[int, list]:
    """The algebra's products by coordinate: for each k, every (u, v, -n0-1, c) with c e_k in u_n0 v."""
    sources: dict[int, list] = {}
    for (u, v), modes in alg_index.items():
        for n0, img in modes.items():
            for k, c in img:
                sources.setdefault(k, []).append((u, v, -n0 - 1, c))
    return sources


def scatter_products(index: ModeIndex, cols: dict[int, list], w: int, n: int) -> dict:
    """{(u, v): Y(u,x1)Y(v,x2)w} for every pair of acting basis vectors whose product is nonzero.

    Each coordinate c e_k of each mode of Y(v,x2)w is pushed through its
    column cols[k] (acting_columns), so the walk costs the nonzero terms of
    the products, not a mode lookup per pair.  A first contribution is a
    fresh nonzero vector; one that a later contribution cancels is dropped
    at once, and so is a pair left with no vector.
    """
    acc: dict = {}
    for v in range(n):
        inner = index.get((v, w))
        if inner is None:
            continue
        for n2, img in inner.items():
            e2 = -n2 - 1
            for k, c in img:
                for u, modes in cols.get(k, ()):
                    if (terms := acc.get((u, v))) is None:
                        terms = acc[(u, v)] = {}
                    for e1, out in modes:
                        if (vec := terms.get((e1, e2))) is None:
                            terms[(e1, e2)] = dict(out) if c == 1 else {j: c * x for j, x in out}
                        else:
                            add_scaled(vec, c, out)
                            if not vec:
                                del terms[(e1, e2)]
                    if not terms:  # every vector of the pair cancelled
                        del acc[(u, v)]
    return acc


def scatter_iterates(cols: dict[int, list], sources: dict[int, list], w: int) -> dict:
    """{(u, v): Y(Y(u,x0)v,x2)w} for every pair whose iterate is nonzero.

    Each e_k with Y(e_k,x2)w nonzero, read off column w of the acting table
    (acting_columns), is pushed through the products that contain it
    (iterate_sources), keyed by (x0-exponent, x2-exponent), and cleared of
    cancelled vectors as in scatter_products.
    """
    acc: dict = {}
    column = dict(cols.get(w, ()))
    for k, containing in sources.items():
        modes = column.get(k)
        if modes is None:
            continue
        for u, v, e0, c in containing:
            if (terms := acc.get((u, v))) is None:
                terms = acc[(u, v)] = {}
            for e2, out in modes:
                if (vec := terms.get((e0, e2))) is None:
                    terms[(e0, e2)] = dict(out) if c == 1 else {j: c * x for j, x in out}
                else:
                    add_scaled(vec, c, out)
                    if not vec:
                        del terms[(e0, e2)]
            if not terms:
                del acc[(u, v)]
    return acc


class PairAnalysis:
    """Every product Y(u,x1)Y(v,x2)w of basis vectors, decided once, and each failure's witness.

    u and v range over the basis of `alg`, which also gives the iterates
    Y(Y(u,x0)v,x2)w; w over the basis of `act`, the acting table (alg or a
    module).  The constructor walks every w once and records two things:
    - commutation (profiles): for each ordered (u, v) and each w on which
      Y(u,x1)Y(v,x2)w = q Y(v,x2)Y(u,x1)w does not hold for every q, its
      profile by pair_profiles, the one profile rule, which names the q it
      holds for, if any.  Each pair's profiles are folded, as they are
      recorded, into the one q it commutes for on every w, so commutes is
      a dict read; only a failing (u, v, q) walks its profiles;
    - weak associativity (assoc_diffs): the first difference (exponent,
      lhs, rhs) of each triple that fails, in closed form at order 0 (no
      outer exponent) or with no product; else decided by assoc_holds, and
      the difference walked on first read (assoc_failure).  Each failing
      triple is also filed by w and by its least failing middle v.
    A witness names (u, v, w) by the two bases and its coordinates by
    act's.  A commutation witness's sides are read off the table at its
    exponent (mode_pair), those of the first failure of each (u, v, q)
    once.  The analysis keeps the tables' sparse indexes and basis names
    (tuples of strings), not the structures, so a structure that holds its
    analysis is in no reference cycle and is freed as soon as it is dropped.
    """

    def __init__(self, alg: AlgebraStructure, act: AlgebraStructure | ModuleStructure):
        self.alg_index = alg.mode_index
        self.index = act.mode_index
        self.basis = alg.basis
        self.act_basis = act.basis
        self.n = alg.dim
        self.dim = act.dim
        self._first: dict = {}  # (u, v, q): (w, exponent, lhs, rhs) of the first failure
        self.acting_columns = acting_columns(self.index, self.n)  # shared by every scatter
        sources = iterate_sources(self.alg_index)
        profiles: dict = {}  # (u, v): [w, profile, ...] on each w where it fails for some q
        pair_q: dict = {}  # (u, v): the one q it commutes for on every w, or None
        assoc: dict = {}  # (u, v): {w: the first difference, or its walk}
        middle: dict = {}  # (u, w): the least v for which (u, v, w) fails
        by_w: dict = {}  # w: the (u, v) for which (u, v, w) fails
        shared: dict = {}  # one object per distinct profile
        empty: dict = {}  # the one zero product or iterate, read and never written
        for w in range(self.dim):
            prods = self.products(w)
            iterates = scatter_iterates(self.acting_columns, sources, w)
            failed: dict = {}  # (u, v): the first difference on this w
            # every other pair has a zero product and reversed product
            for (u, v), puv in prods.items():
                pvu = prods.get((v, u), empty)  # puv itself when u = v
                if u <= v or not pvu:  # else decided with (v, u)
                    p, r = pair_profiles(puv, pvu)
                    for key, profile in ((u, v), p), ((v, u), r):
                        profile = shared.setdefault(profile, profile)
                        q = profile[0] if len(profile) == 2 else None
                        if (flat := profiles.get(key)) is None:
                            profiles[key], pair_q[key] = [w, profile], q
                        else:
                            flat += w, profile
                            if pair_q[key] != q:
                                pair_q[key] = None
                        if u == v:  # the diagonal has one key
                            break
                iterate = iterates.pop((u, v), empty)
                for e1, _e2 in puv:
                    if e1:  # by the pole theorem; a failure's difference is walked on first read
                        if not assoc_holds(puv, iterate):
                            order = max(0, -min(puv)[0])
                            failed[(u, v)] = partial(assoc_difference, puv, iterate, order)
                        break
                else:  # every outer exponent is 0: the sides are puv and iterate
                    if puv != iterate:
                        failed[(u, v)] = next(sparse_differences(puv, iterate))
            # an iterate with no product fails at its least exponent
            for key, iterate in iterates.items():
                failed[key] = (e := min(iterate), {}, iterate[e])
            for (u, v), diff in failed.items():
                assoc.setdefault((u, v), {})[w] = diff
                middle[(u, w)] = min(v, middle.get((u, w), v))
            if failed:
                by_w[w] = list(failed)
        self.profiles = {key: tuple(flat) for key, flat in profiles.items()}
        self.assoc_diffs = assoc
        self._pair_q = pair_q
        self._first_failing_middle = middle
        self._failing_pairs = by_w

    def products(self, w: int) -> dict:
        """{(u, v): Y(u,x1)Y(v,x2)w} for every pair of basis vectors whose product is nonzero.

        Scattered afresh on each call (scatter_products) and not kept, so a
        caller that decides one w at a time holds one w's products at a time.
        """
        return scatter_products(self.index, self.acting_columns, w, self.n)

    def _failures(self, u: int, v: int, q: Fraction):
        """(w, exponent) on each basis w where commutation fails, in increasing w."""
        flat = self.profiles.get((u, v), ())
        for w, profile in zip(flat[::2], flat[1::2]):
            # the least differing exponent is the first e_i whose q_i is not q
            for qe, e in zip(profile[::2], profile[1::2]):
                if qe != q:
                    yield w, e
                    break

    def _witness(self, u: int, v: int, w: int, diff, *half: str) -> Witness:
        """The witness at (*half, u, v, w) of a first difference (exponent, lhs, rhs)."""
        names = (*half, self.basis[u], self.basis[v], self.act_basis[w])
        return Witness(names, *diff, self.act_basis)

    def commutes(self, u: int, v: int, q: Fraction) -> bool:
        """Whether Y(u,x1)Y(v,x2)w = q Y(v,x2)Y(u,x1)w on every basis w; a dict read (_pair_q)."""
        return self._pair_q.get((u, v), q) == q

    def commutation_witness(self, u: int, v: int, q: Fraction) -> Witness | None:
        """The witness of the first item of commutation_failures, or None when (u, v) commutes.

        Its sides are built once per (u, v, q) and kept.
        """
        if self.commutes(u, v, q):
            return None
        if (u, v, q) not in self._first:
            self._first[(u, v, q)] = self._sides(u, v, q, *next(self._failures(u, v, q)))
        w, *diff = self._first[(u, v, q)]
        return self._witness(u, v, w, diff)

    def commutation_failures(self, u: int, v: int, q: Fraction):
        """(w, exponent, lhs, rhs) on each w where commutation fails, in increasing w; sparse.

        Lazy: each failure's sides are built when it is read, and a
        commuting (u, v, q) is not walked at all.
        """
        if self.commutes(u, v, q):
            return iter(())
        return (self._sides(u, v, q, *f) for f in self._failures(u, v, q))

    def _sides(self, u: int, v: int, q: Fraction, w: int, e) -> tuple:
        """(w, e, lhs, rhs) of the failure at (w, e) (mode_pair), or the kept first failure."""
        if (first := self._first.get((u, v, q))) is not None and first[0] == w:
            return first
        rhs = scale(q, mode_pair(self.index, v, u, w, e[::-1])) if q else {}
        return w, e, mode_pair(self.index, u, v, w, e), rhs

    def assoc_failure(self, u: int, v: int, w: int) -> tuple | None:
        """The first difference (exponent, lhs, rhs) of weak associativity on (u, v, w), sparse.

        A failing triple with an outer exponent keeps its product and
        iterate, and its difference is walked on first read (assoc_difference)
        at the least order where every power of x0+x2 is a polynomial.
        """
        failing = self.assoc_diffs.get((u, v), {})
        if callable(diff := failing.get(w)):
            diff = failing[w] = diff()
        return diff

    def assoc_witness(self, u: int, w: int, v: int | None = None) -> Witness | None:
        """Weak associativity of (u, v, w): None when it holds (at order 0), else its witness.

        With v None, uniform weak associativity of (u, w): the witness of the
        least failing middle v, or None when every v holds.
        """
        if v is None and (v := self._first_failing_middle.get((u, w))) is None:
            return None
        diff = self.assoc_failure(u, v, w)
        return None if diff is None else self._witness(u, v, w, diff)

    def assoc_failing_pairs(self, w: int) -> list:
        """The (u, v) for which (u, v, w) is not weakly associative."""
        return self._failing_pairs.get(w, [])

    def weak_assoc_failures(self, uniform: bool) -> list[tuple]:
        """The failing (u, w) of uniform weak associativity, or the failing (u, v, w); sorted.

        (u, w) fails uniformly when some middle v fails (assoc_witness).
        """
        if uniform:
            return sorted(self._first_failing_middle)
        return sorted((u, v, w) for (u, v), failing in self.assoc_diffs.items() for w in failing)

    def jacobi_witness(self, u: int, v: int, w: int, commutation: tuple | None) -> Witness | None:
        """The witness of a Jacobi-type identity on (u, v, w), or None when it holds.

        commutation is the first difference (exponent, lhs, rhs) of the
        product and the reversed side, or None when they agree.  The
        witness names the half that fails: commutation first, else weak
        associativity.
        """
        if commutation is not None:
            return self._witness(u, v, w, commutation, "commutation")
        diff = self.assoc_failure(u, v, w)
        return None if diff is None else self._witness(u, v, w, diff, "associativity")

    def jacobi_holds(self, u: int, v: int, q: Fraction) -> bool:
        """Whether (u, v) commutes for q and every (u, v, w) is weakly associative (check_jacobi)."""
        return self.commutes(u, v, q) and (u, v) not in self.assoc_diffs

    def jacobi_witnesses(self, u: int, v: int, q: Fraction, limit: int | None) -> dict:
        """{w: witness} of the q-Jacobi identity on (u, v), the first `limit` failing w in order.

        Every failing w when limit is None.  Only the first `limit`
        commutation failures (in increasing w) are read and their sides
        built: a w among the first `limit` failing w has fewer than `limit`
        commutation failures before it.
        """
        commutation = {f[0]: f[1:] for f in islice(self.commutation_failures(u, v, q), limit)}
        failing = sorted(commutation.keys() | self.assoc_diffs.get((u, v), {}).keys())
        return {w: self.jacobi_witness(u, v, w, commutation.get(w)) for w in failing[:limit]}


def pair_analysis(
    alg: AlgebraStructure, act: ModuleStructure | None = None
) -> PairAnalysis:
    """The pair analysis of alg acting on itself, or through the module act.

    It is built on first use and held by the acting structure for its
    lifetime, like its mode index.  A module with the algebra's basis and
    table (the adjoint) shares the algebra's analysis; a module's analysis
    is rebuilt if it is asked for under another algebra.
    """
    if act is None or act is alg:
        if alg._pairs is None:
            alg._pairs = PairAnalysis(alg, alg)
        return alg._pairs
    held = act._pairs
    if held is None or held.alg_index is not alg.mode_index or held.basis != alg.basis:
        adjoint = act.basis == alg.basis and act.mode_index == alg.mode_index
        held = act._pairs = pair_analysis(alg) if adjoint else PairAnalysis(alg, act)
    return held
