"""The pair analysis: every product Y(u,x1)Y(v,x2)w of basis vectors, built once per structure.

Locality, skew-symmetry, weak associativity, the q-Jacobi identity, the
associativity half of the Jacobi-like identity and the module checks all read
the same two-variable products of basis vectors.  A structure's
`PairAnalysis` (pair_analysis) builds each nonzero one once, in one walk over
the target basis that scatters coordinates through sparse columns
(scatter_products, scatter_iterates), so it costs the nonzero terms, not a
lookup per pair.  It records for which q each triple commutes
(commutation_profile: every q, one rational, or none, so one analysis serves
every q) and the first difference of each triple that is not weakly
associative, and drops the products.  The commutation half of the Jacobi-like
identity routes its reversed side through an R-map, so no profile decides it:
it reads the same scatter again, one w at a time (PairAnalysis.products).  The
analysis is held by the structure it acts through, like the mode index, and
lives as long as the structure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .algebra import (
    AlgebraStructure,
    ModeIndex,
    SparseVec,
    Terms,
    add_term,
    assoc_sides,
    d_columns,
    exp_sparse,
    scale,
    sparse_differences,
    sparse_modes,
)
from .linalg import ONE, integral

if TYPE_CHECKING:
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


def commutation_profile(lhs: Terms, rhs: Terms) -> tuple:
    """For which q the term dictionaries satisfy lhs = q rhs, and where each q fails first.

    Each exponent e is solved by every q (both sides vanish there), by one
    q_e, or by none (q_e is None).  The profile is (q_1, e_1) for the least
    exponent e_1, followed by (q_2, e_2) for the least exponent that q_1
    leaves unsolved when q_1 is not None.  So the relation holds for every q
    when the profile is empty, for exactly q_1 when it is (q_1, e_1) with
    q_1 not None, and for no q otherwise; and for each q it fails for, its
    least differing exponent is the first e_i whose q_i is not q
    (profile_exponent).
    """
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


def profile_exponent(profile: tuple, q: Fraction):
    """The least exponent at which lhs = q rhs fails, from its commutation_profile; None if it holds."""
    for qe, e in zip(profile[::2], profile[1::2]):
        if qe != q:
            return e
    return None


def mode_pair(index: ModeIndex, u: int, v: int, w: int, e) -> SparseVec:
    """The (x1, x2)-exponent e coefficient u_n1 v_n2 w of Y(u,x1)Y(v,x2)w, for basis vectors.

    Two lookups in the table's sparse image index, not the whole product:
    this rebuilds one side of a witness whose exponent is already known.
    """
    inner = index.get((v, w), {}).get(-e[1] - 1)
    if inner is None:
        return {}
    return sparse_modes(index, ((u, ONE),), inner).get(-e[0] - 1, {})


def acting_columns(index: ModeIndex, n: int) -> dict[int, list]:
    """The acting table by target coordinate: for each k, the (u, {n: image}) with u_n e_k nonzero.

    u ranges over the first n acting basis indices.  This is the column
    layout of the sparse product (Gustavson, ACM TOMS 4, 1978): a
    coordinate c e_k of Y(v,x2)w is pushed through column k once, and lands
    on every u whose modes read e_k.
    """
    cols: dict[int, list] = {}
    for (u, k), modes in index.items():
        if 0 <= u < n:
            cols.setdefault(k, []).append((u, modes))
    return cols


def iterate_sources(alg_index: ModeIndex) -> dict[int, list]:
    """The algebra's products by coordinate: for each k, every (u, v, -n0-1, c) with c e_k in u_n0 v."""
    sources: dict[int, list] = {}
    for (u, v), modes in alg_index.items():
        for n0, img in modes.items():
            for k, c in img:
                sources.setdefault(k, []).append((u, v, -n0 - 1, c))
    return sources


def _nonzero(acc: dict) -> dict:
    """acc without the exponents whose entries all cancelled, and without the keys left empty."""
    out = {}
    for key, terms in acc.items():
        kept = {e: x for e, x in terms.items() if x}
        if kept:
            out[key] = kept
    return out


def scatter_products(index: ModeIndex, cols: dict[int, list], w: int, n: int) -> dict:
    """{(u, v): Y(u,x1)Y(v,x2)w} for every pair of acting basis vectors whose product is nonzero.

    Each coordinate c e_k of each mode of Y(v,x2)w is pushed through its
    column cols[k] (acting_columns), so the walk costs the nonzero terms of
    the products, not a mode lookup per pair.
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
                    terms = acc.setdefault((u, v), {})
                    for n1, out in modes.items():
                        add_term(terms, (-n1 - 1, e2), c, out)
    return _nonzero(acc)


def scatter_iterates(index: ModeIndex, sources: dict[int, list], w: int) -> dict:
    """{(u, v): Y(Y(u,x0)v,x2)w} for every pair whose iterate is nonzero.

    Each e_k with Y(e_k,x2)w nonzero is pushed through the products that
    contain it (iterate_sources), keyed by (x0-exponent, x2-exponent).
    """
    acc: dict = {}
    for k, containing in sources.items():
        modes = index.get((k, w))
        if modes is None:
            continue
        for u, v, e0, c in containing:
            terms = acc.setdefault((u, v), {})
            for n2, out in modes.items():
                add_term(terms, (e0, -n2 - 1), c, out)
    return _nonzero(acc)


class PairAnalysis:
    """Every product Y(u,x1)Y(v,x2)w of basis vectors, built once and read by every check.

    u and v range over the basis of `alg`, which also gives the iterates
    Y(Y(u,x0)v,x2)w; w ranges over the basis of `act`, the acting table
    (alg itself or a module).  On first use, one walk over w builds each
    w's nonzero products and iterates, decides only the pairs with a
    nonzero product, reversed product or iterate (every other pair holds
    both relations on that w), records two things and drops the products:
    - commutation: for each ordered (u, v) and each w on which
      Y(u,x1)Y(v,x2)w = q Y(v,x2)Y(u,x1)w does not hold for every q, its
      commutation_profile.  A profile names the q it holds for, if any, so
      one analysis serves every q;
    - weak associativity: for each triple that fails assoc_sides, its
      first difference (exponent, lhs, rhs).
    It keeps no product: a profile is at most two (q, exponent) pairs, and
    only a failing triple keeps sparse vectors, its first difference.  A
    commutation witness is rebuilt when a check asks for it, from the two
    coefficients at its exponent (mode_pair).  `exp_images` holds e^{xD} e_k
    for every basis vector of alg, failing_middle reads the least failing
    middle argument of each (u, w) off the failing triples, and products(w)
    scatters one w's products again for a relation no profile decides.

    The analysis keeps the two tables' sparse indexes, not the structures,
    so a structure that holds its analysis is not part of a reference
    cycle and is freed as soon as it is dropped.
    """

    def __init__(self, alg: AlgebraStructure, act: AlgebraStructure | ModuleStructure):
        self.alg_index = alg.mode_index
        self.index = act.mode_index
        self.n = alg.dim
        self.dim = act.dim
        self.cols = d_columns(alg)

    @cached_property
    def exp_images(self) -> list[Terms]:
        return [exp_sparse(self.cols, ((k, ONE),)) for k in range(self.n)]

    @cached_property
    def acting_columns(self) -> dict[int, list]:
        """The acting table's column index (acting_columns), shared by every scatter."""
        return acting_columns(self.index, self.n)

    def products(self, w: int) -> dict:
        """{(u, v): Y(u,x1)Y(v,x2)w} for every pair of basis vectors whose product is nonzero.

        Scattered afresh on each call (scatter_products) and not kept, so a
        caller that decides one w at a time holds one w's products at a time.
        """
        return scatter_products(self.index, self.acting_columns, w, self.n)

    @cached_property
    def _records(self) -> tuple[dict, dict]:
        sources = iterate_sources(self.alg_index)
        commute: dict = {}
        assoc: dict = {}
        shared: dict = {}  # one object per distinct profile
        for w in range(self.dim):
            prods = self.products(w)
            iterates = scatter_iterates(self.index, sources, w)
            # every other pair has a zero product, reversed product and iterate
            for u, v in prods.keys() | iterates.keys() | {(v, u) for u, v in prods}:
                prod = prods.get((u, v), {})
                reverse = {(e1, e2): c for (e2, e1), c in prods.get((v, u), {}).items()}
                profile = commutation_profile(prod, reverse)
                if profile:
                    commute.setdefault((u, v), []).extend((w, shared.setdefault(profile, profile)))
                iterate = iterates.get((u, v), {})
                if prod or iterate:
                    diff = next(sparse_differences(*assoc_sides(prod, iterate)), None)
                    if diff is not None:
                        assoc.setdefault((u, v), {})[w] = diff
        return {key: tuple(flat) for key, flat in commute.items()}, assoc

    @cached_property
    def _first_failing_middle(self) -> dict:
        first: dict = {}
        for (u, v), failing in sorted(self._records[1].items()):
            for w in failing:
                first.setdefault((u, w), v)
        return first

    def commutes(self, u: int, v: int, q: Fraction) -> bool:
        """Whether Y(u,x1)Y(v,x2)w = q Y(v,x2)Y(u,x1)w on every basis w."""
        profiles = self._records[0].get((u, v), ())[1::2]
        return all(profile_exponent(profile, q) is None for profile in profiles)

    def commutation_failures(self, u: int, v: int, q: Fraction):
        """(w, exponent, lhs, rhs) on each basis w where commutation fails, in increasing w.

        The exponent is the least differing one, and lhs and rhs are sparse.
        """
        index = self.index
        flat = self._records[0].get((u, v), ())
        for w, profile in zip(flat[::2], flat[1::2]):
            e = profile_exponent(profile, q)
            if e is not None:
                rhs = scale(q, mode_pair(index, v, u, w, e[::-1])) if q else {}
                yield w, e, mode_pair(index, u, v, w, e), rhs

    def assoc_failing(self, u: int, v: int) -> dict:
        """{w: sparse first difference} of the triples (u, v, w) that are not weakly associative."""
        return self._records[1].get((u, v), {})

    def failing_middle(self, u: int, w: int) -> int | None:
        """The least v for which (u, v, w) is not weakly associative, or None when every v holds."""
        return self._first_failing_middle.get((u, w))

    def assoc_failure(self, u: int, v: int, w: int) -> tuple | None:
        """The first difference (exponent, lhs, rhs) of weak associativity on (u, v, w), sparse."""
        return self._records[1].get((u, v), {}).get(w)


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
    if held is None or held.alg_index is not alg.mode_index:
        adjoint = act.basis == alg.basis and act.mode_index == alg.mode_index
        held = act._pairs = pair_analysis(alg) if adjoint else PairAnalysis(alg, act)
    return held
