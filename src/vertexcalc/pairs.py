"""The pair analysis: every product Y(u,x1)Y(v,x2)w of basis vectors, built once per structure.

Locality, skew-symmetry, weak associativity, the q-Jacobi identity, the
associativity half of the Jacobi-like identity and the module checks all read
the same two-variable products of basis vectors.  A structure's
`PairAnalysis` (pair_analysis) builds each of them once, in one walk over the
target basis, with the sparse term kernel of vertexcalc.algebra.  It records
for which q each triple commutes (commutation_profile: every q, one rational,
or none, so one analysis serves every q) and the first difference of each
triple that is not weakly associative, and drops the products.  It is held by
the structure it acts through, like the mode index, and lives as long as the
structure.
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
    assoc_sides,
    d_columns,
    exp_sparse,
    outer_iterate,
    outer_product,
    scale,
    sparse_differences,
    sparse_modes,
)
from .linalg import ONE, ZERO, densify

if TYPE_CHECKING:
    from .modules import ModuleStructure


def solving_q(a: SparseVec, b: SparseVec) -> Fraction | None:
    """The one q with a = q b for a nonzero b, or None when no q solves it (or b is zero)."""
    if not b:
        return None
    if not a:
        return ZERO
    if a == b:
        return ONE
    k, c = next(iter(b.items()))
    q = a.get(k, ZERO) / c
    return q if q and a == scale(q, b) else None


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


def pair_products(index: ModeIndex, w_idx: int, n: int):
    """(u, v, Y(u,x1)Y(v,x2)w, Y(v,x1)Y(u,x2)w) for the unordered pairs {u, v} of acting basis vectors.

    index is the acting table's sparse image index; u and v range over the
    first n acting basis indices and w is a basis vector of the target.
    Each pair comes once, and only when one of its two products is nonzero.
    Each inner image Y(v,x2)w is built once and shared by every u; each
    outer product is the row-by-row sparse product of the mode table with
    the inner image's nonzero coordinates (Gustavson, ACM TOMS 4, 1978).
    """
    sw = ((w_idx, ONE),)
    inners = {}
    for v in range(n):
        inner = sparse_modes(index, ((v, ONE),), sw)
        if inner:
            inners[v] = inner
    for v, inner_v in inners.items():
        for u in range(n):
            inner_u = inners.get(u)
            if inner_u is not None and u > v:
                continue  # this pair comes with u and v exchanged
            puv = outer_product(index, ((u, ONE),), inner_v)
            pvu = outer_product(index, ((v, ONE),), inner_u) if inner_u else {}
            if puv or pvu:
                yield u, v, puv, pvu


class PairAnalysis:
    """Every product Y(u,x1)Y(v,x2)w of basis vectors, built once and read by every check.

    u and v range over the basis of `alg`, which also gives the iterates
    Y(Y(u,x0)v,x2)w; w ranges over the basis of `act`, the acting table
    (alg itself or a module).  On first use, one walk over w builds the
    products of all pairs (pair_products) and the iterates, records two
    things and drops the products:
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
    for every basis vector of alg.

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
    def _records(self) -> tuple[dict, dict]:
        alg_index, index = self.alg_index, self.index
        commute: dict = {}
        assoc: dict = {}
        shared: dict = {}  # one object per distinct profile

        def decide(u: int, v: int, w: int, prod: Terms, reverse: Terms) -> None:
            profile = commutation_profile(prod, reverse)
            if profile:
                commute.setdefault((u, v), []).extend((w, shared.setdefault(profile, profile)))
            uv = alg_index.get((u, v))
            iterate = outer_iterate(index, uv, ((w, ONE),)) if uv else {}
            if prod or iterate:
                diff = next(sparse_differences(*assoc_sides(prod, iterate)), None)
                if diff is not None:
                    assoc.setdefault((u, v), {})[w] = diff

        for w in range(self.dim):
            decided = set()
            for u, v, puv, pvu in pair_products(index, w, self.n):
                decide(u, v, w, puv, {(e1, e2): c for (e2, e1), c in pvu.items()})
                if u != v:
                    decide(v, u, w, pvu, {(e1, e2): c for (e2, e1), c in puv.items()})
                decided.update(((u, v), (v, u)))
            # both products vanish here, but Y(Y(u,x0)v,x2)w need not
            for u, v in alg_index.keys() - decided:
                decide(u, v, w, {}, {})
        return {key: tuple(flat) for key, flat in commute.items()}, assoc

    def commutes(self, u: int, v: int, q: Fraction) -> bool:
        """Whether Y(u,x1)Y(v,x2)w = q Y(v,x2)Y(u,x1)w on every basis w."""
        profiles = self._records[0].get((u, v), ())[1::2]
        return all(profile_exponent(profile, q) is None for profile in profiles)

    def commutation_failures(self, u: int, v: int, q: Fraction):
        """(w, exponent, lhs, rhs) on each basis w where commutation fails, in increasing w.

        The exponent is the least differing one, and lhs and rhs are dense.
        """
        index, dim = self.index, self.dim
        flat = self._records[0].get((u, v), ())
        for w, profile in zip(flat[::2], flat[1::2]):
            e = profile_exponent(profile, q)
            if e is not None:
                rhs = scale(q, mode_pair(index, v, u, w, e[::-1])) if q else {}
                yield w, e, densify(mode_pair(index, u, v, w, e), dim), densify(rhs, dim)

    def assoc_failing(self, u: int, v: int) -> dict:
        """{w: sparse first difference} of the triples (u, v, w) that are not weakly associative."""
        return self._records[1].get((u, v), {})

    def assoc_failure(self, u: int, v: int, w: int) -> tuple | None:
        """The first difference (exponent, lhs, rhs) of weak associativity on (u, v, w), dense."""
        diff = self._records[1].get((u, v), {}).get(w)
        if diff is None:
            return None
        e, a, b = diff
        return e, densify(a, self.dim), densify(b, self.dim)


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
