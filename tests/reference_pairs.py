"""The per-triple product kernel and the pair walk the scatter of vertexcalc.pairs replaced.

The kernel builds one product Y(u,x1)Y(v,x2)w (`product_sparse`, over
`outer_product`), its reversal (`reversed_sparse`), one commutation
comparison (`commutation_sparse`), one iterate Y(Y(u,x0)v,x2)w
(`iterate_sparse`, over `outer_iterate`) and one weak-associativity verdict
(`assoc_search`) per call, row by row through the acting table.  The
library built its two-variable products this way before every product came
from the scatter; it is kept here, unchanged, as the scatter's oracle.

`pair_products` builds, for each target basis vector w, the inner images
Y(v,x2)w once and then every outer product Y(u,x1)Y(v,x2)w with one
`outer_product` call per pair; `reference_records` decides each ordered
triple from those products and one `outer_iterate` call, exactly as
`PairAnalysis` did before the walk was scattered.  Its records must
equal the analysis's, profiles and first differences included.  Each profile
comes from `reference_profile`, the exponent-by-exponent loop the library ran
on every pair before it decided empty and equal sides in closed form, kept
here unchanged with its `solving_q`.

`assoc_sides` expands both sides of weak associativity in full at the order
where both are polynomials in x0+x2, with `binom_row`, as the library did
before `pairs.assoc_holds` and `pairs.assoc_difference` decided the
relation by its poles and walked it by x0 exponent; it is their oracle.
`resolved_records` reads an analysis's records with each failure through
`assoc_failure`, the form that is compared with `reference_records`.
"""

from __future__ import annotations

from fractions import Fraction

from reference_tables import dense_witness, term_differences

from vertexcalc.algebra import (
    AlgebraStructure,
    ModeIndex,
    Terms,
    add_term,
    scale,
    sparse_differences,
    sparse_modes,
)
from vertexcalc.linalg import ONE, SparseVec, Support, Vec, integral
from vertexcalc.modules import ModuleStructure
from vertexcalc.report import Witness

# -- the per-triple kernel ---------------------------------------------------------


def binom_row(m: int) -> list[int]:
    """[binom(m, 0), ..., binom(m, m)] for m >= 0, by c(i+1) = c(i) (m-i) / (i+1): O(m) products."""
    row = [1]
    for i in range(m):
        row.append(row[-1] * (m - i) // (i + 1))
    return row


def assoc_sides(prod: Terms, iterate: Terms) -> tuple[Terms, Terms]:
    """Both sides of weak associativity at the order where both are Laurent polynomials.

    prod is Y(u,x1)Y(v,x2)w and iterate is Y(Y(u,x0)v,x2)w.  The relation
    (x0+x2)^l Y(u,x0+x2)Y(v,x2)w = (x0+x2)^l Y(Y(u,x0)v,x2)w expands
    (x0+x2)^m in nonnegative powers of x2, so both sides live in
    Q[x0, x0^-1]((x2)), where x0+x2 is a unit.  The sides are taken at
    L = max(0, 1 + the largest outer mode n1 of prod), where every
    (x0+x2)^(-n1-1+L) is a polynomial, so one comparison of their
    (x0, x2)-terms decides the relation exactly.  The library expanded both
    sides this way, in full, with linalg.binom_row, before pairs.assoc_holds
    and pairs.assoc_difference walked them by x0 exponent.
    """
    order = max([0] + [-e1 for e1, _e2 in prod])
    lhs: Terms = {}
    for (e1, e2), c in prod.items():
        for i, b in enumerate(binom_row(e1 + order)):
            add_term(lhs, (e1 + order - i, e2 + i), b, c.items())
    rhs: Terms = {}
    row = binom_row(order)
    for (e0, e2), c in iterate.items():
        for i, b in enumerate(row):
            add_term(rhs, (e0 + order - i, e2 + i), b, c.items())
    return lhs, rhs



def scale_terms(q, terms: Terms) -> Terms:
    """q times a term dictionary; q = 0 leaves no term."""
    return {e: scale(q, v) for e, v in terms.items()} if q else {}


def outer_product(index: ModeIndex, su: Support, inner: dict[int, SparseVec]) -> Terms:
    """Y(u, x1) applied to every mode of inner = Y(v, x2)w, keyed by (x1, x2)-exponent."""
    return {
        (-n1 - 1, -n2 - 1): outer
        for n2, img in inner.items()
        for n1, outer in sparse_modes(index, su, img.items()).items()
    }


def product_sparse(
    act: AlgebraStructure | ModuleStructure, su: Support, sv: Support, sw: Support
) -> Terms:
    """Y(u, x1) Y(v, x2) w as {(x1-exponent, x2-exponent): {k: c}}, from nonzero (k, c) pairs.

    `act` is the acting table: an algebra acting on itself, or a module.
    """
    return outer_product(act.mode_index, su, sparse_modes(act.mode_index, sv, sw))


def reversed_sparse(
    act: AlgebraStructure | ModuleStructure, su: Support, sv: Support, sw: Support
) -> Terms:
    """Y(v, x2) Y(u, x1) w on the (x1, x2) exponent grid of product_sparse(act, su, sv, sw)."""
    return {(e1, e2): c for (e2, e1), c in product_sparse(act, sv, su, sw).items()}


def commutation_sparse(
    act: AlgebraStructure | ModuleStructure, su: Support, sv: Support, sw: Support, q: Fraction
) -> list[tuple[tuple[int, int], Vec, Vec]]:
    """term_differences of Y(u,x1)Y(v,x2)w against q Y(v,x2)Y(u,x1)w."""
    rhs = scale_terms(q, reversed_sparse(act, su, sv, sw))
    return term_differences(product_sparse(act, su, sv, sw), rhs, act.dim)


def iterate_sparse(
    alg: AlgebraStructure,
    act: AlgebraStructure | ModuleStructure,
    su: Support,
    sv: Support,
    sw: Support,
) -> Terms:
    """Y_act(Y(u, x0) v, x2) w as {(x0-exponent, x2-exponent): {k: c}}.

    u_n v is taken in alg and acts on w through act.
    """
    uv = sparse_modes(alg.mode_index, su, sv)
    return outer_iterate(act.mode_index, {n: v.items() for n, v in uv.items()}, sw)


def outer_iterate(index: ModeIndex, uv: dict[int, Support], sw: Support) -> Terms:
    """Y(u_n v, x2) w for every mode n of uv = Y(u, x0)v, keyed by (x0, x2)-exponent."""
    return {
        (-n0 - 1, -n2 - 1): out
        for n0, entries in uv.items()
        for n2, out in sparse_modes(index, entries, sw).items()
    }


def assoc_search(
    alg: AlgebraStructure,
    act: AlgebraStructure | ModuleStructure,
    su: Support,
    sv: Support,
    sw: Support,
    names: tuple,
) -> Witness | None:
    """Weak associativity of u, v in alg acting through act on w, decided once.

    The two sides are compared at the order of assoc_sides: None when they
    agree (the relation holds at order 0), else the witness at the first
    differing (x0, x2)-exponent, its dense sides read through support.  u, v
    and w are given by their nonzero (k, c) pairs.
    """
    lhs, rhs = assoc_sides(product_sparse(act, su, sv, sw), iterate_sparse(alg, act, su, sv, sw))
    diffs = term_differences(lhs, rhs, act.dim)
    return dense_witness(names, diffs[0], act.basis) if diffs else None


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


def reference_profile(lhs: Terms, rhs: Terms) -> tuple:
    """The commutation profile of lhs = q rhs, walked exponent by exponent in increasing order.

    Each exponent e is solved by every q (both sides vanish there), by one
    q_e, or by none (q_e is None).  The profile is (q_1, e_1) for the least
    exponent e_1, followed by (q_2, e_2) for the least exponent that q_1
    leaves unsolved when q_1 is not None.
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


# -- the per-pair walk ------------------------------------------------------------


def pair_products(index, w_idx: int, n: int):
    """(u, v, Y(u,x1)Y(v,x2)w, Y(v,x1)Y(u,x2)w) for the unordered pairs {u, v} of acting vectors.

    index is the acting table's sparse image index; u and v range over the
    first n acting basis indices and w is a basis vector of the target.
    Each pair comes once, and only when one of its two products is nonzero.
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


def pair_walk(alg_index, index, n: int, w: int):
    """{(u, v): (product, reversed product, iterate)} on w, for each ordered pair the walk decides."""
    out = {}
    for u, v, puv, pvu in pair_products(index, w, n):
        swap_uv = {(e1, e2): c for (e2, e1), c in pvu.items()}
        swap_vu = {(e1, e2): c for (e2, e1), c in puv.items()}
        out[(u, v)] = (puv, swap_uv)
        out[(v, u)] = (pvu, swap_vu)
    # both products vanish on the pairs not yet seen, but Y(Y(u,x0)v,x2)w need not
    for key in alg_index.keys() - out.keys():
        out[key] = ({}, {})
    result = {}
    for (u, v), (prod, reverse) in out.items():
        uv = alg_index.get((u, v))
        iterate = outer_iterate(index, uv, ((w, ONE),)) if uv else {}
        result[(u, v)] = (prod, reverse, iterate)
    return result


def resolved_records(analysis) -> tuple[dict, dict]:
    """The (profiles, assoc_diffs) of a PairAnalysis, each failure read through assoc_failure.

    A triple failed by a pole in x1 holds its difference unbuilt until it
    is read; this is the form reference_records compares with.
    """
    return analysis.profiles, {
        (u, v): {w: analysis.assoc_failure(u, v, w) for w in failing}
        for (u, v), failing in analysis.assoc_diffs.items()
    }


def reference_records(analysis) -> tuple[dict, dict]:
    """The (commute, assoc) records of a PairAnalysis, rebuilt by the per-pair walk."""
    commute: dict = {}
    assoc: dict = {}
    for w in range(analysis.dim):
        for (u, v), (prod, reverse, iterate) in pair_walk(
            analysis.alg_index, analysis.index, analysis.n, w
        ).items():
            profile = reference_profile(prod, reverse)
            if profile:
                commute.setdefault((u, v), []).extend((w, profile))
            if prod or iterate:
                diff = next(sparse_differences(*assoc_sides(prod, iterate)), None)
                if diff is not None:
                    assoc.setdefault((u, v), {})[w] = diff
    return {key: tuple(flat) for key, flat in commute.items()}, assoc
