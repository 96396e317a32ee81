"""The pair walk the scatter walk of vertexcalc.pairs replaced, kept as its oracle.

`pair_products` builds, for each target basis vector w, the inner images
Y(v,x2)w once and then every outer product Y(u,x1)Y(v,x2)w with one
`outer_product` call per pair; `reference_records` decides each ordered
triple from those products and one `outer_iterate` call, exactly as
`PairAnalysis._records` did before the walk was scattered.  Its records must
equal the analysis's, profiles and first differences included.
"""

from vertexcalc.algebra import (
    assoc_sides,
    outer_iterate,
    outer_product,
    sparse_differences,
    sparse_modes,
)
from vertexcalc.linalg import ONE
from vertexcalc.pairs import commutation_profile


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


def reference_records(analysis) -> tuple[dict, dict]:
    """The (commute, assoc) records of a PairAnalysis, rebuilt by the per-pair walk."""
    commute: dict = {}
    assoc: dict = {}
    for w in range(analysis.dim):
        for (u, v), (prod, reverse, iterate) in pair_walk(
            analysis.alg_index, analysis.index, analysis.n, w
        ).items():
            profile = commutation_profile(prod, reverse)
            if profile:
                commute.setdefault((u, v), []).extend((w, profile))
            if prod or iterate:
                diff = next(sparse_differences(*assoc_sides(prod, iterate)), None)
                if diff is not None:
                    assoc.setdefault((u, v), {})[w] = diff
    return {key: tuple(flat) for key, flat in commute.items()}, assoc
