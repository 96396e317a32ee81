"""The dense builders that vertexcalc.construct replaced with the sparse kernel.

`mult_vec` is the dense associative product, `validate` the dense identity,
Leibniz and nilpotency checks on it, and `from_assoc_with_derivation` the
factorial loop that built e^{xd} e_i by dense matrix-vector products.
`validate_action` is the dense automorphism check through `mode_map`,
`cross_product` builds the twisted table Y(u,x)g(v) densely and turns it
sparse again, and `rmap_cross_abelian` applies each group element to unit
vectors with `mat_vec`.  The library built its examples this way before the
builders moved onto `sparse_modes`, `exp_sparse` and sparse columns; the
code is kept here, unchanged, as their oracle, except that
`rmap_cross_abelian` keys its images by basis pairs since the R-map became
an endomorphism of V ⊗ V, that the dense tables reach the structures
through `index_from_dense` since they store only their sparse index, that
`mult_vec` densifies the sparse table cells of AssocAlgebraData, and that
the Leibniz message prints its two sides as the library does.  `assoc_data`
builds AssocAlgebraData from a dense table for the tests that write one.
"""

from __future__ import annotations

from fractions import Fraction

from reference_tables import index_from_dense

from vertexcalc.algebra import AlgebraStructure
from vertexcalc.construct import AssocAlgebraData, GroupActionData, RMap, table_tensor
from vertexcalc.errors import MalformedStructure, NonNilpotentD, NotADerivation, NotAnAutomorphism
from vertexcalc.linalg import (
    Vec,
    densify,
    is_zero_vec,
    mat_vec,
    nilpotency_index,
    support,
    unit_vec,
    vec_add,
    vec_scale,
    zero_vec,
)
from vertexcalc.report import combination


def assoc_data(basis, table, identity, derivation) -> AssocAlgebraData:
    """AssocAlgebraData from a dense table {(i, j): vector}, each cell read through support."""
    cells = {key: dict(support(v)) for key, v in table.items()}
    return AssocAlgebraData(basis, cells, identity, derivation)


def mult_vec(data: AssocAlgebraData, a: Vec, b: Vec) -> Vec:
    out = zero_vec(data.dim)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb == 0:
                continue
            t = data.table.get((i, j))
            if t is not None:
                out = vec_add(out, vec_scale(ca * cb, densify(t, data.dim)))
    return out


def validate(data: AssocAlgebraData) -> None:
    dim = data.dim
    e = unit_vec(dim, data.identity)
    for i in range(dim):
        b = unit_vec(dim, i)
        if mult_vec(data, e, b) != b or mult_vec(data, b, e) != b:
            raise MalformedStructure(f"identity axiom fails on {data.basis[i]}")
    # Leibniz rule on every basis pair
    for i in range(dim):
        for j in range(dim):
            a, b = unit_vec(dim, i), unit_vec(dim, j)
            lhs = mat_vec(data.derivation, mult_vec(data, a, b))
            rhs = vec_add(
                mult_vec(data, mat_vec(data.derivation, a), b),
                mult_vec(data, a, mat_vec(data.derivation, b)),
            )
            if lhs != rhs:
                sides = (combination(dict(support(v)), data.basis) for v in (lhs, rhs))
                raise NotADerivation(
                    f"Leibniz fails on ({data.basis[i]}, {data.basis[j]}): " + " != ".join(sides)
                )
    if nilpotency_index(data.derivation) is None:
        raise NonNilpotentD("derivation is not nilpotent")


def from_assoc_with_derivation(data: AssocAlgebraData) -> AlgebraStructure:
    validate(data)
    dim = data.dim
    y_data: dict[tuple[int, int], dict[int, Vec]] = {}
    for i in range(dim):
        powers: list[Vec] = []
        cur = unit_vec(dim, i)
        fact = 1
        m = 0
        while not is_zero_vec(cur):
            powers.append(vec_scale(Fraction(1, fact), cur))
            cur = mat_vec(data.derivation, cur)
            m += 1
            fact *= m
            if m > dim + 1:
                raise NonNilpotentD("derivation power series did not terminate")
        for j in range(dim):
            modes: dict[int, Vec] = {}
            for mm, dv in enumerate(powers):
                w = mult_vec(data, dv, unit_vec(dim, j))
                if not is_zero_vec(w):
                    modes[-1 - mm] = w
            if modes:
                y_data[(i, j)] = modes
    return AlgebraStructure(
        basis=data.basis,
        vacuum=data.identity,
        mode_index=index_from_dense(y_data, dim),
        meta={"source": "assoc-with-derivation"},
    )


def validate_action(act: GroupActionData, alg: AlgebraStructure) -> None:
    for g, m in act.action.items():
        if mat_vec(m, alg.unit(alg.vacuum)) != alg.unit(alg.vacuum):
            raise NotAnAutomorphism(f"{act.elements[g]} moves the vacuum")
        for i in range(alg.dim):
            for j in range(alg.dim):
                gi = mat_vec(m, alg.unit(i))
                gj = mat_vec(m, alg.unit(j))
                lhs = alg.mode_map(gi, gj)
                rhs = {
                    n: mat_vec(m, w)
                    for n, w in alg.mode_map(alg.unit(i), alg.unit(j)).items()
                }
                keys = set(lhs) | set(rhs)
                for n in keys:
                    if lhs.get(n, zero_vec(alg.dim)) != rhs.get(n, zero_vec(alg.dim)):
                        raise NotAnAutomorphism(
                            f"{act.elements[g]} fails on "
                            f"({alg.basis[i]})_{n}({alg.basis[j]})"
                        )


def cross_product(alg: AlgebraStructure, act: GroupActionData) -> AlgebraStructure:
    act.validate_group(alg.dim)
    validate_action(act, alg)
    ng = len(act.elements)
    dim = alg.dim
    # for each g: the table (u, v) -> Y(u, x)g(v) tensor left multiplication by g
    index = {}
    for g in range(ng):
        twisted = {
            (i, j): alg.mode_map(alg.unit(i), mat_vec(act.action[g], alg.unit(j)))
            for i in range(dim)
            for j in range(dim)
        }
        left = {(g, h): {-1: [(act.table[(g, h)], 1)]} for h in range(ng)}
        index.update(table_tensor(index_from_dense(twisted, dim), left, ng, dim, ng))
    return AlgebraStructure(
        basis=tuple(f"{v}|{g}" for v in alg.basis for g in act.elements),
        vacuum=alg.vacuum * ng + act.identity,
        mode_index=index,
        assoc_variant="weak",
        meta={
            "source": "cross-product",
            "base_dim": dim,
            "group_order": ng,
            "group_abelian": act.is_abelian(),
        },
    )


def rmap_cross_abelian(base_dim: int, act: GroupActionData) -> RMap:
    act.validate_group(base_dim)
    if not act.is_abelian():
        raise MalformedStructure("the reduced R-map formula requires an abelian group")
    ng = len(act.elements)
    dim = base_dim * ng

    def unpack(k: int) -> tuple[int, int]:
        return divmod(k, ng)

    entries: dict[tuple[int, int], list[tuple[Fraction, tuple[int, int]]]] = {}
    for b1 in range(dim):  # holds v g2
        v_idx, g2 = unpack(b1)
        for b2 in range(dim):  # holds u g1
            u_idx, g1 = unpack(b2)
            m1 = act.action[g1]
            m2inv = act.action[act.inverse(g2)]
            gv = mat_vec(m1, unit_vec(base_dim, v_idx))
            gu = mat_vec(m2inv, unit_vec(base_dim, u_idx))
            terms: list[tuple[Fraction, tuple[int, int]]] = []
            for r1, c1 in enumerate(gv):
                if c1 == 0:
                    continue
                for r2, c2 in enumerate(gu):
                    if c2 != 0:
                        terms.append((c1 * c2, (r1 * ng + g2, r2 * ng + g1)))
            trivial = terms == [(Fraction(1), (b1, b2))]
            if trivial:
                continue
            entries[(b1, b2)] = terms
    return RMap(dim=dim, entries=entries)
