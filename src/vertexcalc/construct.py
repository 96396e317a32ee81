"""Builders that produce vertex structures from classical input data.

Each builder validates its input invariants (Leibniz rule, cocycle identity,
automorphism property, ...) before producing an AlgebraStructure, and each
output is meant to pass validate_structure.  The R-map checker at the bottom
verifies the Jacobi-like identity whose reversed-product term is routed
through a fixed linear map on the triple tensor space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct

from .algebra import AlgebraStructure, add_term, jacobi_witness, reversed_product_terms
from .errors import (
    CocycleInvalid,
    GradingInvalid,
    MalformedStructure,
    NonNilpotentD,
    NotADerivation,
    NotAnAutomorphism,
)
from .linalg import (
    Mat,
    Vec,
    is_zero_vec,
    mat_vec,
    nilpotency_index,
    unit_vec,
    vec_add,
    vec_scale,
    zero_vec,
)
from .report import CheckReport


# ---------------------------------------------------------------------------
# associative algebras with a derivation


@dataclass
class AssocAlgebraData:
    """Multiplication table, identity index, and a nilpotent derivation."""

    basis: tuple[str, ...]
    table: dict[tuple[int, int], Vec]  # (i, j) -> e_i * e_j
    identity: int
    derivation: Mat

    def __post_init__(self):
        self.basis = tuple(self.basis)
        dim = len(self.basis)
        self.table = {
            (i, j): tuple(Fraction(x) for x in v) for (i, j), v in self.table.items()
        }
        for (i, j), v in self.table.items():
            if not (0 <= i < dim and 0 <= j < dim) or len(v) != dim:
                raise MalformedStructure(f"bad table entry at ({i},{j})")
        self.derivation = tuple(tuple(Fraction(x) for x in row) for row in self.derivation)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def mult_vec(self, a: Vec, b: Vec) -> Vec:
        out = zero_vec(self.dim)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb == 0:
                    continue
                t = self.table.get((i, j))
                if t is not None:
                    out = vec_add(out, vec_scale(ca * cb, t))
        return out

    def validate(self) -> None:
        dim = self.dim
        e = unit_vec(dim, self.identity)
        for i in range(dim):
            b = unit_vec(dim, i)
            if self.mult_vec(e, b) != b or self.mult_vec(b, e) != b:
                raise MalformedStructure(f"identity axiom fails on {self.basis[i]}")
        # Leibniz rule on every basis pair
        for i in range(dim):
            for j in range(dim):
                a, b = unit_vec(dim, i), unit_vec(dim, j)
                lhs = mat_vec(self.derivation, self.mult_vec(a, b))
                rhs = vec_add(
                    self.mult_vec(mat_vec(self.derivation, a), b),
                    self.mult_vec(a, mat_vec(self.derivation, b)),
                )
                if lhs != rhs:
                    raise NotADerivation(
                        f"Leibniz fails on ({self.basis[i]}, {self.basis[j]}): "
                        f"{lhs} != {rhs}"
                    )
        if nilpotency_index(self.derivation) is None:
            raise NonNilpotentD("derivation is not nilpotent")


def from_assoc_with_derivation(data: AssocAlgebraData) -> AlgebraStructure:
    """Vertex structure Y(a,x)b = (e^{xd} a) b on an associative algebra.

    The mode products are (e_i)_(-1-m) e_j = (d^m e_i) e_j / m!; weak
    associativity holds with order 0 because e^{xd} is an algebra
    automorphism.
    """
    data.validate()
    dim = data.dim
    y_data: dict[tuple[int, int], dict[int, Vec]] = {}
    for i in range(dim):
        powers: list[Vec] = []
        cur = unit_vec(dim, i)
        fact = Fraction(1)
        m = 0
        while not is_zero_vec(cur):
            powers.append(vec_scale(1 / fact, cur))
            cur = mat_vec(data.derivation, cur)
            m += 1
            fact *= m
            if m > dim + 1:
                raise NonNilpotentD("derivation power series did not terminate")
        for j in range(dim):
            modes: dict[int, Vec] = {}
            for mm, dv in enumerate(powers):
                w = data.mult_vec(dv, unit_vec(dim, j))
                if not is_zero_vec(w):
                    modes[-1 - mm] = w
            if modes:
                y_data[(i, j)] = modes
    return AlgebraStructure(
        basis=data.basis,
        vacuum=data.identity,
        y_data=y_data,
        meta={"source": "assoc-with-derivation"},
    )


class _MatrixBasis:
    """The adapted basis (I, matrix units except Enn) of rational n x n matrices.

    The identity matrix must be a basis vector because every structure keeps
    its vacuum at a basis index; Enn is recovered as I minus the other
    diagonal units.
    """

    def __init__(self, n: int):
        self.n = n
        if n == 1:
            self.names: tuple[str, ...] = ("one",)
            self.units: list[tuple[int, int]] = []
        else:
            self.units = [
                (i, j) for i in range(n) for j in range(n) if (i, j) != (n - 1, n - 1)
            ]
            self.names = ("one",) + tuple(f"E{i+1}{j+1}" for (i, j) in self.units)

    @property
    def dim(self) -> int:
        return len(self.names)

    def entries(self, idx: int) -> dict[tuple[int, int], Fraction]:
        if idx == 0:
            return {(i, i): Fraction(1) for i in range(self.n)}
        i, j = self.units[idx - 1]
        return {(i, j): Fraction(1)}

    def to_coords(self, entries: dict[tuple[int, int], Fraction]) -> Vec:
        last = entries.get((self.n - 1, self.n - 1), Fraction(0))
        coords = [last]
        for i, j in self.units:
            val = entries.get((i, j), Fraction(0))
            if i == j:
                val -= last
            coords.append(val)
        return tuple(coords)

    @staticmethod
    def mult(
        e1: dict[tuple[int, int], Fraction], e2: dict[tuple[int, int], Fraction]
    ) -> dict[tuple[int, int], Fraction]:
        out: dict[tuple[int, int], Fraction] = {}
        for (a, b), x in e1.items():
            for (c, d), y in e2.items():
                if b == c:
                    out[(a, d)] = out.get((a, d), Fraction(0)) + x * y
        return {k: v for k, v in out.items() if v != 0}


def full_matrix_algebra(n: int) -> AlgebraStructure:
    """Rational n x n matrices as a structure with constant vertex operators."""
    mb = _MatrixBasis(n)
    table = {
        (i, j): mb.to_coords(mb.mult(mb.entries(i), mb.entries(j)))
        for i in range(mb.dim)
        for j in range(mb.dim)
    }
    data = AssocAlgebraData(
        basis=mb.names,
        table=table,
        identity=0,
        derivation=tuple(tuple(Fraction(0) for _ in range(mb.dim)) for _ in range(mb.dim)),
    )
    return from_assoc_with_derivation(data)


# ---------------------------------------------------------------------------
# tensor products


def tensor_product(factors: list[AlgebraStructure]) -> AlgebraStructure:
    """Tensor product structure with mode convolution and tensor vacuum."""
    if not factors:
        raise MalformedStructure("tensor product of no factors")
    out = factors[0]
    for nxt in factors[1:]:
        out = _tensor_pair(out, nxt)
    return out


def _tensor_pair(a: AlgebraStructure, b: AlgebraStructure) -> AlgebraStructure:
    basis = tuple(f"{x}*{y}" for x in a.basis for y in b.basis)
    dim_a, dim_b = a.dim, b.dim

    def pack(ia: int, ib: int) -> int:
        return ia * dim_b + ib

    y_data: dict[tuple[int, int], dict[int, Vec]] = {}
    for ia in range(dim_a):
        for ja in range(dim_a):
            modes_a = a.y_data.get((ia, ja))
            if not modes_a:
                continue
            for ib in range(dim_b):
                for jb in range(dim_b):
                    modes_b = b.y_data.get((ib, jb))
                    if not modes_b:
                        continue
                    out_modes: dict[int, Vec] = {}
                    # x-exponents add: (-na-1) + (-nb-1) = -n-1 gives
                    # n = na + nb + 1
                    for na, va in modes_a.items():
                        for nb, vb in modes_b.items():
                            n = na + nb + 1
                            w = [Fraction(0)] * (dim_a * dim_b)
                            for ra, ca in enumerate(va):
                                if ca == 0:
                                    continue
                                for rb, cb in enumerate(vb):
                                    if cb != 0:
                                        w[pack(ra, rb)] += ca * cb
                            wt = tuple(w)
                            if n in out_modes:
                                out_modes[n] = vec_add(out_modes[n], wt)
                            else:
                                out_modes[n] = wt
                    out_modes = {n: w for n, w in out_modes.items() if not is_zero_vec(w)}
                    if out_modes:
                        y_data[(pack(ia, ib), pack(ja, jb))] = out_modes
    return AlgebraStructure(
        basis=basis,
        vacuum=pack(a.vacuum, b.vacuum),
        y_data=y_data,
        meta={"source": "tensor", "factor_dims": (dim_a, dim_b)},
    )


def matrix_algebra(alg: AlgebraStructure, n: int) -> AlgebraStructure:
    """n x n matrices over a vertex structure, via the formal matrix product.

    Basis vectors are v*M for v a basis vector of the input and M in the
    adapted matrix basis; Y(v*M, x)(w*N) is computed as the entrywise formal
    matrix product, which collapses to (Y(v,x)w) * (MN).  The result carries
    the same basis order as tensor_product(alg, full_matrix_algebra(n)), so
    the canonical identification of the two is index-by-index.
    """
    if n < 1:
        raise MalformedStructure("matrix size must be positive")
    mb = _MatrixBasis(n)
    dim = alg.dim
    basis = tuple(f"{v}*{m}" for v in alg.basis for m in mb.names)

    def pack(v: int, m: int) -> int:
        return v * mb.dim + m

    y_data: dict[tuple[int, int], dict[int, Vec]] = {}
    for a in range(dim):
        for b in range(dim):
            modes = alg.y_data.get((a, b))
            if not modes:
                continue
            for mi in range(mb.dim):
                for mj in range(mb.dim):
                    prod_coords = mb.to_coords(mb.mult(mb.entries(mi), mb.entries(mj)))
                    out_modes: dict[int, Vec] = {}
                    for nn, w in modes.items():
                        out = [Fraction(0)] * (dim * mb.dim)
                        for r, cv in enumerate(w):
                            if cv == 0:
                                continue
                            for mk, cm in enumerate(prod_coords):
                                if cm != 0:
                                    out[pack(r, mk)] += cv * cm
                        wt = tuple(out)
                        if not is_zero_vec(wt):
                            out_modes[nn] = wt
                    if out_modes:
                        y_data[(pack(a, mi), pack(b, mj))] = out_modes
    return AlgebraStructure(
        basis=basis,
        vacuum=pack(alg.vacuum, 0),
        y_data=y_data,
        meta={
            "source": "matrix-over",
            "matrix_size": n,
            "factor_dims": (dim, mb.dim),
        },
    )


# ---------------------------------------------------------------------------
# gradings and cocycle twists


@dataclass
class GradedTag:
    """Degrees in a finite abelian group, one tuple per basis vector."""

    orders: tuple[int, ...]
    degrees: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self.orders = tuple(int(o) for o in self.orders)
        if any(o < 1 for o in self.orders):
            raise GradingInvalid(f"group orders must be positive, got {self.orders}")
        if any(len(d) != len(self.orders) for d in self.degrees):
            raise GradingInvalid(f"every degree needs {len(self.orders)} components")
        self.degrees = tuple(
            tuple(int(x) % o for x, o in zip(d, self.orders)) for d in self.degrees
        )

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % o for x, y, o in zip(a, b, self.orders))

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def elements(self) -> list[tuple[int, ...]]:
        return [tuple(e) for e in iproduct(*(range(o) for o in self.orders))]


@dataclass
class CocycleData:
    """A scalar table on G x G, validated as a normalized 2-cocycle."""

    grading: GradedTag
    table: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]

    def value(self, g: tuple[int, ...], h: tuple[int, ...]) -> Fraction:
        v = self.table.get((g, h))
        if v is None or v == 0:
            raise CocycleInvalid(f"missing or zero cocycle value at ({g}, {h})")
        return v

    def validate(self) -> None:
        els = self.grading.elements()
        zero = self.grading.zero()
        for g in els:
            if self.value(g, zero) != 1 or self.value(zero, g) != 1:
                raise CocycleInvalid(f"normalization fails at {g}")
        for a in els:
            for b in els:
                for c in els:
                    lhs = self.value(a, self.grading.add(b, c)) * self.value(b, c)
                    rhs = self.value(a, b) * self.value(self.grading.add(a, b), c)
                    if lhs != rhs:
                        raise CocycleInvalid(f"cocycle identity fails at ({a},{b},{c})")

    def commutator(self, g: tuple[int, ...], h: tuple[int, ...]) -> Fraction:
        return self.value(g, h) / self.value(h, g)


def validate_grading(alg: AlgebraStructure, grading: GradedTag) -> None:
    if len(grading.degrees) != alg.dim:
        raise GradingInvalid("one degree per basis vector required")
    if grading.degrees[alg.vacuum] != grading.zero():
        raise GradingInvalid("vacuum must sit in degree zero")
    for (i, j), modes in alg.y_data.items():
        target = grading.add(grading.degrees[i], grading.degrees[j])
        for n, w in modes.items():
            for r, c in enumerate(w):
                if c != 0 and grading.degrees[r] != target:
                    raise GradingInvalid(
                        f"mode product ({alg.basis[i]})_{n}({alg.basis[j]}) leaves "
                        f"the graded piece {target}"
                    )


def cocycle_twist(
    alg: AlgebraStructure, grading: GradedTag, cocycle: CocycleData
) -> AlgebraStructure:
    """Rescale every mode product by the cocycle value of the degrees."""
    validate_grading(alg, grading)
    cocycle.validate()
    y_data: dict[tuple[int, int], dict[int, Vec]] = {}
    for (i, j), modes in alg.y_data.items():
        eps = cocycle.value(grading.degrees[i], grading.degrees[j])
        y_data[(i, j)] = {n: vec_scale(eps, w) for n, w in modes.items()}
    return AlgebraStructure(
        basis=alg.basis,
        vacuum=alg.vacuum,
        y_data=y_data,
        meta={"source": "cocycle-twist", "base": alg.meta.get("source")},
    )


def group_algebra(grading_orders: tuple[int, ...]) -> tuple[AlgebraStructure, GradedTag]:
    """The group algebra of a finite abelian group, graded by itself."""
    tag_proto = GradedTag(orders=tuple(grading_orders), degrees=())
    els = [tuple(e) for e in iproduct(*(range(o) for o in grading_orders))]
    index = {g: k for k, g in enumerate(els)}
    dim = len(els)
    basis = tuple("g" + "".join(str(x) for x in g) for g in els)
    table = {}
    for a, ga in enumerate(els):
        for b, gb in enumerate(els):
            s = tuple((x + y) % o for x, y, o in zip(ga, gb, grading_orders))
            table[(a, b)] = unit_vec(dim, index[s])
    data = AssocAlgebraData(
        basis=basis,
        table=table,
        identity=index[tuple(0 for _ in grading_orders)],
        derivation=tuple(tuple(Fraction(0) for _ in range(dim)) for _ in range(dim)),
    )
    alg = from_assoc_with_derivation(data)
    grading = GradedTag(orders=tuple(grading_orders), degrees=tuple(els))
    return alg, grading


# ---------------------------------------------------------------------------
# group actions and cross products


@dataclass
class GroupActionData:
    """A finite group with one action matrix per element."""

    elements: tuple[str, ...]
    table: dict[tuple[int, int], int]  # (g, h) -> g*h as element indices
    action: dict[int, Mat]
    identity: int = 0

    def validate_group(self) -> None:
        n = len(self.elements)
        for g in range(n):
            if self.table.get((self.identity, g)) != g or self.table.get(
                (g, self.identity)
            ) != g:
                raise MalformedStructure("identity row/column of the group table is wrong")
        for g in range(n):
            for h in range(n):
                if (g, h) not in self.table:
                    raise MalformedStructure("incomplete group table")

    def inverse(self, g: int) -> int:
        for h in range(len(self.elements)):
            if self.table[(g, h)] == self.identity:
                return h
        raise MalformedStructure(f"element {self.elements[g]} has no inverse")

    def validate_action(self, alg: AlgebraStructure) -> None:
        for g, m in self.action.items():
            if mat_vec(m, alg.vacuum_vec()) != alg.vacuum_vec():
                raise NotAnAutomorphism(f"{self.elements[g]} moves the vacuum")
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
                                f"{self.elements[g]} fails on "
                                f"({alg.basis[i]})_{n}({alg.basis[j]})"
                            )

    def is_abelian(self) -> bool:
        n = len(self.elements)
        return all(
            self.table[(g, h)] == self.table[(h, g)] for g in range(n) for h in range(n)
        )


def cross_product(alg: AlgebraStructure, act: GroupActionData) -> AlgebraStructure:
    """Skew product on V tensor the group algebra: Y(ug,x)(vh) = Y(u,x)g(v) gh.

    Only the three-argument associativity variant is guaranteed here, so the
    output is tagged assoc_variant="weak".
    """
    act.validate_group()
    act.validate_action(alg)
    ng = len(act.elements)
    dim = alg.dim
    basis = tuple(f"{v}|{g}" for v in alg.basis for g in act.elements)

    def pack(v: int, g: int) -> int:
        return v * ng + g

    y_data: dict[tuple[int, int], dict[int, Vec]] = {}
    for i in range(dim):
        for g in range(ng):
            mg = act.action[g]
            for j in range(dim):
                for h in range(ng):
                    gv = mat_vec(mg, alg.unit(j))
                    gh = act.table[(g, h)]
                    modes: dict[int, Vec] = {}
                    for n, w in alg.mode_map(alg.unit(i), gv).items():
                        out = [Fraction(0)] * (dim * ng)
                        for r, c in enumerate(w):
                            if c != 0:
                                out[pack(r, gh)] += c
                        modes[n] = tuple(out)
                    modes = {n: w for n, w in modes.items() if not is_zero_vec(w)}
                    if modes:
                        y_data[(pack(i, g), pack(j, h))] = modes
    return AlgebraStructure(
        basis=basis,
        vacuum=pack(alg.vacuum, act.identity),
        y_data=y_data,
        assoc_variant="weak",
        meta={
            "source": "cross-product",
            "base_dim": dim,
            "group_order": ng,
            "group_abelian": act.is_abelian(),
        },
    )


# ---------------------------------------------------------------------------
# the R-map and the Jacobi-like identity


@dataclass
class RMap:
    """Sparse linear endomorphism of the triple tensor space.

    entries maps a basis triple (a, b, c) to a list of (coefficient, triple)
    terms; missing triples map to themselves.
    """

    dim: int
    entries: dict[tuple[int, int, int], list[tuple[Fraction, tuple[int, int, int]]]] = field(
        default_factory=dict
    )

    def image(
        self, triple: tuple[int, int, int]
    ) -> list[tuple[Fraction, tuple[int, int, int]]]:
        return self.entries.get(triple, [(Fraction(1), triple)])


def rmap_identity(dim: int) -> RMap:
    return RMap(dim=dim)


def rmap_from_commutator(
    alg: AlgebraStructure, grading: GradedTag, cocycle: CocycleData
) -> RMap:
    """R(v ⊗ u ⊗ w) = c(deg u, deg v) (v ⊗ u ⊗ w) for a graded twist."""
    entries = {}
    for b1 in range(alg.dim):
        for b2 in range(alg.dim):
            c = cocycle.commutator(grading.degrees[b2], grading.degrees[b1])
            if c == 1:
                continue
            for b3 in range(alg.dim):
                entries[(b1, b2, b3)] = [(c, (b1, b2, b3))]
    return RMap(dim=alg.dim, entries=entries)


def rmap_tensor_swap(dim_v: int, dim_a: int) -> RMap:
    """R(ua ⊗ vb ⊗ wc) = ub ⊗ va ⊗ wc on a tensor structure V ⊗ A."""
    dim = dim_v * dim_a
    entries = {}
    for u in range(dim_v):
        for a in range(dim_a):
            for v in range(dim_v):
                for b in range(dim_a):
                    src1 = u * dim_a + a
                    src2 = v * dim_a + b
                    dst1 = u * dim_a + b
                    dst2 = v * dim_a + a
                    if (src1, src2) == (dst1, dst2):
                        continue
                    for w in range(dim):
                        entries[(src1, src2, w)] = [(Fraction(1), (dst1, dst2, w))]
    return RMap(dim=dim, entries=entries)


def rmap_cross_abelian(base_dim: int, act: GroupActionData) -> RMap:
    """R(vg2 ⊗ ug1 ⊗ wg3) = g1(v)g2 ⊗ g2^{-1}(u)g1 ⊗ wg3 for abelian G.

    base_dim is the dimension of the structure the group acts on.
    """
    if not act.is_abelian():
        raise MalformedStructure("the reduced R-map formula requires an abelian group")
    ng = len(act.elements)
    dim = base_dim * ng

    def unpack(k: int) -> tuple[int, int]:
        return divmod(k, ng)

    entries: dict[tuple[int, int, int], list[tuple[Fraction, tuple[int, int, int]]]] = {}
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
            for b3 in range(dim):
                entries[(b1, b2, b3)] = [(c, (p, q, b3)) for c, (p, q) in terms]
    return RMap(dim=dim, entries=entries)


def check_jacobi_like(
    alg: AlgebraStructure,
    rmap: RMap,
    triples: list[tuple[int, int, int]] | None = None,
) -> CheckReport:
    """The Jacobi-like identity with the reversed product routed through R.

    Decided exactly per triple by jacobi_witness: the straight product must
    equal the R-twisted reversed one, and the triple must be weakly
    associative at order 0.  These are also the identity's two standard
    consequences, so one verdict covers them.
    """
    report = CheckReport("jacobi-like")
    if rmap.dim != alg.dim:
        raise MalformedStructure("R-map dimension mismatch")
    all_triples = triples or [
        (u, v, w)
        for u in range(alg.dim)
        for v in range(alg.dim)
        for w in range(alg.dim)
    ]
    for (u_idx, v_idx, w_idx) in all_triples:
        u, v, w = alg.unit(u_idx), alg.unit(v_idx), alg.unit(w_idx)
        names = (alg.basis[u_idx], alg.basis[v_idx], alg.basis[w_idx])
        # (Y x Y)(x2, x1) applied to R(v ⊗ u ⊗ w): sum of Y(a,x2)Y(b,x1)c
        rterms: dict[tuple[int, int], Vec] = {}
        for coeff, (a_i, b_i, c_i) in rmap.image((v_idx, u_idx, w_idx)):
            a, b, c = alg.unit(a_i), alg.unit(b_i), alg.unit(c_i)
            for e, outer in reversed_product_terms(alg, b, a, c).items():
                add_term(rterms, e, vec_scale(coeff, outer))
        witness = jacobi_witness(alg, u, v, w, rterms, names)
        if witness is not None:
            report.fail(witness)
    return report
