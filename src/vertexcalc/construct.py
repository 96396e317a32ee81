"""Builders that produce vertex structures from classical input data.

Each builder validates its input invariants (Leibniz rule, cocycle identity,
automorphism property, ...) before producing an AlgebraStructure, and each
output is meant to pass validate_structure.  Tensor products, matrix
structures, cross products, and column and tensor modules all take their
tables from one kernel, table_tensor, of the formula
Y(u*u', x)(w*w') = Y(u, x)w * Y(u', x)w'.  The R-map checker at the bottom
verifies the Jacobi-like identity whose reversed-product term is routed
through a fixed linear map on the triple tensor space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct

from .algebra import (
    AlgebraStructure,
    ModeIndex,
    ModeTable,
    Terms,
    add_term,
    sparse_differences,
    table_index,
)
from .errors import (
    CocycleInvalid,
    GradingInvalid,
    MalformedStructure,
    NonNilpotentD,
    NotADerivation,
    NotAnAutomorphism,
)
from .linalg import (
    ONE,
    Mat,
    Vec,
    add_scaled,
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
from .pairs import pair_analysis
from .report import CheckReport, Witness


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
        if n < 1:
            raise MalformedStructure("matrix size must be positive")
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

    def entries(self, idx: int) -> dict[tuple[int, int], int]:
        if idx == 0:
            return {(i, i): 1 for i in range(self.n)}
        i, j = self.units[idx - 1]
        return {(i, j): 1}

    def to_coords(self, entries: dict[tuple[int, int], int]) -> tuple[int, ...]:
        last = entries.get((self.n - 1, self.n - 1), 0)
        coords = [last]
        for i, j in self.units:
            val = entries.get((i, j), 0)
            if i == j:
                val -= last
            coords.append(val)
        return tuple(coords)

    @staticmethod
    def mult(
        e1: dict[tuple[int, int], int], e2: dict[tuple[int, int], int]
    ) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for (a, b), x in e1.items():
            for (c, d), y in e2.items():
                if b == c:
                    out[(a, d)] = out.get((a, d), 0) + x * y
        return {k: v for k, v in out.items() if v != 0}

    def product(self, i: int, j: int) -> tuple[int, ...]:
        """Integer coordinates of the product of basis matrices i and j."""
        return self.to_coords(self.mult(self.entries(i), self.entries(j)))

    def product_index(self) -> ModeIndex:
        """The matrix product as a sparse image index at mode -1."""
        imgs = {
            (i, j): support(self.product(i, j)) for i in range(self.dim) for j in range(self.dim)
        }
        return {key: {-1: img} for key, img in imgs.items() if img}

    def column_index(self) -> ModeIndex:
        """Basis matrix i acting on the column unit e_c, at mode -1."""
        imgs = {
            (i, c): [(r, x) for (r, cc), x in self.entries(i).items() if cc == c]
            for i in range(self.dim)
            for c in range(self.n)
        }
        return {key: {-1: img} for key, img in imgs.items() if img}


def full_matrix_algebra(n: int) -> AlgebraStructure:
    """Rational n x n matrices as a structure with constant vertex operators."""
    mb = _MatrixBasis(n)
    table = {(i, j): mb.product(i, j) for i in range(mb.dim) for j in range(mb.dim)}
    data = AssocAlgebraData(
        basis=mb.names,
        table=table,
        identity=0,
        derivation=tuple(tuple(Fraction(0) for _ in range(mb.dim)) for _ in range(mb.dim)),
    )
    return from_assoc_with_derivation(data)


# ---------------------------------------------------------------------------
# tensor products


def table_tensor(
    index_a: ModeIndex, index_b: ModeIndex, acting_b: int, dim_a: int, dim_b: int
) -> ModeTable:
    """The mode table of the tensor formula, read off two sparse image indices.

    The targets have dimensions dim_a and dim_b; acting_b is the size of the
    second acting basis.  The x-exponents add, (-na-1) + (-nb-1) = -n-1, so
    modes na and nb meet at n = na + nb + 1; image coordinates ra and rb
    multiply into slot ra*dim_b + rb, and the key ((i, j), (k, l)) packs as
    (i*acting_b + k, j*dim_b + l).  Each mode is accumulated on its nonzero
    coordinates, modes that cancel are dropped, and the rest are densified once.
    """
    dim = dim_a * dim_b
    table: ModeTable = {}
    for (i, j), modes_a in index_a.items():
        for (k, l), modes_b in index_b.items():
            acc: dict[int, dict[int, Fraction]] = {}
            for na, img_a in modes_a.items():
                for nb, img_b in modes_b.items():
                    coords = acc.setdefault(na + nb + 1, {})
                    for ra, ca in img_a:
                        add_scaled(coords, ca, [(ra * dim_b + rb, cb) for rb, cb in img_b])
            modes = {n: densify(coords, dim) for n, coords in acc.items() if coords}
            if modes:
                table[(i * acting_b + k, j * dim_b + l)] = modes
    return table


def tensor_product(factors: list[AlgebraStructure]) -> AlgebraStructure:
    """Tensor product structure with mode convolution and tensor vacuum."""
    if not factors:
        raise MalformedStructure("tensor product of no factors")
    out = factors[0]
    for b in factors[1:]:
        out = AlgebraStructure(
            basis=tuple(f"{x}*{y}" for x in out.basis for y in b.basis),
            vacuum=out.vacuum * b.dim + b.vacuum,
            y_data=table_tensor(out.mode_index, b.mode_index, b.dim, out.dim, b.dim),
            meta={"source": "tensor", "factor_dims": (out.dim, b.dim)},
        )
    return out


def matrix_algebra(alg: AlgebraStructure, n: int) -> AlgebraStructure:
    """n x n matrices over a vertex structure, via the formal matrix product.

    Basis vectors are v*M for v a basis vector of the input and M in the
    adapted matrix basis; Y(v*M, x)(w*N) is the entrywise formal matrix
    product, which collapses to (Y(v,x)w) * (MN): the tensor product with
    full_matrix_algebra(n), whose table is the matrix product at mode -1,
    in the same basis order, so the identification is index-by-index.
    """
    mb = _MatrixBasis(n)
    return AlgebraStructure(
        basis=tuple(f"{v}*{m}" for v in alg.basis for m in mb.names),
        vacuum=alg.vacuum * mb.dim,
        y_data=table_tensor(alg.mode_index, mb.product_index(), mb.dim, alg.dim, mb.dim),
        meta={
            "source": "matrix-over",
            "matrix_size": n,
            "factor_dims": (alg.dim, mb.dim),
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
        return Fraction(self.value(g, h)) / self.value(h, g)


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
    # for each g: the table (u, v) -> Y(u, x)g(v) tensor left multiplication by g
    y_data: ModeTable = {}
    for g in range(ng):
        twisted = {
            (i, j): alg.mode_map(alg.unit(i), mat_vec(act.action[g], alg.unit(j)))
            for i in range(dim)
            for j in range(dim)
        }
        left = {(g, h): {-1: [(act.table[(g, h)], 1)]} for h in range(ng)}
        y_data.update(table_tensor(table_index(twisted), left, ng, dim, ng))
    return AlgebraStructure(
        basis=tuple(f"{v}|{g}" for v in alg.basis for g in act.elements),
        vacuum=alg.vacuum * ng + act.identity,
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
        return self.entries.get(triple, [(ONE, triple)])


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
                        entries[(src1, src2, w)] = [(ONE, (dst1, dst2, w))]
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

    Decided exactly per triple as algebra.check_jacobi decides the q-Jacobi
    identity: the straight product must equal the R-twisted reversed one,
    and the triple must be weakly associative at order 0, which the pair
    analysis records.  These are also the identity's two standard
    consequences, so one verdict covers them.

    triples=None checks every basis triple and an empty list checks none;
    an index outside range(alg.dim) is refused.  Both sides of the
    commutation are read off the pair analysis's scatter of one w at a time
    (PairAnalysis.products), so a triple costs a lookup, and one whose
    straight and reversed products all vanish costs no comparison.
    """
    report = CheckReport("jacobi-like")
    dim = alg.dim
    if rmap.dim != dim:
        raise MalformedStructure("R-map dimension mismatch")
    if triples is None:
        triples = list(iproduct(range(dim), repeat=3))
    elif any(len(t) != 3 or not all(i in range(dim) for i in t) for t in triples):
        raise MalformedStructure(f"jacobi-like triples must be basis index triples in range({dim})")
    pairs = pair_analysis(alg)
    scattered: dict[int, dict] = {}

    def product(a: int, b: int, c: int) -> Terms:
        """Y(a,x1)Y(b,x2)c for basis vectors, read off the scatter of c, made on first use."""
        if c not in scattered:
            scattered[c] = pairs.products(c)
        return scattered[c].get((a, b), {})

    def witness(u_idx: int, v_idx: int, w_idx: int) -> Witness | None:
        names = (alg.basis[u_idx], alg.basis[v_idx], alg.basis[w_idx])
        straight = product(u_idx, v_idx, w_idx)
        # (Y x Y)(x2, x1) applied to R(v ⊗ u ⊗ w): sum of Y(a,x2)Y(b,x1)c, which
        # is Y(a,x1)Y(b,x2)c with its two exponents swapped
        rterms: Terms = {}
        for coeff, (a, b, c) in rmap.image((v_idx, u_idx, w_idx)):
            for (e2, e1), outer in product(a, b, c).items():
                add_term(rterms, (e1, e2), coeff, outer.items())
        if straight or rterms:
            diff = next(sparse_differences(straight, rterms), None)
            if diff is not None:
                e, lhs, rhs = diff
                return Witness(("commutation",) + names, e, densify(lhs, dim), densify(rhs, dim))
        if (assoc := pairs.assoc_failure(u_idx, v_idx, w_idx)) is not None:
            return Witness(("associativity",) + names, *assoc)
        return None

    # every R-map built here keeps the third factor w, so deciding one w at a
    # time holds one w's products (an image with another third factor
    # scatters it on demand), and the witnesses are then reported in triple
    # order
    by_w: dict[int, list[tuple[int, int, int]]] = {}
    for t in triples:
        by_w.setdefault(t[2], []).append(t)
    failures: dict[tuple[int, int, int], Witness] = {}
    for group in by_w.values():
        scattered.clear()
        for t in group:
            if (found := witness(*t)) is not None:
                failures[t] = found
    for t in triples:
        if t in failures:
            report.fail(failures[t])
    return report
