"""Builders that produce vertex structures from classical input data.

Each builder validates its input invariants (Leibniz rule, cocycle identity,
automorphism property, ...) before producing an AlgebraStructure, and each
output is meant to pass validate_structure.  The builders compute on the
sparse kernel of vertexcalc.algebra: an associative product is a sparse
index of constant vertex operators (constant_index) multiplied through
sparse_modes, a derivation or a group element is given as its sparse
columns, the one form the builders store and read, and e^{xd} is
exp_sparse on those columns; the file format's dense matrices are read and
written in vertexcalc.fileio only.  Tensor products, matrix structures,
cross products, and column and tensor modules all take their tables from
one kernel, table_tensor, of the formula
Y(u*u', x)(w*w') = Y(u, x)w * Y(u', x)w'.  The R-map checker at the bottom
verifies the Jacobi-like identity whose reversed-product term is routed
through a fixed linear map on V ⊗ V that keeps the third argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct

from .algebra import AlgebraStructure, ModeIndex, d_sparse, exp_sparse, sparse_modes
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
    SparseVec,
    Support,
    Terms,
    add_scaled,
    add_term,
    integral,
    sparse_differences,
    support,
)
from .pairs import pair_analysis
from .report import CheckReport, Witness, combination


def constant_index(images: dict[tuple[int, int], Support]) -> ModeIndex:
    """A bilinear product as the sparse index of constant vertex operators.

    images holds the nonzero (k, c) of each product e_i e_j, which
    Y(e_i, x)e_j carries at mode -1; zero products are left out.
    """
    return {key: {-1: img} for key, img in images.items() if img}


def _columns(cols: list[Support]) -> list[Support]:
    """Sparse columns with zero entries dropped, rows in increasing order, c int if integral."""
    return [[(r, integral(c)) for r, c in sorted(col) if c] for col in cols]


def _check_square(cols: list[Support], dim: int, what: str) -> None:
    """Refuse sparse columns with a column count or a row index off range(dim)."""
    if len(cols) != dim or any(not 0 <= r < dim for col in cols for r, _c in col):
        raise MalformedStructure(f"{what} is not {dim}x{dim}")


# ---------------------------------------------------------------------------
# associative algebras with a derivation


@dataclass
class AssocAlgebraData:
    """Multiplication table, identity index, and a nilpotent derivation.

    The table holds each product e_i e_j as its sparse coordinates {k: c};
    a missing cell is zero.  The derivation is its sparse columns, the
    nonzero (r, c) of each d(e_j), one column per basis vector.  The table
    is read once into `index`, the product as a constant_index, and the
    validation and the builder compute on it and on the columns.
    """

    basis: tuple[str, ...]
    table: dict[tuple[int, int], SparseVec]  # (i, j) -> e_i * e_j
    identity: int
    derivation: list[Support]  # column j: the nonzero (r, c) of d(e_j)
    index: ModeIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.basis = tuple(self.basis)
        dim = len(self.basis)
        self.table = {
            key: {k: integral(c) for k, c in sorted(cell.items()) if c}
            for key, cell in self.table.items()
        }
        for (i, j), cell in self.table.items():
            if not (0 <= i < dim and 0 <= j < dim) or any(not 0 <= k < dim for k in cell):
                raise MalformedStructure(f"bad table entry at ({i},{j})")
        self.derivation = _columns(self.derivation)
        _check_square(self.derivation, dim, "the derivation")
        self.index = constant_index({key: list(cell.items()) for key, cell in self.table.items()})

    @property
    def dim(self) -> int:
        return len(self.basis)

    def product(self, a: Support, b: Support) -> SparseVec:
        """The product ab of two vectors given by their nonzero (k, c)."""
        return sparse_modes(self.index, a, b).get(-1, {})

    def validate(self) -> None:
        dim = self.dim
        e = ((self.identity, ONE),)
        for i in range(dim):
            b = ((i, ONE),)
            if self.product(e, b) != {i: 1} or self.product(b, e) != {i: 1}:
                raise MalformedStructure(f"identity axiom fails on {self.basis[i]}")
        # Leibniz rule on every basis pair
        for i in range(dim):
            for j in range(dim):
                a, b = ((i, ONE),), ((j, ONE),)
                lhs = d_sparse(self.derivation, self.product(a, b).items())
                rhs = self.product(self.derivation[i], b)
                add_scaled(rhs, ONE, self.product(a, self.derivation[j]).items())
                if lhs != rhs:
                    raise NotADerivation(
                        f"Leibniz fails on ({self.basis[i]}, {self.basis[j]}): "
                        f"{combination(lhs, self.basis)} != {combination(rhs, self.basis)}"
                    )


def from_assoc_with_derivation(data: AssocAlgebraData) -> AlgebraStructure:
    """Vertex structure Y(a,x)b = (e^{xd} a) b on an associative algebra.

    The mode products are (e_i)_(-1-m) e_j = (d^m e_i) e_j / m!; weak
    associativity holds with order 0 because e^{xd} is an algebra
    automorphism.  exp_sparse on each basis vector is the one decision that
    d is nilpotent: an iterate that outlives the dimension is NonNilpotentD.
    """
    data.validate()
    index: ModeIndex = {}
    for i in range(data.dim):
        try:
            powers = exp_sparse(data.derivation, ((i, ONE),))  # {m: d^m e_i / m!}
        except NonNilpotentD:
            msg = f"the derivation is not nilpotent: its iterates on {data.basis[i]} never vanish"
            raise NonNilpotentD(msg) from None
        for j in range(data.dim):
            products = {-1 - m: data.product(dv.items(), ((j, ONE),)) for m, dv in powers.items()}
            if modes := {n: w.items() for n, w in products.items() if w}:
                index[(i, j)] = modes
    return AlgebraStructure(data.basis, data.identity, index)


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
        return constant_index(
            {(i, j): support(self.product(i, j)) for i in range(self.dim) for j in range(self.dim)}
        )

    def column_index(self) -> ModeIndex:
        """Basis matrix i acting on the column unit e_c, at mode -1."""
        return constant_index(
            {
                (i, c): [(r, x) for (r, cc), x in self.entries(i).items() if cc == c]
                for i in range(self.dim)
                for c in range(self.n)
            }
        )


def full_matrix_algebra(n: int) -> AlgebraStructure:
    """Rational n x n matrices as a structure with constant vertex operators."""
    mb = _MatrixBasis(n)
    table = {(i, j): dict(support(mb.product(i, j))) for i in range(mb.dim) for j in range(mb.dim)}
    data = AssocAlgebraData(mb.names, table, 0, derivation=[[] for _ in range(mb.dim)])
    return from_assoc_with_derivation(data)


# ---------------------------------------------------------------------------
# tensor products


def table_tensor(
    index_a: ModeIndex, index_b: ModeIndex, acting_b: int, dim_a: int, dim_b: int
) -> ModeIndex:
    """The mode index of the tensor formula, read off two sparse image indices.

    The targets have dimensions dim_a and dim_b; acting_b is the size of the
    second acting basis.  The x-exponents add, (-na-1) + (-nb-1) = -n-1, so
    modes na and nb meet at n = na + nb + 1; image coordinates ra and rb
    multiply into slot ra*dim_b + rb, and the key ((i, j), (k, l)) packs as
    (i*acting_b + k, j*dim_b + l).  Each mode is accumulated on its nonzero
    coordinates and modes that cancel are dropped; the structure constructor
    puts the accumulators in normal form (algebra.normal_index).
    """
    table: ModeIndex = {}
    for (i, j), modes_a in index_a.items():
        for (k, l), modes_b in index_b.items():
            acc: dict[int, dict[int, Fraction]] = {}
            for na, img_a in modes_a.items():
                for nb, img_b in modes_b.items():
                    coords = acc.setdefault(na + nb + 1, {})
                    for ra, ca in img_a:
                        add_scaled(coords, ca, [(ra * dim_b + rb, cb) for rb, cb in img_b])
            modes = {n: coords.items() for n, coords in acc.items() if coords}
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
            mode_index=table_tensor(out.mode_index, b.mode_index, b.dim, out.dim, b.dim),
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
        mode_index=table_tensor(alg.mode_index, mb.product_index(), mb.dim, alg.dim, mb.dim),
    )


# ---------------------------------------------------------------------------
# gradings and cocycle twists


@dataclass
class GradedTag:
    """Degrees in a finite abelian group, a tuple of components in range(order) per basis vector."""

    orders: tuple[int, ...]
    degrees: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self.orders = tuple(int(o) for o in self.orders)
        if any(o < 1 for o in self.orders):
            raise GradingInvalid(f"group orders must be positive, got {self.orders}")
        if any(len(d) != len(self.orders) for d in self.degrees):
            raise GradingInvalid(f"every degree needs {len(self.orders)} components")
        self.degrees = tuple(tuple(int(x) for x in d) for d in self.degrees)
        for d in self.degrees:
            if not all(0 <= x < o for x, o in zip(d, self.orders)):
                raise GradingInvalid(f"degree {d} is outside the group of orders {self.orders}")

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

    def __post_init__(self):
        group = set(self.grading.elements())
        for g, h in self.table:
            if g not in group or h not in group:
                raise CocycleInvalid(f"cocycle key ({g}, {h}) is not a pair of group elements")

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
    for (i, j), modes in alg.mode_index.items():
        target = grading.add(grading.degrees[i], grading.degrees[j])
        for n, img in modes.items():
            for r, _ in img:
                if grading.degrees[r] != target:
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
    index: ModeIndex = {}
    for (i, j), modes in alg.mode_index.items():
        eps = cocycle.value(grading.degrees[i], grading.degrees[j])
        index[(i, j)] = {n: [(k, eps * c) for k, c in img] for n, img in modes.items()}
    return AlgebraStructure(basis=alg.basis, vacuum=alg.vacuum, mode_index=index)


def group_algebra(grading_orders: tuple[int, ...]) -> tuple[AlgebraStructure, GradedTag]:
    """The group algebra of a finite abelian group, graded by itself."""
    group = GradedTag(orders=tuple(grading_orders), degrees=())
    els = group.elements()
    index = {g: k for k, g in enumerate(els)}
    dim = len(els)
    table = {
        (a, b): {index[group.add(ga, gb)]: 1}
        for a, ga in enumerate(els)
        for b, gb in enumerate(els)
    }
    data = AssocAlgebraData(
        basis=tuple("g" + "".join(str(x) for x in g) for g in els),
        table=table,
        identity=index[group.zero()],
        derivation=[[] for _ in range(dim)],
    )
    return from_assoc_with_derivation(data), GradedTag(orders=group.orders, degrees=tuple(els))


# ---------------------------------------------------------------------------
# group actions and cross products


@dataclass
class GroupActionData:
    """A finite group with one action matrix per element, as its sparse columns.

    action[g][j] holds the nonzero (r, c) of g(e_j), integral c as an int.
    The identity is read off the table, so the elements may come in any order.
    """

    elements: tuple[str, ...]
    table: dict[tuple[int, int], int]  # (g, h) -> g*h as element indices
    action: dict[int, list[Support]]

    def __post_init__(self):
        self.action = {g: _columns(cols) for g, cols in self.action.items()}

    @property
    def identity(self) -> int:
        """The element e with e g = g e = g for every g; a table with none is refused."""
        n = len(self.elements)
        for e in range(n):
            if all(self.table.get((e, g)) == g == self.table.get((g, e)) for g in range(n)):
                return e
        raise MalformedStructure("identity row/column of the group table is wrong")

    def validate_group(self, dim: int) -> None:
        """A complete, associative group table with inverses, acting by dim x dim matrices.

        dim is the dimension of the structure the group acts on.  The
        identity must act as 1, and g(h(e_j)) = (gh)(e_j) on every e_j.
        """
        n, e = len(self.elements), self.identity
        cells = set(iproduct(range(n), repeat=2))
        if set(self.table) != cells or set(self.table.values()) - set(range(n)):
            raise MalformedStructure(f"the group table is not {n}x{n} over its elements")
        for g, h, k in iproduct(range(n), repeat=3):
            if self.table[(self.table[(g, h)], k)] != self.table[(g, self.table[(h, k)])]:
                names = ",".join(self.elements[x] for x in (g, h, k))
                raise MalformedStructure(f"the group table is not associative at ({names})")
        for g in range(n):
            self.inverse(g)
        for g, name in enumerate(self.elements):
            if g not in self.action:
                raise MalformedStructure(f"group element {name} has no action matrix")
            _check_square(self.action[g], dim, f"the action matrix of {name}")
        if any(col != [(j, 1)] for j, col in enumerate(self.action[e])):
            raise MalformedStructure(f"the identity {self.elements[e]} does not act as 1")
        for (g, h), gh in sorted(self.table.items()):
            outer, inner = self.action[g], self.action[h]
            if any(d_sparse(outer, col) != dict(self.action[gh][j]) for j, col in enumerate(inner)):
                names = (self.elements[x] for x in (g, h, gh))
                raise MalformedStructure("{} after {} does not act as {}".format(*names))

    def inverse(self, g: int) -> int:
        e = self.identity
        for h in range(len(self.elements)):
            if self.table[(g, h)] == e:
                return h
        raise MalformedStructure(f"element {self.elements[g]} has no inverse")

    def validate_action(self, alg: AlgebraStructure) -> None:
        """Each element fixes the vacuum and maps u_n v to g(u)_n g(v) on basis pairs.

        It runs validate_group first; a failure names the least failing mode.
        """
        self.validate_group(alg.dim)
        for g, cols in self.action.items():
            if dict(cols[alg.vacuum]) != {alg.vacuum: 1}:
                raise NotAnAutomorphism(f"{self.elements[g]} moves the vacuum")
            for i in range(alg.dim):
                for j in range(alg.dim):
                    lhs = sparse_modes(alg.mode_index, cols[i], cols[j])
                    images = alg.mode_index.get((i, j), {})
                    rhs = {n: gw for n, img in images.items() if (gw := d_sparse(cols, img))}
                    if (diff := next(sparse_differences(lhs, rhs), None)) is not None:
                        raise NotAnAutomorphism(
                            f"{self.elements[g]} fails on "
                            f"({alg.basis[i]})_{diff[0]}({alg.basis[j]})"
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
    act.validate_action(alg)
    ng = len(act.elements)
    dim = alg.dim
    cols = act.action
    # for each g: the index (u, v) -> Y(u, x)g(v) tensor left multiplication by g
    index: ModeIndex = {}
    for g in range(ng):
        twisted = {
            (i, j): {n: list(w.items()) for n, w in modes.items()}
            for i in range(dim)
            for j in range(dim)
            if (modes := sparse_modes(alg.mode_index, ((i, ONE),), cols[g][j]))
        }
        left = {(g, h): {-1: [(act.table[(g, h)], 1)]} for h in range(ng)}
        index.update(table_tensor(twisted, left, ng, dim, ng))
    return AlgebraStructure(
        basis=tuple(f"{v}|{g}" for v in alg.basis for g in act.elements),
        vacuum=alg.vacuum * ng + act.identity,
        mode_index=index,
        assoc_variant="weak",
    )


# ---------------------------------------------------------------------------
# the R-map and the Jacobi-like identity


@dataclass
class RMap:
    """Sparse linear endomorphism of V ⊗ V.

    entries maps a basis pair (b1, b2) to a list of (coefficient, pair)
    terms; missing pairs map to themselves.  In the Jacobi-like identity R
    acts on v ⊗ u and keeps the third argument w, as the braiding S(z) of
    Etingof-Kazhdan and the braided locality of Bakalov-Kac do.
    """

    dim: int
    entries: dict[tuple[int, int], list[tuple[Fraction, tuple[int, int]]]] = field(
        default_factory=dict
    )

    def image(self, pair: tuple[int, int]) -> list[tuple[Fraction, tuple[int, int]]]:
        return self.entries.get(pair, [(ONE, pair)])


def rmap_identity(dim: int) -> RMap:
    return RMap(dim=dim)


def rmap_from_commutator(
    alg: AlgebraStructure, grading: GradedTag, cocycle: CocycleData
) -> RMap:
    """R(v ⊗ u) = c(deg u, deg v) (v ⊗ u) for a graded twist."""
    entries = {
        (b1, b2): [(c, (b1, b2))]
        for b1, b2 in iproduct(range(alg.dim), repeat=2)
        if (c := cocycle.commutator(grading.degrees[b2], grading.degrees[b1])) != 1
    }
    return RMap(dim=alg.dim, entries=entries)


def rmap_tensor_swap(dim_v: int, dim_a: int) -> RMap:
    """R(ua ⊗ vb) = ub ⊗ va on a tensor structure V ⊗ A."""
    entries = {
        (u * dim_a + a, v * dim_a + b): [(ONE, (u * dim_a + b, v * dim_a + a))]
        for u, a, v, b in iproduct(range(dim_v), range(dim_a), range(dim_v), range(dim_a))
        if a != b  # a == b is the trivial swap
    }
    return RMap(dim=dim_v * dim_a, entries=entries)


def rmap_cross_abelian(base_dim: int, act: GroupActionData) -> RMap:
    """R(vg2 ⊗ ug1) = g1(v)g2 ⊗ g2^{-1}(u)g1 for abelian G.

    base_dim is the dimension of the structure the group acts on.
    """
    act.validate_group(base_dim)
    if not act.is_abelian():
        raise MalformedStructure("the reduced R-map formula requires an abelian group")
    ng = len(act.elements)
    dim = base_dim * ng
    cols = act.action
    inverse = [act.inverse(g) for g in range(ng)]
    entries: dict[tuple[int, int], list[tuple[Fraction, tuple[int, int]]]] = {}
    for b1 in range(dim):  # holds v g2
        v_idx, g2 = divmod(b1, ng)
        for b2 in range(dim):  # holds u g1
            u_idx, g1 = divmod(b2, ng)
            gv = cols[g1][v_idx]
            gu = cols[inverse[g2]][u_idx]
            terms = [(c1 * c2, (r1 * ng + g2, r2 * ng + g1)) for r1, c1 in gv for r2, c2 in gu]
            if terms != [(1, (b1, b2))]:
                entries[(b1, b2)] = terms
    return RMap(dim=dim, entries=entries)


def check_jacobi_like(alg: AlgebraStructure, rmap: RMap) -> CheckReport:
    """The Jacobi-like identity with the reversed product routed through R.

    Decided exactly per basis triple as algebra.check_jacobi decides the
    q-Jacobi identity: the straight product must equal the R-twisted
    reversed one, and the triple must be weakly associative at order 0,
    which the pair analysis records.  These are also the identity's two
    standard consequences, so one verdict covers them.

    Where R sends v ⊗ u to c (v ⊗ u), c = 1 for a pair R does not list, the
    identity on (u, v) is the q-Jacobi identity at q = c (the braided
    locality of Bakalov-Kac), read off the analysis with no scatter.  Any
    other pair is compared on one w's scatter at a time (R keeps w), if
    there is one.  On w it holds both halves when its straight product
    vanishes, its R-image names only vanishing products and its triple is
    weakly associative, so only the pairs with a nonzero product, reached
    by R from one (R read backwards) or not weakly associative are visited.
    Witnesses are PairAnalysis's, reported in (u, v, w) order.
    """
    report = CheckReport("jacobi-like")
    dim = alg.dim
    if rmap.dim != dim:
        raise MalformedStructure("R-map dimension mismatch")
    pairs = pair_analysis(alg)
    # routed: each (u, v) whose R-image of (v, u) is not c (v, u);
    # reaching[(a, b)]: every routed (u, v) whose R-image names (a, b)
    reaching: dict[tuple[int, int], list[tuple[int, int]]] = {}
    routed = set()
    for (v_idx, u_idx), image in rmap.entries.items():
        if len(image) != 1 or image[0][1] != (v_idx, u_idx):
            routed.add((u_idx, v_idx))
            for _coeff, pair in image:
                reaching.setdefault(pair, []).append((u_idx, v_idx))
    failures: dict[tuple[int, int, int], Witness] = {}
    for u_idx, v_idx in iproduct(range(dim), repeat=2):
        if (u_idx, v_idx) not in routed:
            ((c, _pair),) = rmap.image((v_idx, u_idx))
            if not pairs.jacobi_holds(u_idx, v_idx, c):
                for w_idx, witness in pairs.jacobi_witnesses(u_idx, v_idx, c, None).items():
                    failures[(u_idx, v_idx, w_idx)] = witness
    for w_idx in range(dim) if routed else ():
        products = pairs.products(w_idx)
        visit = routed & (products.keys() | pairs.assoc_failing_pairs(w_idx))
        for pair in products:
            visit.update(reaching.get(pair, ()))
        for u_idx, v_idx in visit:
            straight = products.get((u_idx, v_idx), {})
            # (Y x Y)(x2, x1) applied to R(v ⊗ u) ⊗ w: sum of Y(a,x2)Y(b,x1)w,
            # which is Y(a,x1)Y(b,x2)w with its two exponents swapped
            rterms: Terms = {}
            for coeff, pair in rmap.entries[(v_idx, u_idx)]:
                for (e2, e1), outer in products.get(pair, {}).items():
                    add_term(rterms, (e1, e2), coeff, outer.items())
            diff = next(sparse_differences(straight, rterms), None) if straight or rterms else None
            if (witness := pairs.jacobi_witness(u_idx, v_idx, w_idx, diff)) is not None:
                failures[(u_idx, v_idx, w_idx)] = witness
    for triple in sorted(failures):
        report.fail(failures[triple])
    return report
