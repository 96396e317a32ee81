"""Module structures over a vertex structure and their checkers.

A ModuleStructure carries the action modes v_n w for algebra basis vectors v
and module basis vectors w.  The checkers verify the module axioms (identity
action, truncation, and weak associativity, decided like the algebra's by one
exact comparison), the derivative property of the translation operator,
and locality transfer between an algebra and a faithful module.  Finite
support makes every multi-operator product of module actions a Laurent
polynomial, so their compatibility holds at damping order zero: a stated
invariant (check_product_compatibility), not a check.  Module weak
associativity and the module side of locality transfer read the module's
pair analysis (pairs.pair_analysis), which is the algebra's own for the
adjoint.  Faithfulness is a sparse rank test.  Generation is sparse
spinning (algebra.spin): each accepted vector is multiplied once by every
algebra basis vector, and each image outside the span so far joins a sparse
CoordSpan, so the generated rows come in spin order, not row-reduced.
Whether each basis vector generates the module is read off the submodules
spun so far: a basis vector inside a proper one does not, and is not spun.
None of these spans keeps coordinates over its vectors.
Column and tensor modules take their action tables from
construct.table_tensor, the one tensor kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    AlgebraStructure,
    ModeIndex,
    basis_modes,
    d_columns,
    find_locality_k,
    mode_derivative,
    normal_index,
    require_basis,
    require_length,
    sparse_differences,
    sparse_modes,
    spin,
)
from .construct import _MatrixBasis, matrix_algebra, table_tensor, tensor_product
from .errors import MalformedStructure
from .linalg import ONE, CoordSpan, Vec, densify, integral, support
from .pairs import PairAnalysis, pair_analysis
from .report import CheckReport, Witness


@dataclass
class ModuleStructure:
    """Finite module basis and action modes (e_i)_n w_j, finitely supported.

    The action is a sparse image index like an algebra's mode_index,
    {(algebra idx, module idx): {n: nonzero (k, c)}}, put in the same normal
    form and read through the same functions; only the acting basis is the
    algebra's.  A module does not know its algebra, so the acting indices
    are checked against it by require_acting_range wherever the two meet,
    against `acting`, the sorted acting indices the action names, found
    once.  `_pairs` holds the pair analysis of the module under the algebra
    it was last checked with (pairs.pair_analysis), built on first use.
    """

    basis: tuple[str, ...]
    mode_index: ModeIndex
    meta: dict = field(default_factory=dict)
    acting: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _pairs: PairAnalysis | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.basis = tuple(self.basis)
        if not self.basis:
            raise MalformedStructure("empty module basis")
        self.mode_index = normal_index(self.mode_index, self.dim, None)
        self.acting = tuple(sorted({i for i, _j in self.mode_index}))

    dim = AlgebraStructure.dim
    unit = AlgebraStructure.unit


def require_acting_range(alg: AlgebraStructure, mod: ModuleStructure) -> None:
    """Raise MalformedStructure when the action names an index outside alg's basis."""
    acting = mod.acting
    if acting and (acting[0] < 0 or acting[-1] >= alg.dim):
        stray = [i for i in acting if not 0 <= i < alg.dim]
        raise MalformedStructure(
            f"module action names acting indices {stray} outside the algebra's "
            f"{alg.dim} basis vectors"
        )


def adjoint_module(alg: AlgebraStructure) -> ModuleStructure:
    """The algebra acting on itself by its own mode products."""
    return ModuleStructure(basis=alg.basis, mode_index=alg.mode_index, meta={"source": "adjoint"})


# ---------------------------------------------------------------------------
# module axiom checks


def check_module(alg: AlgebraStructure, mod: ModuleStructure) -> CheckReport:
    """Identity action, derivative property, and module weak associativity.

    Every triple (u, v, w) is decided by the module's pair analysis, with
    the module as the acting table; its order is 0 whenever the relation
    holds.  When some (u, w) holds for every middle argument, the report
    records the uniform order, the maximum over middle arguments, which is
    then 0 as well.
    """
    require_acting_range(alg, mod)
    report = CheckReport("module-axioms")
    dim_w = mod.dim
    # identity action: (1)_(-1) w = w and no other mode, one witness per wrong mode
    for j in range(dim_w):
        for n, a, b in sparse_differences(basis_modes(mod.mode_index, alg.vacuum, j), {-1: {j: 1}}):
            report.fail(Witness(("vacuum-action", mod.basis[j]), (n,), a, b, mod.basis))
    # derivative property: Y_W(Dv, x) = d/dx Y_W(v, x)
    for i, dv in enumerate(d_columns(alg)):
        for j in range(dim_w):
            lhs = sparse_modes(mod.mode_index, dv, ((j, ONE),))
            rhs = mode_derivative(basis_modes(mod.mode_index, i, j))
            for n, a, b in sparse_differences(lhs, rhs):
                names = ("d-derivative", alg.basis[i], mod.basis[j])
                report.fail(Witness(names, (n,), a, b, mod.basis))
    # weak associativity, per triple; a (u, w) that holds for every v is uniform
    pairs = pair_analysis(alg, mod)
    failed = pairs.weak_assoc_failures(True)
    for u_idx, w_idx in failed:
        report.fail(pairs.assoc_witness(u_idx, w_idx))
    if len(failed) < alg.dim * dim_w:
        report.found_orders["max_assoc_order"] = 0
        report.notes.append(
            "uniform variant orders recorded per (u, w): max over middle arguments"
        )
    return report


# ---------------------------------------------------------------------------
# derived modules


def wn_module(
    alg: AlgebraStructure, mod: ModuleStructure, n: int
) -> tuple[AlgebraStructure, ModuleStructure]:
    """Column modules over the matrix structure: returns (M(n,alg), W^n).

    W^n is W tensor Q^n, on which v*M acts as Y(v, x) tensor M at mode -1.
    """
    require_acting_range(alg, mod)
    mat_alg = matrix_algebra(alg, n)
    mb = _MatrixBasis(n)
    return mat_alg, ModuleStructure(
        basis=tuple(f"{w}#c{c+1}" for w in mod.basis for c in range(n)),
        mode_index=table_tensor(mod.mode_index, mb.column_index(), mb.dim, mod.dim, n),
        meta={"source": "column-module", "n": n},
    )


def tensor_module(
    algs: list[AlgebraStructure], mods: list[ModuleStructure]
) -> tuple[AlgebraStructure, ModuleStructure]:
    """Tensor module over the tensor product structure (pairwise fold)."""
    if len(algs) != len(mods) or not algs:
        raise MalformedStructure("need one module per tensor factor")
    for alg, mod in zip(algs, mods):
        require_acting_range(alg, mod)
    mod_out = mods[0]
    for alg, mod in zip(algs[1:], mods[1:]):
        mod_out = ModuleStructure(
            basis=tuple(f"{x}*{y}" for x in mod_out.basis for y in mod.basis),
            mode_index=table_tensor(
                mod_out.mode_index, mod.mode_index, alg.dim, mod_out.dim, mod.dim
            ),
            meta={"source": "tensor-module"},
        )
    return tensor_product(algs), mod_out


# ---------------------------------------------------------------------------
# faithfulness and locality transfer


def is_faithful(alg: AlgebraStructure, mod: ModuleStructure) -> bool:
    """Exact rank test of the action map v -> (all modes of Y_W(v)).

    Row i holds the nonzero coordinates of every mode of e_i on every w_j,
    keyed by (j, mode, coordinate); the map is injective exactly when the
    rows are independent, which a sparse span decides row by row.
    """
    require_acting_range(alg, mod)
    rows: list[dict] = [{} for _ in range(alg.dim)]
    for (i, j), modes in mod.mode_index.items():
        for n, img in modes.items():
            rows[i].update(((j, n, k), c) for k, c in img)
    span = CoordSpan()
    return all(span.insert(row) is None for row in rows)


def check_locality_transfer(
    alg: AlgebraStructure,
    mod: ModuleStructure,
    u_idx: int,
    v_idx: int,
    q: Fraction,
    *,
    faithful: bool,
) -> CheckReport:
    """Algebra locality carries to modules; faithful modules carry it back.

    `faithful` is is_faithful(alg, mod), which callers decide once per module.
    """
    require_acting_range(alg, mod)
    require_basis(alg, u_idx, v_idx)
    report = CheckReport(f"locality-transfer[{alg.basis[u_idx]},{alg.basis[v_idx]}]")
    q = integral(q)
    alg_holds = find_locality_k(alg, u_idx, v_idx, q) is None
    # both relations hold at order zero or not at all (Laurent data collapses
    # every order); the module side is read off the module's pair analysis,
    # the algebra's own for the adjoint
    mod_pairs = pair_analysis(alg, mod)
    mod_holds = mod_pairs.commutes(u_idx, v_idx, q)
    report.found_orders["faithful"] = int(faithful)
    if alg_holds:
        report.found_orders["algebra_k"] = 0
        if not mod_holds:
            report.fail(mod_pairs.commutation_witness(u_idx, v_idx, q))
    if faithful and mod_holds and not alg_holds:
        report.fail(
            Witness(
                (alg.basis[u_idx], alg.basis[v_idx]),
                None,
                "module relation holds",
                "algebra relation should follow on a faithful module",
            )
        )
    if mod_holds:
        report.found_orders["module_k"] = 0
    report.notes.append(
        "agree" if (alg_holds == mod_holds or not faithful) else "disagree"
    )
    return report


def check_product_compatibility(
    alg: AlgebraStructure,
    mod: ModuleStructure,
    vs: list[int],
) -> None:
    """Compatibility of the actions of vs: always None, as it holds at order 0.

    Finitely supported action data makes every multiple product Y_W(v_1, x_1)
    ... Y_W(v_r, x_r) w a Laurent polynomial, so its (x_i - x_j)^k-damped
    form is lower-truncated at k = 0 for every vs: a stated invariant, with
    no witness to return.
    """
    return None


# ---------------------------------------------------------------------------
# generation


def generate_submodule(
    alg: AlgebraStructure, mod: ModuleStructure, start: Vec
) -> list[Vec]:
    """Basis of the submodule generated by start: start spun under every algebra basis vector.

    The rows are the accepted vectors in spin order, start first, not an RREF.
    """
    require_length(mod.dim, [start])
    acting = [((i, ONE),) for i in range(alg.dim)]
    rows = spin(mod.mode_index, acting, [{k: integral(c) for k, c in support(start)}], mod.dim)
    return [densify(v, mod.dim) for v in rows]


def generating_basis_vectors(alg: AlgebraStructure, mod: ModuleStructure) -> list[bool]:
    """Whether each module basis vector generates the whole module, spinning only where needed.

    The lattice invariant (the submodule reasoning of the MeatAxe; Holt and
    Rees 1994): when the spin from e_j closes on a proper submodule S, every
    basis vector inside S generates a submodule of S, so it does not
    generate the module and needs no spin of its own.  A vector is inside S
    when its residue modulo S's span is empty.
    """
    acting = [((i, ONE),) for i in range(alg.dim)]
    proper: list[CoordSpan] = []
    out = []
    for j in range(mod.dim):
        if any(not sub.residue({j: 1}) for sub in proper):
            out.append(False)
            continue
        sub = CoordSpan()
        spin(mod.mode_index, acting, [{j: 1}], mod.dim, sub)
        out.append(sub.dim == mod.dim)
        if sub.dim < mod.dim:
            proper.append(sub)
    return out
