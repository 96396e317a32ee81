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
Column and tensor modules take their action tables from
construct.table_tensor, the one tensor kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    AlgebraStructure,
    ModeIndex,
    ModeMap,
    ModeTable,
    clean_table,
    d_columns,
    find_locality_k,
    mode_derivative,
    sparse_modes,
    spin,
    table_apply,
    table_exp_radius,
    table_index,
    table_matrix,
    table_mode_map,
    term_differences,
)
from .construct import _MatrixBasis, matrix_algebra, table_tensor, tensor_product
from .errors import MalformedStructure
from .linalg import (
    ONE,
    CoordSpan,
    Mat,
    Vec,
    densify,
    integral,
    support,
)
from .pairs import PairAnalysis, acting_columns, pair_analysis, scatter_products
from .report import CheckReport, Witness


@dataclass
class ModuleStructure:
    """Finite module basis and action modes (e_i)_n w_j, finitely supported.

    The action is a mode table like an algebra's y_data, read through the
    same table functions, with its sparse image index `mode_index` built
    once; only the acting basis is the algebra's.  A module does not know
    its algebra, so the acting indices are checked against it by
    require_acting_range wherever the two meet, against `acting`, the sorted
    acting indices the action names, found once.  `_pairs` holds the pair
    analysis of the module under the algebra it was last checked with
    (pairs.pair_analysis), built on first use.
    """

    basis: tuple[str, ...]
    action: ModeTable  # (algebra idx, module idx) -> {n: vec}
    meta: dict = field(default_factory=dict)
    mode_index: ModeIndex = field(init=False, repr=False, compare=False)
    acting: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _pairs: PairAnalysis | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.basis = tuple(self.basis)
        if not self.basis:
            raise MalformedStructure("empty module basis")
        self.action = clean_table(self.action, self.dim, None)
        self.mode_index = table_index(self.action)
        self.acting = tuple(sorted({i for i, _j in self.action}))

    dim = AlgebraStructure.dim
    unit = AlgebraStructure.unit

    def apply_mode(self, u: Vec, n: int, w: Vec) -> Vec:
        return table_apply(self.mode_index, u, n, w)

    def mode_map(self, u: Vec, w: Vec) -> ModeMap:
        return table_mode_map(self.mode_index, u, w)

    def exp_radius(self) -> int:
        return table_exp_radius(self.action)

    def mode_matrix(self, u: Vec, n: int) -> Mat:
        return table_matrix(self.mode_index, self.dim, u, n)


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
    action = {key: dict(modes) for key, modes in alg.y_data.items()}
    return ModuleStructure(
        basis=alg.basis, action=action, meta={"source": "adjoint"}
    )


# ---------------------------------------------------------------------------
# module axiom checks


def check_module(alg: AlgebraStructure, mod: ModuleStructure) -> CheckReport:
    """Identity action, derivative property, and module weak associativity.

    Every triple (u, v, w) is decided by the module's pair analysis
    (algebra.assoc_sides with the module as the acting table); its order is
    0 whenever the relation holds.  When some (u, w) holds for every middle
    argument, the report records the uniform order, the maximum over middle
    arguments, which is then 0 as well.
    """
    require_acting_range(alg, mod)
    report = CheckReport("module-axioms")
    dim_w = mod.dim
    # identity action
    for j in range(dim_w):
        modes = mod.action.get((alg.vacuum, j), {})
        expect = {n: v for n, v in modes.items()}
        if expect.get(-1) != mod.unit(j) or any(n != -1 for n in expect):
            report.fail(
                Witness(
                    ("vacuum-action", mod.basis[j]),
                    None,
                    expect,
                    {-1: mod.unit(j)},
                )
            )
    # derivative property: Y_W(Dv, x) = d/dx Y_W(v, x)
    for i, dv in enumerate(d_columns(alg)):
        for j in range(dim_w):
            uj = ((j, ONE),)
            lhs = sparse_modes(mod.mode_index, dv, uj)
            rhs = mode_derivative(sparse_modes(mod.mode_index, ((i, ONE),), uj))
            for n, a, b in term_differences(lhs, rhs, dim_w):
                report.fail(Witness(("d-derivative", alg.basis[i], mod.basis[j]), (n,), a, b))
    # weak associativity, per triple; a (u, w) that holds for every v is uniform
    pairs = pair_analysis(alg, mod)
    uniform = False
    for u_idx in range(alg.dim):
        for w_idx in range(dim_w):
            v_idx = pairs.failing_middle(u_idx, w_idx)
            if v_idx is None:
                uniform = True
                continue
            names = (alg.basis[u_idx], alg.basis[v_idx], mod.basis[w_idx])
            report.fail(Witness(names, *pairs.assoc_failure(u_idx, v_idx, w_idx)))
    if uniform:
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
        action=table_tensor(mod.mode_index, mb.column_index(), mb.dim, mod.dim, n),
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
            action=table_tensor(mod_out.mode_index, mod.mode_index, alg.dim, mod_out.dim, mod.dim),
            meta={"source": "tensor-module"},
        )
    return tensor_product(algs), mod_out


def check_embedded_actions_commute(
    alg_a: AlgebraStructure,
    alg_b: AlgebraStructure,
    mod: ModuleStructure,
) -> CheckReport:
    """On a tensor module, u (x) 1 and 1 (x) v must commute exactly.

    Both orders of each embedded pair are read off one scatter of each
    basis w (pairs.scatter_products) over the dim_a * dim_b acting vectors.
    """
    report = CheckReport("embedded-actions-commute")
    n = alg_a.dim * alg_b.dim
    cols = acting_columns(mod.mode_index, n)
    prods = [scatter_products(mod.mode_index, cols, w_idx, n) for w_idx in range(mod.dim)]
    for i in range(alg_a.dim):
        a = i * alg_b.dim + alg_b.vacuum
        for j in range(alg_b.dim):
            b = alg_a.vacuum * alg_b.dim + j
            for w_idx, on_w in enumerate(prods):
                reverse = {(e1, e2): c for (e2, e1), c in on_w.get((b, a), {}).items()}
                diffs = term_differences(on_w.get((a, b), {}), reverse, mod.dim)
                # witnesses name the modes (n1, n2), in increasing order
                for e, lhs, rhs in reversed(diffs):
                    report.fail(
                        Witness(
                            (alg_a.basis[i], alg_b.basis[j], mod.basis[w_idx]),
                            (-e[0] - 1, -e[1] - 1),
                            lhs,
                            rhs,
                        )
                    )
    return report


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
            w_idx, *diff = next(mod_pairs.commutation_failures(u_idx, v_idx, q))
            report.fail(Witness((alg.basis[u_idx], alg.basis[v_idx], mod.basis[w_idx]), *diff))
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
    acting = [((i, ONE),) for i in range(alg.dim)]
    rows = spin(mod.mode_index, acting, [{k: integral(c) for k, c in support(start)}], mod.dim)
    return [densify(v, mod.dim) for v in rows]


def generating_basis_vectors(alg: AlgebraStructure, mod: ModuleStructure) -> list[bool]:
    """Whether each module basis vector generates the whole module."""
    return [
        len(generate_submodule(alg, mod, mod.unit(j))) == mod.dim
        for j in range(mod.dim)
    ]
