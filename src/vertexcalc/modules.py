"""Module structures over a vertex structure and their checkers.

A ModuleStructure carries the action modes v_n w for algebra basis vectors v
and module basis vectors w.  The checkers verify the module axioms (identity
action, truncation, and weak associativity, decided like the algebra's by one
exact comparison), the derivative property of the translation operator,
locality transfer between an algebra and a faithful module, and the
compatibility of multi-operator products, which finite support makes an
invariant (damping order zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    AlgebraStructure,
    ModeMap,
    ModeTable,
    assoc_search,
    clean_table,
    commutation_differences,
    d_images,
    find_locality_k,
    mode_derivative,
    table_apply,
    table_exp_radius,
    table_matrix,
    table_mode_map,
    term_differences,
)
from .construct import _MatrixBasis, matrix_algebra, tensor_product
from .errors import MalformedStructure
from .linalg import (
    Mat,
    SpanBasis,
    Vec,
    is_zero_vec,
    rank,
    unit_vec,
    vec_add,
    zero_vec,
)
from .report import FOUND, CheckReport, OrderSearch, Witness


@dataclass
class ModuleStructure:
    """Finite module basis and action modes (e_i)_n w_j, finitely supported.

    The action is a mode table like an algebra's y_data, read through the
    same table functions; only the acting basis is the algebra's.  A module
    does not know its algebra, so the acting indices are checked against it
    by require_acting_range wherever the two meet.
    """

    basis: tuple[str, ...]
    action: ModeTable  # (algebra idx, module idx) -> {n: vec}
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.basis = tuple(self.basis)
        if not self.basis:
            raise MalformedStructure("empty module basis")
        self.action = clean_table(self.action, self.dim, None)

    dim = AlgebraStructure.dim
    unit = AlgebraStructure.unit

    def apply_mode(self, u: Vec, n: int, w: Vec) -> Vec:
        return table_apply(self.action, self.dim, u, n, w)

    def mode_map(self, u: Vec, w: Vec) -> ModeMap:
        return table_mode_map(self.action, u, w)

    def exp_radius(self) -> int:
        return table_exp_radius(self.action)

    def mode_matrix(self, u: Vec, n: int) -> Mat:
        return table_matrix(self.action, self.dim, u, n)


def require_acting_range(alg: AlgebraStructure, mod: ModuleStructure) -> None:
    """Raise MalformedStructure when the action names an index outside alg's basis."""
    stray = sorted({i for i, _j in mod.action if not 0 <= i < alg.dim})
    if stray:
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

    Every triple (u, v, w) is decided by assoc_search with the module as the
    acting table; its order is 0 whenever the relation holds.  When some
    (u, w) holds for every middle argument, the report records the uniform
    order, the maximum over middle arguments, which is then 0 as well.
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
    for i, dv in enumerate(d_images(alg)):
        for j in range(dim_w):
            lhs = mod.mode_map(dv, mod.unit(j))
            rhs = mode_derivative(mod.mode_map(alg.unit(i), mod.unit(j)))
            for n, a, b in term_differences(lhs, rhs, zero_vec(dim_w)):
                report.fail(Witness(("d-derivative", alg.basis[i], mod.basis[j]), (n,), a, b))
    # weak associativity, per triple; a (u, w) that holds for every v is uniform
    uniform = False
    for u_idx in range(alg.dim):
        for w_idx in range(dim_w):
            for v_idx in range(alg.dim):
                search = assoc_search(
                    alg,
                    mod,
                    alg.unit(u_idx),
                    alg.unit(v_idx),
                    mod.unit(w_idx),
                    (alg.basis[u_idx], alg.basis[v_idx], mod.basis[w_idx]),
                )
                if not search.found:
                    report.fail(search.witness)
                    break
            else:
                uniform = True
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
    """Column modules over the matrix structure: returns (M(n,alg), W^n)."""
    mat_alg = matrix_algebra(alg, n)
    mb = _MatrixBasis(n)
    dim_w = mod.dim
    basis = tuple(f"{w}#c{c+1}" for w in mod.basis for c in range(n))

    def pack(j: int, c: int) -> int:
        return j * n + c

    action: dict[tuple[int, int], ModeMap] = {}
    for (i, j), modes in mod.action.items():
        for mi in range(mb.dim):
            entries = mb.entries(mi)  # the matrix part of basis vector v*M
            for c in range(n):
                out_modes: ModeMap = {}
                for nn, w in modes.items():
                    out = [Fraction(0)] * (dim_w * n)
                    hit = False
                    for (r, cc), val in entries.items():
                        if cc == c:
                            for wj, cwj in enumerate(w):
                                if cwj != 0:
                                    out[pack(wj, r)] += val * cwj
                                    hit = True
                    if hit:
                        out_modes[nn] = tuple(out)
                if out_modes:
                    action[(i * mb.dim + mi, pack(j, c))] = out_modes
    return mat_alg, ModuleStructure(
        basis=basis, action=action, meta={"source": "column-module", "n": n}
    )


def tensor_module(
    algs: list[AlgebraStructure], mods: list[ModuleStructure]
) -> tuple[AlgebraStructure, ModuleStructure]:
    """Tensor module over the tensor product structure (pairwise fold)."""
    if len(algs) != len(mods) or not algs:
        raise MalformedStructure("need one module per tensor factor")
    alg_out = tensor_product(algs)
    mod_out = mods[0]
    cur_alg = algs[0]
    for nxt_alg, nxt_mod in zip(algs[1:], mods[1:]):
        mod_out = _tensor_module_pair(cur_alg, mod_out, nxt_alg, nxt_mod)
        cur_alg = tensor_product([cur_alg, nxt_alg])
    return alg_out, mod_out


def _tensor_module_pair(
    alg_a: AlgebraStructure,
    mod_a: ModuleStructure,
    alg_b: AlgebraStructure,
    mod_b: ModuleStructure,
) -> ModuleStructure:
    basis = tuple(f"{x}*{y}" for x in mod_a.basis for y in mod_b.basis)
    da, db = mod_a.dim, mod_b.dim

    def packw(ja: int, jb: int) -> int:
        return ja * db + jb

    action: dict[tuple[int, int], ModeMap] = {}
    for (ia, ja), modes_a in mod_a.action.items():
        for (ib, jb), modes_b in mod_b.action.items():
            out_modes: ModeMap = {}
            for na, va in modes_a.items():
                for nb, vb in modes_b.items():
                    nn = na + nb + 1
                    out = [Fraction(0)] * (da * db)
                    for ra, ca in enumerate(va):
                        if ca == 0:
                            continue
                        for rb, cb in enumerate(vb):
                            if cb != 0:
                                out[packw(ra, rb)] += ca * cb
                    wt = tuple(out)
                    out_modes[nn] = (
                        vec_add(out_modes[nn], wt) if nn in out_modes else wt
                    )
            out_modes = {n: v for n, v in out_modes.items() if not is_zero_vec(v)}
            if out_modes:
                action[(ia * alg_b.dim + ib, packw(ja, jb))] = out_modes
    return ModuleStructure(basis=basis, action=action, meta={"source": "tensor-module"})


def check_embedded_actions_commute(
    alg_a: AlgebraStructure,
    alg_b: AlgebraStructure,
    mod: ModuleStructure,
) -> CheckReport:
    """On a tensor module, u (x) 1 and 1 (x) v must commute exactly."""
    report = CheckReport("embedded-actions-commute")
    dim = alg_a.dim * alg_b.dim

    def emb_a(i: int) -> Vec:
        return unit_vec(dim, i * alg_b.dim + alg_b.vacuum)

    def emb_b(i: int) -> Vec:
        return unit_vec(dim, alg_a.vacuum * alg_b.dim + i)

    for i in range(alg_a.dim):
        for j in range(alg_b.dim):
            for w_idx in range(mod.dim):
                diffs = commutation_differences(mod, emb_a(i), emb_b(j), mod.unit(w_idx), 1)
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
    """Exact rank test of the action map v -> (all modes of Y_W(v))."""
    require_acting_range(alg, mod)
    exps = sorted({n for modes in mod.action.values() for n in modes})
    rows = []
    for i in range(alg.dim):
        row: list[Fraction] = []
        for j in range(mod.dim):
            modes = mod.action.get((i, j), {})
            for n in exps:
                row.extend(modes.get(n, zero_vec(mod.dim)))
        rows.append(tuple(row))
    return rank(rows) == alg.dim


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
    q = Fraction(q)
    alg_loc = find_locality_k(alg, u_idx, v_idx, q)
    u, v = alg.unit(u_idx), alg.unit(v_idx)
    # module-side relation at order zero (Laurent data collapses every order)
    witness = None
    for w_idx in range(mod.dim):
        diffs = commutation_differences(mod, u, v, mod.unit(w_idx), q)
        if diffs:
            names = (alg.basis[u_idx], alg.basis[v_idx], mod.basis[w_idx])
            witness = Witness(names, *diffs[0])
            break
    mod_holds = witness is None
    report.found_orders["faithful"] = int(faithful)
    if alg_loc.found:
        report.found_orders["algebra_k"] = alg_loc.order
        if not mod_holds:
            report.fail(witness)
    if faithful and mod_holds and not alg_loc.found:
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
        "agree" if (alg_loc.found == mod_holds or not faithful) else "disagree"
    )
    return report


def check_product_compatibility(
    alg: AlgebraStructure,
    mod: ModuleStructure,
    vs: list[int],
) -> OrderSearch:
    """Least k with the (x_i - x_j)^k-damped operator product lower-truncated.

    Finitely supported action data makes every multiple product Y_W(v_1, x_1)
    ... Y_W(v_r, x_r) w a Laurent polynomial, so the answer is always k = 0:
    this is the stated invariant, not a search.
    """
    return OrderSearch(FOUND, order=0)


# ---------------------------------------------------------------------------
# generation


def generate_submodule(
    alg: AlgebraStructure, mod: ModuleStructure, start: Vec
) -> list[Vec]:
    """Span saturation of one vector under every algebra mode."""
    span = SpanBasis([start])
    modes = sorted({n for mm in mod.action.values() for n in mm})
    changed = True
    rounds = 0
    while changed:
        changed = False
        rounds += 1
        if rounds > mod.dim + 1:
            break
        for i in range(alg.dim):
            for b in list(span.rows):
                for n in modes:
                    w = mod.apply_mode(alg.unit(i), n, b)
                    if not is_zero_vec(w) and span.add(w):
                        changed = True
    return list(span.rows)


def generating_basis_vectors(alg: AlgebraStructure, mod: ModuleStructure) -> list[bool]:
    """Whether each module basis vector generates the whole module."""
    return [
        len(generate_submodule(alg, mod, mod.unit(j))) == mod.dim
        for j in range(mod.dim)
    ]
