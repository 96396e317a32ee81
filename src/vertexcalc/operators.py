"""Vertex operators on a finite-dimensional space and the closure engine.

A VertexOperator is an End(W)-valued Laurent polynomial: finitely many matrix
coefficients.  On finite-dimensional W every such operator lies in
End(W)((x)), so every ordered sequence of operators on the same space is
compatible at damping order zero.  That is a stated invariant, not a search:
find_compat_order only checks that the operands act on one space.  What is
computed here is the residue-defined products and the span generated from a
compatible set, which carries a full vertex-structure with W as a faithful
module.  The reordering transform T and the associativity relation the
products satisfy live with the tests, as the oracle the closed forms are
checked against.

The product formulas are evaluated in closed form.  Writing a(x) with
x-exponent coefficients A_p, b(x) with B_q, the n-th product collects
s(n,p) A_p B_q at exponent n+1+p+q, where

    s(n,p) = (-1)^(n+p+1) [ C(n, n+p+1) (if n+p+1 >= 0)
                           - C(n, -1-p)  (if p <= -1) ]

and the two indicator terms come from the residues of the two one-sided
expansions.  For n >= 0 the indicators coincide and cancel, which is the
truncation statement that products vanish at and above the compatibility
order.  The commutator-style variant composes the matrices the other way in
the second term.

Mode matrices are mostly zero, so each operator is stored as its nonzero
rows, {n: {r: {c: entry}}}, from construction to export: the image of a
basis vector is read straight off the structure's sparse mode index, and
the dense ``modes`` are a view computed on demand.  The residue products
multiply those rows row by row (Gustavson's sparse product, ACM TOMS 4,
1978) into one sparse accumulator, drop the entries that cancel to zero,
and build the result from it.  The closure span works on the same nonzero
entries: an operator's fingerprint is its rows flattened to
{(n, r, c): entry}, row-reduced in a sparse CoordSpan, so no exponent
window is fixed in advance and none has to grow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import AlgebraStructure
from .errors import InvalidArgument, MalformedStructure, NotCompatible
from .linalg import CoordSpan, Mat, Scalar, Vec, binom, densify
from .modules import ModuleStructure, check_module, is_faithful
from .report import INCONCLUSIVE, CheckReport, Witness

STATUS_CLOSED = "closed"
STATUS_CAP = "cap-exceeded"
STATUS_RANGE = "index-range-exhausted"


# nonzero-only rows of one matrix: row index -> {column index: nonzero entry}
Rows = dict[int, dict[int, Scalar]]


def _dense(dim: int, rows: Rows) -> Mat:
    return tuple(densify(rows.get(r, {}), dim) for r in range(dim))


class VertexOperator:
    """An End(W)-valued Laurent polynomial: every nonzero mode stored outright.

    ``rows`` holds each nonzero mode as nonzero-only rows and is the one
    stored form; ``modes`` is the same modes as dense matrices, built on read.
    """

    __slots__ = ("dim", "name", "rows")

    def __init__(self, dim: int, modes: dict[int, Mat] | None = None, name: str = ""):
        self.dim = dim
        self.name = name
        self.rows: dict[int, Rows] = {}
        for n, m in (modes or {}).items():
            m = tuple(tuple(Fraction(x) for x in row) for row in m)
            rows = {
                r: nz for r, row in enumerate(m) if (nz := {c: x for c, x in enumerate(row) if x})
            }
            if rows:
                self.rows[int(n)] = rows

    @classmethod
    def _from_rows(cls, dim: int, rows: dict[int, Rows], name: str = "") -> "VertexOperator":
        """An operator from nonzero-only rows of int or Fraction entries, taken as they are."""
        op = cls.__new__(cls)
        op.dim, op.name, op.rows = dim, name, rows
        return op

    # -- coefficient access ----------------------------------------------------

    @property
    def modes(self) -> dict[int, Mat]:
        """Each nonzero mode as a dense matrix."""
        return {n: _dense(self.dim, m) for n, m in self.rows.items()}

    def mode(self, n: int) -> Mat:
        return _dense(self.dim, self.rows.get(n, {}))

    def exp_bounds(self) -> tuple[int, int]:
        """(min exponent, max exponent), (0, 0) for the zero operator."""
        if not self.rows:
            return (0, 0)
        return (-max(self.rows) - 1, -min(self.rows) - 1)

    def is_zero(self) -> bool:
        return not self.rows

    def equal(self, other: "VertexOperator") -> bool:
        return self.dim == other.dim and self.rows == other.rows

    def __repr__(self) -> str:
        return f"VertexOperator({self.name or 'poly'}, modes={sorted(self.rows)})"


def identity_operator(dim: int, name: str = "1_W") -> VertexOperator:
    rows = {-1: {r: {r: 1} for r in range(dim)}} if dim else {}
    return VertexOperator._from_rows(dim, rows, name)


def operator_from_structure(
    alg: AlgebraStructure, v_idx: int, mod: ModuleStructure | None = None
) -> VertexOperator:
    """The image of a basis vector acting on a module (default: on itself).

    Column j of mode n is the image (e_v)_n w_j, read as its nonzero
    coordinates off the sparse mode index; modes and rows come in
    increasing order and each row's columns in increasing order.
    """
    act = alg if mod is None else mod
    modes: dict[int, Rows] = {}
    for j in range(act.dim):
        for n, img in act.mode_index.get((v_idx, j), {}).items():
            m = modes.setdefault(n, {})
            for r, c in img:
                m.setdefault(r, {})[j] = c
    rows = {n: {r: modes[n][r] for r in sorted(modes[n])} for n in sorted(modes)}
    return VertexOperator._from_rows(act.dim, rows, alg.basis[v_idx])


# ---------------------------------------------------------------------------
# compatibility


def find_compat_order(seq: list[VertexOperator]) -> None:
    """Refuse operators on different spaces: NotCompatible; otherwise None.

    Every operator is a Laurent polynomial and the variables of an ordered
    product do not interact, so every sequence of operators on one space is
    compatible at damping order zero: a stated invariant, not a search.
    """
    if len({op.dim for op in seq}) > 1:
        raise NotCompatible("operators act on different spaces")


# ---------------------------------------------------------------------------
# residue products


def _add_product(acc: Rows, w: int, x: Rows, y: Rows) -> None:
    """acc += w x y, one row of x at a time against the rows of y it selects."""
    for r, xr in x.items():
        out = None
        for k, xv in xr.items():
            yr = y.get(k)
            if yr is None:
                continue
            if out is None:
                out = acc.setdefault(r, {})
            f = w * xv
            for c, yv in yr.items():
                out[c] = out.get(c, 0) + f * yv


def _residue_product(
    a: VertexOperator, b: VertexOperator, n: int, local: bool
) -> VertexOperator:
    """The n-th residue product, composing the re-expanded term as b a when local."""
    find_compat_order([a, b])
    acc: dict[int, Rows] = {}
    for na, ra in a.rows.items():
        p = -na - 1
        sign = -1 if (n + p + 1) % 2 else 1
        # residue weights of the straight and the re-expanded kernel
        c1, c2 = sign * binom(n, n + p + 1), sign * binom(n, -1 - p)
        if not local:  # the straight product collects both residues on a b
            c1, c2 = c1 - c2, 0
        if c1 == 0 and c2 == 0:
            continue
        for nb, rb in b.rows.items():
            out = acc.setdefault(na + nb - n, {})  # the mode at exponent n+1+p+q
            if c1 != 0:
                _add_product(out, c1, ra, rb)
            if c2 != 0:
                _add_product(out, -c2, rb, ra)
    rows: dict[int, Rows] = {}
    for key, mrows in acc.items():
        kept = {r: nz for r, row in mrows.items() if (nz := {c: x for c, x in row.items() if x})}
        if kept:
            rows[key] = kept
    return VertexOperator._from_rows(a.dim, rows)


def nth_product(a: VertexOperator, b: VertexOperator, n: int) -> VertexOperator:
    """Residue product: Res_x1 of (x1-x)^n a(x1)b(x) minus its T-reexpansion.

    Exact and finitely supported; vanishes for n at or above the
    compatibility order as the two kernel expansions coincide.
    """
    return _residue_product(a, b, n, local=False)


def nth_product_local(a: VertexOperator, b: VertexOperator, n: int) -> VertexOperator:
    """Commutator-style product: the second residue reverses the composition.

    Agrees with nth_product on pairwise-local sets; on operators that carry
    nonnegative modes with noncommuting coefficients the two differ.
    """
    return _residue_product(a, b, n, local=True)


def certified_nonzero_range(
    a: VertexOperator, b: VertexOperator, local: bool
) -> tuple[int | None, int | None]:
    """Mode interval outside which a_n b provably vanishes: (lo or None, hi or None).

    local selects nth_product_local.  At n >= 0 the two residue weights of
    a mode of a agree, so the straight product vanishes there, while the
    local one weighs the commutator of that mode with b, so it can be
    nonzero at every n >= 0: no ceiling is certified.  When a has no
    nonnegative modes (no negative exponents), both variants vanish for
    n >= 0 and die below -1 - max_exp(a); otherwise the re-expanded kernel
    contributes at every depth and no finite floor is certified.
    """
    lo_a, hi_a = a.exp_bounds()
    if lo_a >= 0:
        return (-1 - hi_a, -1)
    return (None, None if local else -1)


# ---------------------------------------------------------------------------
# spans and closure


@dataclass
class OperatorSpan:
    """Representative operators with their row-reduced sparse fingerprints."""

    operators: list[VertexOperator]
    coords: CoordSpan

    @property
    def rank(self) -> int:
        return self.coords.dim


@dataclass
class ClosureResult:
    span: OperatorSpan
    structure: AlgebraStructure | None
    status: str
    certified: bool
    rounds: int
    notes: list[str] = field(default_factory=list)


# how many modes below n_range a pair with no certified mode floor is probed
PROBE_MARGIN = 2


def _fingerprint(op: VertexOperator) -> dict[tuple[int, int, int], Scalar]:
    """The operator's nonzero entries keyed by (mode, row, column)."""
    return {
        (n, r, c): x for n, rows in op.rows.items() for r, row in rows.items() for c, x in row.items()
    }


def closure(
    generators: list[VertexOperator],
    n_range: tuple[int, int] | None = None,
    dim_cap: int = 64,
    depth_cap: int = 8,
    local_products: bool = False,
    dim: int | None = None,
) -> ClosureResult:
    """Span of all residue-product words of the generators applied to 1_W.

    Rounds apply every generator mode in n_range to the current span and
    row-reduce the sparse fingerprints of the products until a fixpoint or
    a cap.  After a fixpoint the span is verified closed pairwise; when some
    pair's nonzero mode range has no certified floor, the PROBE_MARGIN modes
    just below n_range are probed, and likewise the PROBE_MARGIN modes above
    it when a local product has no certified ceiling; a new element there
    downgrades the status to index-range-exhausted.  No product outside its
    certified range is formed.  The default n_range reaches two modes
    below the lowest generator mode and always holds -1, the mode that puts
    each generator itself in the span.  An empty n_range, or a cap below 1,
    is an InvalidArgument.
    """
    if n_range is not None and n_range[0] > n_range[1]:
        raise InvalidArgument(f"empty mode range {n_range[0]}:{n_range[1]}")
    if dim_cap < 1 or depth_cap < 1:
        raise InvalidArgument(
            f"caps must be at least 1 (dim cap {dim_cap}, depth cap {depth_cap})"
        )
    if generators:
        dims = {op.dim for op in generators}
        if len(dims) != 1:
            raise NotCompatible("generators act on different spaces")
        dim = dims.pop()
    elif dim is None:
        raise MalformedStructure("an empty generating set needs the space dimension")
    product = nth_product_local if local_products else nth_product
    one = identity_operator(dim)
    if n_range is None:
        lo = min((min(op.rows) for op in generators if op.rows), default=-1)
        n_range = (min(lo - 2, -1), 0)
    n_lo, n_hi = n_range

    ops: list[VertexOperator] = [one]
    notes: list[str] = []
    coords = CoordSpan()
    coords.insert(_fingerprint(one))
    rounds = 0
    status = STATUS_CLOSED
    while True:
        rounds += 1
        if rounds > depth_cap:
            status = STATUS_CAP
            notes.append(f"depth cap {depth_cap} reached before a fixpoint")
            break
        grew = False
        for g in generators:
            for beta in list(ops):
                floor, ceiling = certified_nonzero_range(g, beta, local_products)
                top = n_hi if ceiling is None else min(n_hi, ceiling)
                bottom = n_lo if floor is None else max(n_lo, floor)
                # descending modes discover a, then its derivatives, in order
                for n in range(top, bottom - 1, -1):
                    cand = product(g, beta, n)
                    if cand.is_zero():
                        continue
                    if coords.insert(_fingerprint(cand)) is None:
                        ops.append(cand)
                        grew = True
                        if len(ops) > dim_cap:
                            return ClosureResult(
                                OperatorSpan(ops, coords),
                                None,
                                STATUS_CAP,
                                False,
                                rounds,
                                notes + [f"span exceeded the cap of {dim_cap}"],
                            )
        if not grew:
            break
    if status != STATUS_CLOSED:
        return ClosureResult(
            OperatorSpan(ops, coords), None, status, False, rounds, notes
        )

    # pairwise closure verification over certified or probed mode ranges
    certified = True
    y_data: dict[tuple[int, int], dict[int, Vec]] = {}
    for i, alpha in enumerate(ops):
        for j, beta in enumerate(ops):
            lo_cert, hi_cert = certified_nonzero_range(alpha, beta, local_products)
            if lo_cert is None:
                certified = False
                lo_cert = n_lo - PROBE_MARGIN
                notes.append(
                    f"pair ({i},{j}) has no certified mode floor; probed to {lo_cert}"
                )
            if hi_cert is None:
                certified = False
                hi_cert = max(n_hi, -1) + PROBE_MARGIN
                notes.append(
                    f"pair ({i},{j}) has no certified mode ceiling; probed to {hi_cert}"
                )
            modes: dict[int, Vec] = {}
            for n in range(lo_cert, hi_cert + 1):
                prod = product(alpha, beta, n)
                if prod.is_zero():
                    continue
                sol = coords.solve(_fingerprint(prod))
                if sol is None:
                    return ClosureResult(
                        OperatorSpan(ops, coords),
                        None,
                        STATUS_RANGE,
                        False,
                        rounds,
                        notes
                        + [
                            f"product of span elements ({i},{j}) at mode {n} "
                            "escapes the span"
                        ],
                    )
                modes[n] = sol
            if modes:
                y_data[(i, j)] = modes
    raw_names = [
        "1_W" if k == 0 else (op.name or f"op{k}") for k, op in enumerate(ops)
    ]
    seen: dict[str, int] = {}
    named = []
    for name in raw_names:
        if name in seen:
            seen[name] += 1
            named.append(f"{name}.{seen[name]}")
        else:
            seen[name] = 0
            named.append(name)
    structure = AlgebraStructure(
        basis=tuple(named),
        vacuum=0,
        y_data=y_data,
        meta={"source": "operator-closure"},
    )
    return ClosureResult(
        OperatorSpan(ops, coords),
        structure,
        STATUS_CLOSED,
        certified,
        rounds,
        notes,
    )


def closure_module(result: ClosureResult) -> ModuleStructure:
    """The underlying space as a module: basis vectors w_j, action by modes."""
    if result.structure is None:
        raise MalformedStructure("closure did not produce a structure")
    ops = result.span.operators
    dim_w = ops[0].dim
    basis = tuple(f"w{j+1}" for j in range(dim_w))
    action: dict[tuple[int, int], dict[int, Vec]] = {}
    for i, op in enumerate(ops):
        for nn, rows in op.rows.items():
            cols: dict[int, dict[int, Scalar]] = {}
            for r, row in rows.items():
                for j, x in row.items():
                    cols.setdefault(j, {})[r] = x
            for j in sorted(cols):
                action.setdefault((i, j), {})[nn] = densify(cols[j], dim_w)
    return ModuleStructure(basis=basis, action=action, meta={"source": "closure"})


def verify_module_structure(result: ClosureResult) -> CheckReport:
    """The closed span must act on W as a faithful module of itself."""
    report = CheckReport("closure-module")
    if result.status != STATUS_CLOSED or result.structure is None:
        report.verdict = INCONCLUSIVE
        report.notes.append("closure did not reach a certified span")
        return report
    mod = closure_module(result)
    inner = check_module(result.structure, mod)
    report.merge(inner)
    faithful = is_faithful(result.structure, mod)
    report.found_orders["faithful"] = int(faithful)
    if not faithful:
        report.fail(Witness(("faithfulness",), None, "rank-deficient action", "injective"))
    return report
