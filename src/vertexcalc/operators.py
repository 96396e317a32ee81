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
the second term.  Whether the modes of a product reach down, or up, without
end is decided by one invariant, endless_modes, so the closure reads each
pair at exactly the modes where its product can be nonzero.

Mode matrices are mostly zero, so each operator is stored as its nonzero
rows, {n: {r: {c: entry}}}, from construction to export, and that is the
one form its constructor takes: the image of a basis vector is read
straight off the structure's sparse mode index, and the file format's
dense matrices are read and written in vertexcalc.fileio only.  The
residue products multiply those rows row by row (Gustavson's sparse
product, ACM TOMS 4, 1978) into one sparse accumulator, drop the entries
that cancel to zero, and build the result from it.  The closure span works on the same nonzero
entries: an operator's fingerprint is its rows flattened to
{(n, r, c): entry}, row-reduced in a sparse CoordSpan, so no exponent
window is fixed in advance and none has to grow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import AlgebraStructure, ModeIndex, require_basis
from .errors import InvalidArgument, MalformedStructure, NotCompatible
from .linalg import CoordSpan, Scalar, binom
from .modules import ModuleStructure, check_module, is_faithful
from .report import INCONCLUSIVE, CheckReport, Witness

STATUS_CLOSED = "closed"
STATUS_INFINITE = "infinite-dimensional"
STATUS_CAP = "cap-exceeded"


# nonzero-only rows of one matrix: row index -> {column index: nonzero entry}
Rows = dict[int, dict[int, Scalar]]


class VertexOperator:
    """An End(W)-valued Laurent polynomial: every nonzero mode stored outright.

    ``rows`` holds each nonzero mode n as its nonzero-only rows {r: {c:
    entry}}, entries int or Fraction, and is the one stored form; the
    constructor takes it as it is.
    """

    __slots__ = ("dim", "name", "rows")

    def __init__(self, dim: int, rows: dict[int, Rows], name: str = ""):
        self.dim, self.name, self.rows = dim, name, rows

    # -- coefficient access ----------------------------------------------------

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
    return VertexOperator(dim, rows, name)


def operator_from_structure(
    alg: AlgebraStructure, v_idx: int, mod: ModuleStructure | None = None
) -> VertexOperator:
    """The image of a basis vector acting on a module (default: on itself).

    Column j of mode n is the image (e_v)_n w_j, read as its nonzero
    coordinates off the sparse mode index; modes and rows come in
    increasing order and each row's columns in increasing order.  An index
    outside range(alg.dim) is refused.
    """
    require_basis(alg, v_idx)
    act = alg if mod is None else mod
    modes: dict[int, Rows] = {}
    for j in range(act.dim):
        for n, img in act.mode_index.get((v_idx, j), {}).items():
            m = modes.setdefault(n, {})
            for r, c in img:
                m.setdefault(r, {})[j] = c
    rows = {n: {r: modes[n][r] for r in sorted(modes[n])} for n in sorted(modes)}
    return VertexOperator(act.dim, rows, alg.basis[v_idx])


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
    return VertexOperator(a.dim, rows)


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


def _composes_to_nonzero(x: Rows, y: Rows) -> bool:
    """Whether the matrix product x y has a nonzero entry."""
    acc: Rows = {}
    _add_product(acc, 1, x, y)
    return any(v for row in acc.values() for v in row.values())


def endless_modes(
    a: VertexOperator, b: VertexOperator, local: bool
) -> tuple[int, int] | None:
    """Modes (n_a, n_b), n_a >= 0, whose coefficients A, B compose to nonzero; else None.

    local selects nth_product_local, for which B A counts as well as A B.
    This decides the mode tail of a_n b exactly.  Below the least mode of
    a, a_n b at mode s - n is (-1)^n times the sum over n_a + n_b = s,
    n_a >= 0, of -(-1)^n_a C(n, n_a) A B (B A when local); at n >= 0 the
    straight product vanishes and the local one is (-1)^n times the sum of
    (-1)^n_a C(n, n_a) [A, B].  The weights C(n, n_a) are independent
    polynomials in n, and products with n far apart have disjoint mode
    supports, so a_n b is nonzero at infinitely many n, and the closure is
    infinite-dimensional, exactly when modes are returned.  Otherwise a_n b
    vanishes outside [least mode of a, -1] (H. Li, Selecta Math. 11, 2005;
    Bakalov-Kac, math.QA/0204282).
    """
    for na, ra in a.rows.items():
        if na >= 0:
            for nb, rb in b.rows.items():
                if _composes_to_nonzero(ra, rb) or (local and _composes_to_nonzero(rb, ra)):
                    return (na, nb)
    return None


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
    """certified: the status is exact, closed or infinite-dimensional."""

    span: OperatorSpan
    structure: AlgebraStructure | None
    status: str
    certified: bool
    rounds: int
    notes: list[str] = field(default_factory=list)


def _fingerprint(op: VertexOperator) -> dict[tuple[int, int, int], Scalar]:
    """The operator's nonzero entries keyed by (mode, row, column)."""
    return {
        (n, r, c): x for n, rows in op.rows.items() for r, row in rows.items() for c, x in row.items()
    }


def _span_name(k: int) -> str:
    return "1_W" if k == 0 else f"op{k}"


def _support(op: VertexOperator) -> tuple[frozenset[int], frozenset[int]]:
    """(columns, rows) of op over all its modes: where its matrices read and write."""
    rows = frozenset(r for mrows in op.rows.values() for r in mrows)
    cols = frozenset(c for mrows in op.rows.values() for row in mrows.values() for c in row)
    return cols, rows


def closure(
    generators: list[VertexOperator],
    dim_cap: int = 64,
    local_products: bool = False,
    dim: int | None = None,
) -> ClosureResult:
    """Span of all residue-product words of the generators applied to 1_W.

    Rounds apply every generator mode to the span elements added since the
    generator last ran and row-reduce the sparse fingerprints of the
    products until a fixpoint, or until the span holds more than dim_cap
    operators: the one cap, which also bounds the rounds to dim_cap + 1,
    as every round that goes on adds one.
    After a fixpoint the span is verified closed pairwise.  Each pair's
    modes are decided by endless_modes: a pair whose products are nonzero
    at infinitely many n ends the closure at once as infinite-dimensional,
    an exact verdict; any other pair a, b is read at the modes from the
    least mode of a to -1, outside which a_n b vanishes.  Those words span
    the closure, so a verified product that escapes the span breaks that
    theorem and raises MalformedStructure, naming the pair and the mode.
    The verification forms only the products generation has not, by three
    invariants.  A pair whose supports do not meet, no column of a a row of
    b (nor, for the local product, a column of b a row of a), has every
    product zero and no endless tail, so neither generation nor the
    verification forms one.  The vacuum axiom 1_{-1} b = b, with 1_W
    carrying mode -1 alone, gives row 0 as (1_W)_{-1} e_j = e_j.  At the
    fixpoint each generator g has met every span element at every mode
    from its least to -1, and g_{-1} 1_W = g, so the row of the span
    element equal to g reads the coordinates generation reduced its
    products to, which are unique over the independent reps.
    A cap below 1 is an InvalidArgument; a dim the generators do not act
    on is NotCompatible.
    """
    if dim_cap < 1:
        raise InvalidArgument(f"the dim cap must be at least 1, not {dim_cap}")
    if dim is None:
        if not generators:
            raise MalformedStructure("an empty generating set needs the space dimension")
        dim = generators[0].dim
    if any(op.dim != dim for op in generators):
        raise NotCompatible(f"generators act on different spaces, not all of dimension {dim}")
    product = nth_product_local if local_products else nth_product
    one = identity_operator(dim)

    ops: list[VertexOperator] = [one]
    supports = [_support(one)]
    coords = CoordSpan(coords=True)
    coords.insert(_fingerprint(one))
    rounds = 0

    def meet(a: tuple, b: tuple) -> bool:
        """Whether a_n b can be nonzero for some n, from the supports of a and b."""
        return not a[0].isdisjoint(b[1]) or (local_products and not b[0].isdisjoint(a[1]))

    def ended(status: str, note: str) -> ClosureResult:
        exact = status == STATUS_INFINITE
        return ClosureResult(OperatorSpan(ops, coords), None, status, exact, rounds, [note])

    def endless(a: VertexOperator, a_name: str, b: VertexOperator, b_name: str):
        modes = endless_modes(a, b, local_products)
        if modes is None:
            return None
        return ended(
            STATUS_INFINITE,
            f"modes {modes} of ({a_name}, {b_name}) compose to nonzero: "
            "their n-th products are nonzero at infinitely many n",
        )

    # the span elements each generator has met: its products with them are
    # already in the span, so a round applies it only to the ones added since
    done = [0] * len(generators)
    gen_supports = [_support(g) for g in generators]
    # made[k][j]: the nonzero modes n of g_k's products with span element j,
    # descending, each as its coordinates over the reps; absent when the
    # supports do not meet
    made: list[dict[int, dict[int, dict[int, Scalar]]]] = [{} for _ in generators]
    while True:
        rounds += 1
        grew = False
        for k, g in enumerate(generators):
            start, done[k] = done[k], len(ops)
            for j in range(start, done[k]):
                if not meet(gen_supports[k], supports[j]):
                    continue
                beta = ops[j]
                if stop := endless(g, g.name or f"generator {k}", beta, _span_name(j)):
                    return stop
                modes = made[k][j] = {}
                # descending modes discover a, then its derivatives, in order
                for n in range(-1, min(g.rows, default=0) - 1, -1):
                    cand = product(g, beta, n)
                    if cand.is_zero():
                        continue
                    sol = coords.insert(_fingerprint(cand))
                    if sol is None:  # the product is the new rep len(ops)
                        sol = {len(ops): 1}
                        ops.append(cand)
                        supports.append(_support(cand))
                        grew = True
                        if len(ops) > dim_cap:
                            return ended(STATUS_CAP, f"span exceeded the cap of {dim_cap}")
                    modes[n] = sol
        if not grew:
            break

    # the span element equal to each generator: g_{-1} 1_W, when it is one rep
    generator_rows: dict[int, int] = {}
    for k, g in enumerate(generators):
        for i, c in made[k].get(0, {}).get(-1, {}).items():
            if c == 1 and ops[i].equal(g):
                generator_rows.setdefault(i, k)

    # pairwise closure verification over each pair's exact mode range; row 0
    # is the vacuum axiom
    names = [_span_name(k) for k in range(len(ops))]
    index: ModeIndex = {
        (0, j): {-1: ((j, 1),)} for j in range(len(ops)) if meet(supports[0], supports[j])
    }
    for i in range(1, len(ops)):
        alpha, k = ops[i], generator_rows.get(i)
        for j, beta in enumerate(ops):
            if not meet(supports[i], supports[j]):
                continue
            if k is not None:  # generation formed and reduced this row
                if modes := made[k].get(j):
                    index[(i, j)] = {n: sol.items() for n, sol in reversed(modes.items())}
                continue
            if stop := endless(alpha, names[i], beta, names[j]):
                return stop
            modes = {}
            for n in range(min(alpha.rows, default=0), 0):
                prod = product(alpha, beta, n)
                if prod.is_zero():
                    continue
                escape, sol = coords.reduce(_fingerprint(prod))
                if escape:
                    raise MalformedStructure(
                        f"product ({names[i]}, {names[j]}) at mode {n} escapes the generated span"
                    )
                modes[n] = sol.items()
            if modes:
                index[(i, j)] = modes
    structure = AlgebraStructure(
        basis=tuple(names),
        vacuum=0,
        mode_index=index,
        meta={"source": "operator-closure"},
    )
    return ClosureResult(OperatorSpan(ops, coords), structure, STATUS_CLOSED, True, rounds)


def closure_module(result: ClosureResult) -> ModuleStructure:
    """The underlying space as a module: basis vectors w_j, action by modes."""
    if result.structure is None:
        raise MalformedStructure("closure did not produce a structure")
    ops = result.span.operators
    dim_w = ops[0].dim
    basis = tuple(f"w{j+1}" for j in range(dim_w))
    action: ModeIndex = {}
    for i, op in enumerate(ops):
        for nn, rows in op.rows.items():
            cols: dict[int, dict[int, Scalar]] = {}
            for r, row in rows.items():
                for j, x in row.items():
                    cols.setdefault(j, {})[r] = x
            for j in sorted(cols):
                action.setdefault((i, j), {})[nn] = cols[j].items()
    return ModuleStructure(basis=basis, mode_index=action, meta={"source": "closure"})


def verify_module_structure(result: ClosureResult) -> CheckReport:
    """The closed span must act on W as a faithful module of itself: check_module, then faithful."""
    if result.status != STATUS_CLOSED or result.structure is None:
        note = "closure did not reach a certified span"
        return CheckReport("closure-module", INCONCLUSIVE, notes=[note])
    mod = closure_module(result)
    report = check_module(result.structure, mod)
    report.name = "closure-module"
    faithful = is_faithful(result.structure, mod)
    report.found_orders["faithful"] = int(faithful)
    if not faithful:
        report.fail(Witness(("faithfulness",), None, "rank-deficient action", "injective"))
    return report
