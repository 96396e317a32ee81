"""Windowed and dense operator formulas: the test-side oracle for vertexcalc.operators.

The package keeps each vertex operator as its nonzero rows and computes
residue products in closed form.  This module keeps the formulas those
closed forms are checked against, evaluated on dense matrices and windowed
distributions:

- `exps`, `distribution` and `derivative`, the operator read by x-exponent,
  as a windowed matrix-valued distribution, and differentiated;
- `product_distribution` and `truncated_t`, the product a(x1) b(x2) and
  the reordering transform T of Bakalov and Kac (math.QA/0204282), literally
  damped by (x1-x2)^k and re-expanded in the opposite region;
- `check_prop_assoc`, the associativity relation of the residue products,
  with a window-sound branch where the residue sum reaches down without end;
- `dense_operator_from_structure` and `dense_closure_module`, which build an
  operator from dense mode matrices and read a closure's action off them;
- `dense_operator` and `dense_modes`, an operator from dense mode matrices
  and its nonzero modes as dense matrices, the dense constructor and view
  the package had before an operator took only its sparse rows;
- `reference_closure`, the closure that forms every product of every
  generator with every span element and then verifies every ordered pair
  of span elements at every mode of its range, with no pair skipped and no
  row read off generation.
"""

from fractions import Fraction

from reference_tables import index_from_dense, mode_matrix, table_of, term_differences

from vertexcalc.algebra import AlgebraStructure, Terms, add_term
from vertexcalc.errors import MalformedStructure, NotCompatible
from vertexcalc.linalg import (
    CoordSpan,
    binom,
    densify,
    integral,
    mat_mul,
    mat_scale,
    mat_vec,
    support,
)
from vertexcalc.modules import ModuleStructure
from vertexcalc.operators import (
    STATUS_CAP,
    STATUS_CLOSED,
    STATUS_INFINITE,
    ClosureResult,
    OperatorSpan,
    VertexOperator,
    _fingerprint,
    endless_modes,
    find_compat_order,
    identity_operator,
    nth_product,
    nth_product_local,
)
from vertexcalc.report import CheckReport, Witness
from vertexcalc.series import Window, binom_expand, from_terms, mul, power_expand


# -- dense modes ------------------------------------------------------------------


def dense_operator(dim, modes, name=""):
    """The operator whose mode n is the dense matrix modes[n]; zero rows and modes are dropped."""
    rows = {}
    for n, m in modes.items():
        nz = {r: {c: integral(x) for c, x in enumerate(row) if x} for r, row in enumerate(m)}
        if nz := {r: row for r, row in nz.items() if row}:
            rows[n] = nz
    return VertexOperator(dim, rows, name)


def dense_modes(op):
    """Each nonzero mode of op as a dense matrix of Fractions."""
    dim = op.dim
    return {n: tuple(densify(rows.get(r, {}), dim) for r in range(dim)) for n, rows in op.rows.items()}


# -- the operator as a series ----------------------------------------------------


def exps(op, lo=None, hi=None):
    """Nonzero coefficients by x-exponent, optionally windowed to [lo, hi]."""
    out = {-n - 1: m for n, m in dense_modes(op).items()}
    if lo is not None:
        out = {p: m for p, m in out.items() if p >= lo}
    if hi is not None:
        out = {p: m for p, m in out.items() if p <= hi}
    return out


def distribution(op, var, window):
    """The operator as a matrix-valued distribution on a window."""
    lo, hi = window.bounds[0]
    return from_terms((var,), {(p,): m for p, m in exps(op, lo, hi).items()}, window)


def derivative(op):
    out = {}
    for p, m in exps(op).items():
        if p != 0:
            out[-(p - 1) - 1] = mat_scale(Fraction(p), m)
    return dense_operator(op.dim, out, name=f"d({op.name})" if op.name else "")


# -- the reordering transform ----------------------------------------------------


def product_distribution(a, b, vars, window):
    """a(x_first) b(x_second) as a matrix-valued two-variable distribution."""
    (alo, ahi), (blo, bhi) = window.bounds
    terms = {}
    for p, ma in exps(a, alo, ahi).items():
        for q, mb in exps(b, blo, bhi).items():
            terms[(p, q)] = mat_mul(ma, mb)
    return from_terms(vars, terms, window)


def truncated_t(a, b, k=None, window=None):
    """The reordered-region representative T(a(x1) b(x2)).

    With the minimal admissible damping order (zero here) the transform is
    the product itself, computed exactly.  An explicit k > 0 exercises the
    definition literally: multiply by (x1-x2)^k, then by the opposite-region
    expansion (-x2+x1)^(-k); the result is window-limited but must agree with
    the exact transform wherever both are observable.
    """
    find_compat_order([a, b])
    if window is None:
        r = _radius(a) + _radius(b) + 4
        window = Window.symmetric(2, r)
    exact = product_distribution(a, b, ("x1", "x2"), window)
    if not k:
        return exact
    damped = mul(binom_expand(k, "x1", "x2", -1, window), exact, window)
    reorder = power_expand(-k, "x2", "x1", window, sign_a=-1, sign_b=1)
    return mul(reorder, damped, window)


def _radius(op):
    lo, hi = op.exp_bounds()
    return max(abs(lo), abs(hi), 1)


# -- the associativity relation --------------------------------------------------


def check_prop_assoc(a, b, w):
    """(x0+x2)^l a(x0+x2) b(x2) w against (x2+x0)^l (Y(a,x0)b)(x2) w.

    The order is l = max(0, -min exponent of a), the least one at which
    every power (x0+x2)^(p+l) is a polynomial, so the left side is a
    Laurent polynomial in W[x0, x0^-1, x2, x2^-1]; it is compared with the
    residue-product side term by term.  When endless_modes finds a
    nonnegative mode of a that composes to nonzero with b, Y(a,x0)b has
    unboundedly high powers of x0: the residue sum is truncated at
    n >= -(hi_a + l + 1), where hi_a is the largest exponent of a, and only
    x0-exponents up to hi_a + l, which hold every term of the left side and
    only complete sums on the right, are compared.  That report is flagged
    window-sound.
    """
    report = CheckReport("operator-associativity")
    lo_a, hi_a = a.exp_bounds()
    l = max(0, -lo_a)
    lhs: Terms = {}
    bw = {q: mat_vec(mb, w) for q, mb in exps(b).items()}
    for p, ma in exps(a).items():
        for i in range(0, p + l + 1):
            for q, vecq in bw.items():
                add_term(lhs, (p + l - i, i + q), binom(p + l, i), support(mat_vec(ma, vecq)))
    # right side: (x2+x0)^l (Y(a,x0)b)(x2) w
    rhs: Terms = {}
    # otherwise a_n b vanishes outside [least mode of a, -1]
    lo_cert, hi_cert = (None if endless_modes(a, b, False) else min(a.rows, default=0)), -1
    top = None  # the highest compared x0-exponent when the residue sum is truncated
    if lo_cert is None:
        top = hi_a + l
        lo_cert = -(top + 1)
        report.exact = False
        report.notes.append(f"compared on x0-exponents up to {top}")
    for n in range(lo_cert, hi_cert + 1):
        for s, ms in exps(nth_product(a, b, n)).items():
            for i in range(0, l + 1):
                add_term(rhs, (-n - 1 + i, l - i + s), binom(l, i), support(mat_vec(ms, w)))
    if top is not None:
        rhs = {e: c for e, c in rhs.items() if e[0] <= top}
    report.found_orders["l"] = l
    diffs = term_differences(lhs, rhs, a.dim)
    if diffs:
        report.fail(Witness((a.name or "a", b.name or "b"), *diffs[0]))
    return report


# -- dense construction and read-off ---------------------------------------------


def dense_operator_from_structure(alg, v_idx, mod=None):
    """The image of a basis vector, built from dense mode matrices."""
    act = alg if mod is None else mod
    table = table_of(act)
    ns = sorted({n for (i, _j), m in table.items() if i == v_idx for n in m})
    modes = {n: mode_matrix(act, alg.unit(v_idx), n) for n in ns}
    return dense_operator(act.dim, modes, name=alg.basis[v_idx])


def dense_closure_module(result):
    """The closure's underlying space as a module, read off dense mode matrices."""
    if result.structure is None:
        raise MalformedStructure("closure did not produce a structure")
    ops = result.span.operators
    dim_w = ops[0].dim
    basis = tuple(f"w{j+1}" for j in range(dim_w))
    action = {}
    for i, op in enumerate(ops):
        for nn, mat_c in dense_modes(op).items():
            for j in range(dim_w):
                col = tuple(mat_c[r][j] for r in range(dim_w))
                if any(x != 0 for x in col):
                    action.setdefault((i, j), {})[nn] = col
    return ModuleStructure(basis=basis, mode_index=index_from_dense(action, dim_w))


# -- the all-pairs closure -------------------------------------------------------


def reference_closure(generators, dim_cap=64, local_products=False, dim=None):
    """The closure forming every product: every generator against every span
    element in generation, then every ordered pair of span elements at every
    mode from the least mode of the first to -1 in the verification."""
    if generators:
        dims = {op.dim for op in generators}
        if len(dims) != 1:
            raise NotCompatible("generators act on different spaces")
        dim = dims.pop()
    product = nth_product_local if local_products else nth_product
    one = identity_operator(dim)
    ops = [one]
    coords = CoordSpan(coords=True)
    coords.insert(_fingerprint(one))
    rounds = 0

    def names(k):
        return "1_W" if k == 0 else f"op{k}"

    def ended(status, note):
        exact = status == STATUS_INFINITE
        return ClosureResult(OperatorSpan(ops, coords), None, status, exact, rounds, [note])

    def endless(a, a_name, b, b_name):
        modes = endless_modes(a, b, local_products)
        if modes is None:
            return None
        return ended(
            STATUS_INFINITE,
            f"modes {modes} of ({a_name}, {b_name}) compose to nonzero: "
            "their n-th products are nonzero at infinitely many n",
        )

    done = [0] * len(generators)
    while True:
        rounds += 1
        grew = False
        for k, g in enumerate(generators):
            start, done[k] = done[k], len(ops)
            for j in range(start, done[k]):
                if stop := endless(g, g.name or f"generator {k}", ops[j], names(j)):
                    return stop
                for n in range(-1, min(g.rows, default=0) - 1, -1):
                    cand = product(g, ops[j], n)
                    if not cand.is_zero() and coords.insert(_fingerprint(cand)) is None:
                        ops.append(cand)
                        grew = True
                        if len(ops) > dim_cap:
                            return ended(STATUS_CAP, f"span exceeded the cap of {dim_cap}")
        if not grew:
            break
    index = {}
    for i, alpha in enumerate(ops):
        for j, beta in enumerate(ops):
            if stop := endless(alpha, names(i), beta, names(j)):
                return stop
            modes = {}
            for n in range(min(alpha.rows, default=0), 0):
                prod = product(alpha, beta, n)
                if prod.is_zero():
                    continue
                escape, sol = coords.reduce(_fingerprint(prod))
                if escape:
                    raise MalformedStructure(
                        f"product ({names(i)}, {names(j)}) at mode {n} escapes the generated span"
                    )
                modes[n] = sol.items()
            if modes:
                index[(i, j)] = modes
    basis = tuple(names(k) for k in range(len(ops)))
    structure = AlgebraStructure(basis, 0, index)
    return ClosureResult(OperatorSpan(ops, coords), structure, STATUS_CLOSED, True, rounds)
