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
  with a window-sound branch where the residue sum has no certified floor;
- `dense_operator_from_structure` and `dense_closure_module`, which build an
  operator from dense mode matrices and read a closure's action off them.
"""

from fractions import Fraction

from reference_tables import index_from_dense, mode_matrix, table_of, term_differences

from vertexcalc.algebra import Terms, add_term
from vertexcalc.errors import MalformedStructure
from vertexcalc.linalg import binom, mat_mul, mat_scale, mat_vec, support
from vertexcalc.modules import ModuleStructure
from vertexcalc.operators import (
    VertexOperator,
    certified_nonzero_range,
    find_compat_order,
    nth_product,
)
from vertexcalc.report import CheckReport, Witness
from vertexcalc.series import Window, binom_expand, from_terms, mul, power_expand


# -- the operator as a series ----------------------------------------------------


def exps(op, lo=None, hi=None):
    """Nonzero coefficients by x-exponent, optionally windowed to [lo, hi]."""
    out = {-n - 1: m for n, m in op.modes.items()}
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
    return VertexOperator(op.dim, out, name=f"d({op.name})" if op.name else "")


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
    residue-product side term by term.  When a has nonnegative modes,
    certified_nonzero_range gives no floor and Y(a,x0)b has unboundedly high
    powers of x0: the residue sum is truncated at n >= -(hi_a + l + 1), where
    hi_a is the largest exponent of a, and only x0-exponents up to hi_a + l,
    which hold every term of the left side and only complete sums on the
    right, are compared.  That report is flagged window-sound.
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
    lo_cert, hi_cert = certified_nonzero_range(a, b, False)
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
    return VertexOperator(act.dim, modes, name=alg.basis[v_idx])


def dense_closure_module(result):
    """The closure's underlying space as a module, read off dense mode matrices."""
    if result.structure is None:
        raise MalformedStructure("closure did not produce a structure")
    ops = result.span.operators
    dim_w = ops[0].dim
    basis = tuple(f"w{j+1}" for j in range(dim_w))
    action = {}
    for i, op in enumerate(ops):
        for nn, mat_c in op.modes.items():
            for j in range(dim_w):
                col = tuple(mat_c[r][j] for r in range(dim_w))
                if any(x != 0 for x in col):
                    action.setdefault((i, j), {})[nn] = col
    return ModuleStructure(
        basis=basis, mode_index=index_from_dense(action, dim_w), meta={"source": "closure"}
    )
