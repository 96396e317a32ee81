"""Exact multi-variable formal Laurent series and distributions.

A Distribution stores finitely many coefficients of a formal series in named
commuting variables.  Coefficients are exact: plain Fraction scalars, tuples
of Fraction (vectors), or tuples of row tuples (matrices, composed left to
right under multiplication).

Three pieces of metadata make windowed observation honest:

  window   per-variable exponent interval [lo, hi]; every readable exponent
           lies inside it, and every readable coefficient (stored or implied
           zero) is the true coefficient of the represented series.
  support  per-variable lower/upper bound estimate (None = unbounded).  The
           true support is contained in the declared box.
  region   per-variable expansion kind derived from the support: polynomial
           (exponents >= 0), lower-bounded, or unrestricted.

A distribution is *complete* when its declared support is finite and inside
the window; then the window truncation loses nothing and equality verdicts
are exact rather than window-limited.  Expansion direction is fixed at
construction time: power_expand(n, a, b) always expands in nonnegative powers
of the second-listed variable, so (x0+x2)^n and (x2+x0)^n are different
objects that coincide only for n >= 0.

All operations are pure; distributions are never mutated after construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import ExponentOutsideWindow, NonSummableProduct
from .linalg import Mat, Vec, binom, mat_mul, mat_scale, mat_vec, vec_scale

Exponent = tuple[int, ...]
Coeff = object  # Fraction | Vec | Mat

DEFAULT_RADIUS = 12

# ---------------------------------------------------------------------------
# coefficient arithmetic (scalar / vector / matrix, dispatched on shape)


def c_is_scalar(c: Coeff) -> bool:
    return isinstance(c, (Fraction, int))


def c_is_mat(c: Coeff) -> bool:
    return isinstance(c, tuple) and len(c) > 0 and isinstance(c[0], tuple)


def c_is_zero(c: Coeff) -> bool:
    if c_is_scalar(c):
        return c == 0
    if c_is_mat(c):
        return all(all(x == 0 for x in row) for row in c)
    return all(x == 0 for x in c)


def c_add(a: Coeff, b: Coeff) -> Coeff:
    if c_is_scalar(a):
        return a + b
    if c_is_mat(a):
        return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
    return tuple(x + y for x, y in zip(a, b))


def c_neg(a: Coeff) -> Coeff:
    if c_is_scalar(a):
        return -a
    if c_is_mat(a):
        return tuple(tuple(-x for x in row) for row in a)
    return tuple(-x for x in a)


def c_scale(s, a: Coeff) -> Coeff:
    if c_is_scalar(a):
        return s * a
    if c_is_mat(a):
        return mat_scale(s, a)
    return vec_scale(s, a)


def c_mul(a: Coeff, b: Coeff) -> Coeff:
    """Product of two coefficients; matrix factors compose in the given order."""
    if c_is_scalar(a):
        return c_scale(a, b)
    if c_is_scalar(b):
        return c_scale(b, a)
    if c_is_mat(a) and c_is_mat(b):
        return mat_mul(a, b)
    if c_is_mat(a):
        return mat_vec(a, b)
    raise TypeError("cannot multiply vector coefficients together")


# ---------------------------------------------------------------------------
# windows, supports, regions


class Window:
    """Per-variable exponent intervals; the observable box of a distribution."""

    __slots__ = ("bounds",)

    def __init__(self, bounds: Iterable[tuple[int, int]]):
        self.bounds = tuple((int(lo), int(hi)) for lo, hi in bounds)
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError(f"empty window interval [{lo}, {hi}]")

    @classmethod
    def symmetric(cls, nvars: int, radius: int = DEFAULT_RADIUS) -> "Window":
        return cls(((-radius, radius),) * nvars)

    def __eq__(self, other) -> bool:
        return isinstance(other, Window) and self.bounds == other.bounds

    def __repr__(self) -> str:
        return f"Window({list(self.bounds)})"

    def contains(self, e: Exponent) -> bool:
        return all(lo <= x <= hi for x, (lo, hi) in zip(e, self.bounds))

    def intersect(self, other: "Window") -> "Window":
        return Window(
            (max(a, c), min(b, d)) for (a, b), (c, d) in zip(self.bounds, other.bounds)
        )


Support = tuple[tuple[int | None, int | None], ...]

KIND_POLYNOMIAL = "polynomial"
KIND_LOWER_BOUNDED = "lower-bounded"
KIND_UNRESTRICTED = "unrestricted"


class RegionTag:
    """Ordered variables with their expansion kind, derived from the support."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[str, str]]):
        self.entries = tuple(entries)
        names = [v for v, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("region variables must be distinct")

    @property
    def vars(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.entries)

    def kind(self, var: str) -> str:
        for v, k in self.entries:
            if v == var:
                return k
        raise KeyError(var)

    def __eq__(self, other) -> bool:
        return isinstance(other, RegionTag) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"RegionTag({list(self.entries)})"


def _kind_of(lo: int | None) -> str:
    if lo is None:
        return KIND_UNRESTRICTED
    if lo >= 0:
        return KIND_POLYNOMIAL
    return KIND_LOWER_BOUNDED


def region_for(vars: tuple[str, ...], support: Support) -> RegionTag:
    return RegionTag((v, _kind_of(lo)) for v, (lo, _) in zip(vars, support))


# ---------------------------------------------------------------------------
# the distribution object


class Distribution:
    """Finitely observed formal series with exact coefficients.

    Invariant: every exponent inside the window reads its true coefficient
    (stored entries are exact, missing entries are exactly zero), provided the
    inputs it was built from satisfied the same invariant.
    """

    __slots__ = ("vars", "coeffs", "support", "window")

    def __init__(
        self,
        vars: Iterable[str],
        coeffs: Mapping[Exponent, Coeff],
        support: Support,
        window: Window,
    ):
        self.vars = tuple(vars)
        if len(window.bounds) != len(self.vars):
            raise ValueError("window arity mismatch")
        if len(support) != len(self.vars):
            raise ValueError("support arity mismatch")
        clean: dict[Exponent, Coeff] = {}
        for e, c in coeffs.items():
            e = tuple(int(x) for x in e)
            if not window.contains(e):
                raise ExponentOutsideWindow(f"stored exponent {e} outside window")
            for x, (lo, hi) in zip(e, support):
                if (lo is not None and x < lo) or (hi is not None and x > hi):
                    raise ValueError(f"exponent {e} violates declared support")
            if not c_is_zero(c):
                clean[e] = c
        self.coeffs = clean
        self.support = tuple(support)
        self.window = window

    # -- basic views --------------------------------------------------------

    @property
    def region(self) -> RegionTag:
        return region_for(self.vars, self.support)

    @property
    def complete(self) -> bool:
        """True when the declared support is finite and inside the window."""
        return all(
            lo is not None
            and hi is not None
            and wlo <= lo
            and hi <= whi
            for (lo, hi), (wlo, whi) in zip(self.support, self.window.bounds)
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        return self.coeffs.items()

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0])

    def coeff(self, e: Exponent, zero: Coeff | None = None) -> Coeff:
        """Coefficient at e; raises ExponentOutsideWindow if unobservable."""
        e = tuple(int(x) for x in e)
        if not self.window.contains(e):
            raise ExponentOutsideWindow(f"{e} outside window {self.window}")
        if e in self.coeffs:
            return self.coeffs[e]
        return Fraction(0) if zero is None else zero

    def var_index(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise KeyError(f"variable {var!r} not in {self.vars}") from None

    def __repr__(self) -> str:
        terms = ", ".join(f"{e}: {c}" for e, c in self.sorted_items()[:6])
        more = "..." if len(self.coeffs) > 6 else ""
        return f"Distribution({self.vars}, {{{terms}{more}}})"

    # -- derived constructors ------------------------------------------------

    def with_support_tightened(self) -> "Distribution":
        """Shrink the declared support box onto the stored exponents.

        Only valid for distributions already known complete: for those, the
        stored exponents are the whole truth.
        """
        if not self.complete:
            return self
        if not self.coeffs:
            sup = tuple((0, 0) for _ in self.vars)
            return Distribution(self.vars, {}, sup, self.window)
        cols = list(zip(*self.coeffs.keys()))
        sup = tuple((min(c), max(c)) for c in cols)
        return Distribution(self.vars, self.coeffs, sup, self.window)

    def map_coeffs(self, fn: Callable[[Coeff], Coeff]) -> "Distribution":
        out = {e: fn(c) for e, c in self.coeffs.items()}
        return Distribution(self.vars, out, self.support, self.window)

    def scale(self, s) -> "Distribution":
        return self.map_coeffs(lambda c: c_scale(s, c))


# ---------------------------------------------------------------------------
# constructors


def zero_distribution(vars: Iterable[str], window: Window) -> Distribution:
    vars = tuple(vars)
    return Distribution(vars, {}, tuple((0, 0) for _ in vars), window)


def monomial(
    vars: Iterable[str], e: Exponent, coeff: Coeff, window: Window
) -> Distribution:
    vars = tuple(vars)
    e = tuple(int(x) for x in e)
    return Distribution(vars, {e: coeff}, tuple((x, x) for x in e), window)


def from_terms(
    vars: Iterable[str], terms: Mapping[Exponent, Coeff], window: Window
) -> Distribution:
    """Laurent polynomial from explicit terms; support = bounding box."""
    vars = tuple(vars)
    terms = {tuple(e): c for e, c in terms.items() if not c_is_zero(c)}
    if not terms:
        return zero_distribution(vars, window)
    cols = list(zip(*terms.keys()))
    sup = tuple((min(c), max(c)) for c in cols)
    return Distribution(vars, terms, sup, window)


def delta_series(var: str, window: Window) -> Distribution:
    """The formal sum of all integer powers of var, truncated to the window."""
    lo, hi = window.bounds[0]
    coeffs = {(n,): Fraction(1) for n in range(lo, hi + 1)}
    return Distribution((var,), coeffs, ((None, None),), window)


def power_expand(
    n: int,
    var_a: str,
    var_b: str,
    window: Window,
    sign_a: int = 1,
    sign_b: int = 1,
) -> Distribution:
    """(sign_a*var_a + sign_b*var_b)^n expanded in nonnegative powers of var_b.

    Term i carries exponents (n-i, i) and coefficient C(n,i) sign_a^(n-i)
    sign_b^i.  For n >= 0 this is the honest polynomial with n+1 terms; for
    n < 0 it is the series with var_a exponents unbounded below, truncated to
    the window.
    """
    if var_a == var_b:
        raise ValueError("expansion variables must be distinct")
    if sign_a not in (1, -1) or sign_b not in (1, -1):
        raise ValueError("signs must be +1 or -1")
    (alo, ahi), (blo, bhi) = window.bounds
    coeffs: dict[Exponent, Coeff] = {}
    i_max = bhi
    if n >= 0:
        i_max = min(i_max, n)
    i_max = min(i_max, n - alo)  # var_a exponent n-i >= alo
    i_min = max(0, blo, n - ahi)
    for i in range(i_min, i_max + 1):
        c = binom(n, i)
        if c == 0:
            continue
        # sign_a^(n-i) for possibly negative n-i; signs are units so this is
        # just a parity question.
        s = 1
        if sign_a == -1 and (n - i) % 2 != 0:
            s = -s
        if sign_b == -1 and i % 2 != 0:
            s = -s
        coeffs[(n - i, i)] = c * s
    if n >= 0:
        support: Support = ((min(0, n), n), (0, n))
    else:
        support = ((None, n), (0, None))
    return Distribution((var_a, var_b), coeffs, support, window)


def binom_expand(
    n: int, var_a: str, var_b: str, sign: int, window: Window
) -> Distribution:
    """(var_a + sign*var_b)^n under the second-variable expansion convention."""
    return power_expand(n, var_a, var_b, window, sign_a=1, sign_b=sign)


# ---------------------------------------------------------------------------
# alignment helpers


def lift_vars(
    d: Distribution, vars: tuple[str, ...], window: Window
) -> Distribution:
    """View d in a larger variable tuple, constant (exponent 0) in new vars."""
    if d.vars == vars:
        return d
    positions = []
    for v in d.vars:
        if v not in vars:
            raise KeyError(f"variable {v!r} missing from target {vars}")
        positions.append(vars.index(v))
    coeffs: dict[Exponent, Coeff] = {}
    for e, c in d.coeffs.items():
        full = [0] * len(vars)
        for p, x in zip(positions, e):
            full[p] = x
        coeffs[tuple(full)] = c
    support: list[tuple[int | None, int | None]] = [(0, 0)] * len(vars)
    win: list[tuple[int, int]] = list(window.bounds)
    for p, sup, wb in zip(positions, d.support, d.window.bounds):
        support[p] = sup
        win[p] = wb
    return Distribution(vars, coeffs, tuple(support), Window(win))


def _merged_vars(d1: Distribution, d2: Distribution) -> tuple[str, ...]:
    out = list(d1.vars)
    for v in d2.vars:
        if v not in out:
            out.append(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# arithmetic


def add(d1: Distribution, d2: Distribution) -> Distribution:
    """Sum on the intersection window; supports take componentwise hulls."""
    if d1.vars != d2.vars:
        vars = _merged_vars(d1, d2)
        big = Window.symmetric(len(vars))
        d1 = lift_vars(d1, vars, big)
        d2 = lift_vars(d2, vars, big)
    window = d1.window.intersect(d2.window)
    coeffs: dict[Exponent, Coeff] = {}
    for e, c in d1.coeffs.items():
        if window.contains(e):
            coeffs[e] = c
    for e, c in d2.coeffs.items():
        if not window.contains(e):
            continue
        if e in coeffs:
            coeffs[e] = c_add(coeffs[e], c)
        else:
            coeffs[e] = c
    support = tuple(
        (
            None if (a is None or c is None) else min(a, c),
            None if (b is None or d is None) else max(b, d),
        )
        for (a, b), (c, d) in zip(d1.support, d2.support)
    )
    return Distribution(d1.vars, coeffs, support, window)


def sub(d1: Distribution, d2: Distribution) -> Distribution:
    return add(d1, d2.map_coeffs(c_neg))


def _sum_bounds(
    s1: tuple[int | None, int | None], s2: tuple[int | None, int | None]
) -> tuple[int | None, int | None]:
    lo = None if (s1[0] is None or s2[0] is None) else s1[0] + s2[0]
    hi = None if (s1[1] is None or s2[1] is None) else s1[1] + s2[1]
    return lo, hi


def mul(
    d1: Distribution, d2: Distribution, window: Window | None = None
) -> Distribution:
    """Coefficient-wise convolution, certified sound on the result window.

    At least one factor must be complete (finite support inside its window);
    a product of two window-escaping series has no certified-finite
    coefficients and raises NonSummableProduct.  The result window shrinks so
    that every readable coefficient only needed contributions both factors
    actually store: with d1 complete with support box S1, target e is valid
    when e - S1 lies inside d2's window.
    """
    if d1.vars != d2.vars:
        vars = _merged_vars(d1, d2)
        big = Window.symmetric(
            len(vars),
            max(
                DEFAULT_RADIUS,
                *(abs(b) for w in (d1.window, d2.window) for bb in w.bounds for b in bb),
            ),
        )
        d1 = lift_vars(d1, vars, big)
        d2 = lift_vars(d2, vars, big)
    if d2.complete and not d1.complete:
        d1, d2 = d2, d1  # convolution is symmetric; matrix order is preserved
        swapped = True
    else:
        swapped = False
    if not d1.complete:
        raise NonSummableProduct(
            "neither factor is support-certified finite inside its window"
        )
    d1 = d1.with_support_tightened()
    if window is None:
        window = d2.window
    if d2.complete:
        # both factors fully observed: every requested exponent is certain
        res_window = window
    else:
        # valid targets: e - supp(d1) must stay inside d2's observable window
        res_bounds = []
        for (lo1, hi1), (wlo2, whi2), (wlo, whi) in zip(
            d1.support, d2.window.bounds, window.bounds
        ):
            res_bounds.append((max(wlo, wlo2 + hi1), min(whi, whi2 + lo1)))
        for lo, hi in res_bounds:
            if lo > hi:
                raise NonSummableProduct(
                    "no observable exponents remain; enlarge the factor windows"
                )
        res_window = Window(res_bounds)
    coeffs: dict[Exponent, Coeff] = {}
    for e1, c1 in d1.coeffs.items():
        for e2, c2 in d2.coeffs.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if not res_window.contains(e):
                continue
            c = c_mul(c2, c1) if swapped else c_mul(c1, c2)
            if e in coeffs:
                coeffs[e] = c_add(coeffs[e], c)
            else:
                coeffs[e] = c
    support = tuple(_sum_bounds(a, b) for a, b in zip(d1.support, d2.support))
    return Distribution(d1.vars, coeffs, support, res_window)


def residue(d: Distribution, var: str) -> Distribution:
    """Coefficient slice at exponent -1 of var, in the remaining variables."""
    i = d.var_index(var)
    wlo, whi = d.window.bounds[i]
    if not (wlo <= -1 <= whi):
        raise ExponentOutsideWindow(f"window of {var} does not expose exponent -1")
    rest = d.vars[:i] + d.vars[i + 1 :]
    coeffs: dict[Exponent, Coeff] = {}
    for e, c in d.coeffs.items():
        if e[i] == -1:
            coeffs[e[:i] + e[i + 1 :]] = c
    support = d.support[:i] + d.support[i + 1 :]
    window = Window(d.window.bounds[:i] + d.window.bounds[i + 1 :])
    if not rest:
        # zero-variable residue: keep a one-point representation
        return Distribution((), coeffs, (), Window(()))
    return Distribution(rest, coeffs, support, window)


def derivative(d: Distribution, var: str) -> Distribution:
    """Formal derivative in var: n c(n) placed at n-1.

    When the series escapes the window at the top of var, the top row of the
    result is unobservable, so the window shrinks by one there.
    """
    i = d.var_index(var)
    lo, hi = d.window.bounds[i]
    slo, shi = d.support[i]
    complete_above = shi is not None and shi <= hi
    new_hi = hi if complete_above else hi - 1
    bounds = list(d.window.bounds)
    bounds[i] = (lo, new_hi)
    window = Window(bounds)
    coeffs: dict[Exponent, Coeff] = {}
    for e, c in d.coeffs.items():
        n = e[i]
        if n == 0:
            continue
        e2 = e[:i] + (n - 1,) + e[i + 1 :]
        if window.contains(e2):
            coeffs[e2] = c_scale(Fraction(n), c)
    support = list(d.support)
    support[i] = (
        None if slo is None else slo - 1,
        None if shi is None else shi - 1,
    )
    return Distribution(d.vars, coeffs, tuple(support), window)


def taylor_shift(
    d: Distribution, var: str, var_a: str, var_b: str, window: Window
) -> Distribution:
    """Substitute var -> var_a + var_b, expanding in nonnegative powers of var_b.

    Requires d to be exactly observed in var (support inside the window);
    each output cell then receives its single contribution from the unique
    source exponent n = e_a + e_b.  The direction (var_a, var_b) selects which
    of the two one-sided expansions is produced.
    """
    return subst_with_power(d, var, var_a, var_b, 0, window)


def subst_with_power(
    d: Distribution,
    var: str,
    var_a: str,
    var_b: str,
    extra: int,
    window: Window,
) -> Distribution:
    """Substitute var -> var_a + var_b and multiply by (var_a+var_b)^extra.

    Computed term-exactly: a source term with var-exponent n contributes the
    expansion of (var_a+var_b)^(n+extra).  When n+extra >= 0 for every stored
    n the result is a Laurent polynomial and the verdicts downstream stay
    exact-complete.
    """
    i = d.var_index(var)
    slo, shi = d.support[i]
    wlo, whi = d.window.bounds[i]
    if slo is None:
        raise NonSummableProduct(f"{var} support unbounded below; shift undefined")
    if not (wlo <= slo and (shi is not None and shi <= whi)):
        raise NonSummableProduct(
            f"{var} support escapes the observation window; shift not certified"
        )
    if var_a in d.vars and var_a != var:
        raise ValueError("var_a must be a fresh variable")
    merge_b = var_b in d.vars and var_b != var
    if merge_b:
        out_vars = d.vars[:i] + (var_a,) + d.vars[i + 1 :]
        b_idx = out_vars.index(var_b)
    else:
        out_vars = d.vars[:i] + (var_a, var_b) + d.vars[i + 1 :]
        b_idx = i + 1
    a_idx = i

    if len(window.bounds) != len(out_vars):
        raise ValueError("window arity must match the substituted variables")
    out_window = window
    alo, _ahi = out_window.bounds[a_idx]
    _blo, bhi_w = out_window.bounds[b_idx]

    coeffs: dict[Exponent, Coeff] = {}
    min_pow = 0
    for e, c in d.coeffs.items():
        n = e[i] + extra
        min_pow = min(min_pow, n)
        if merge_b:
            base = list(e)
            base[a_idx] = 0  # slot reused for var_a
            q0 = e[d.vars.index(var_b)]
            k_hi = min(n - alo, bhi_w - q0)
        else:
            base = list(e[:i] + (0, 0) + e[i + 1 :])
            q0 = 0
            k_hi = min(n - alo, bhi_w)
        if n >= 0:
            k_hi = min(k_hi, n)
        for k in range(0, k_hi + 1):
            cb = binom(n, k)
            if cb == 0:
                continue
            out_e = list(base)
            out_e[a_idx] = n - k
            out_e[b_idx] = q0 + k
            out_t = tuple(out_e)
            if not out_window.contains(out_t):
                continue
            if out_t in coeffs:
                coeffs[out_t] = c_add(coeffs[out_t], c_scale(cb, c))
            else:
                coeffs[out_t] = c_scale(cb, c)

    finite = min_pow >= 0  # all expansions were honest polynomials
    support: list[tuple[int | None, int | None]] = []
    for j, v in enumerate(out_vars):
        if j == a_idx:
            hi_a = shi + extra if shi is not None else None
            support.append((min(0, slo + extra) if finite else None, hi_a))
        elif j == b_idx:
            old = d.support[d.vars.index(var_b)] if merge_b else (0, 0)
            hi_b = None
            if finite and shi is not None and old[1] is not None:
                hi_b = old[1] + shi + extra
            support.append((old[0], hi_b))
        else:
            support.append(d.support[d.vars.index(v)])
    return Distribution(out_vars, coeffs, tuple(support), out_window)


# ---------------------------------------------------------------------------
# equality on windows

EQUAL = "equal"
EQUAL_ON_WINDOW = "equal-on-window"
DIFFERS = "differs"


class WindowVerdict:
    """Outcome of a windowed comparison.

    `equal` means the coefficients match and both supports are certified
    inside the compared window, so the verdict is exact-complete.
    `equal-on-window` means every observable coefficient matches but at least
    one support escapes the window (window-sound confirmation; a refutation
    would still have been conclusive).  `differs` carries a witness exponent
    with both coefficient values.
    """

    __slots__ = ("kind", "witness", "lhs", "rhs", "window")

    def __init__(self, kind, window, witness=None, lhs=None, rhs=None):
        self.kind = kind
        self.window = window
        self.witness = witness
        self.lhs = lhs
        self.rhs = rhs

    @property
    def matched(self) -> bool:
        return self.kind in (EQUAL, EQUAL_ON_WINDOW)

    @property
    def exact(self) -> bool:
        return self.kind == EQUAL

    def __repr__(self) -> str:
        if self.kind == DIFFERS:
            return f"WindowVerdict(differs at {self.witness}: {self.lhs} vs {self.rhs})"
        return f"WindowVerdict({self.kind})"


def window_equal(
    d1: Distribution, d2: Distribution, window: Window | None = None
) -> WindowVerdict:
    """Compare two distributions on the common observable window."""
    if d1.vars != d2.vars:
        vars = _merged_vars(d1, d2)
        big = Window.symmetric(len(vars))
        d1 = lift_vars(d1, vars, big)
        d2 = lift_vars(d2, vars, big)
    w = d1.window.intersect(d2.window)
    if window is not None:
        w = w.intersect(window)
    keys = set()
    for e in d1.coeffs:
        if w.contains(e):
            keys.add(e)
    for e in d2.coeffs:
        if w.contains(e):
            keys.add(e)
    for e in sorted(keys):
        a = d1.coeffs.get(e, None)
        b = d2.coeffs.get(e, None)
        if a is None:
            a = _zero_like(b)
        if b is None:
            b = _zero_like(a)
        if not c_is_zero(c_add(a, c_neg(b))):
            return WindowVerdict(DIFFERS, w, witness=e, lhs=a, rhs=b)
    exact = True
    for d in (d1, d2):
        for (lo, hi), (wlo, whi) in zip(d.support, w.bounds):
            if lo is None or hi is None or lo < wlo or hi > whi:
                exact = False
    return WindowVerdict(EQUAL if exact else EQUAL_ON_WINDOW, w)


def _zero_like(c: Coeff) -> Coeff:
    if c_is_scalar(c):
        return Fraction(0)
    if c_is_mat(c):
        return tuple(tuple(Fraction(0) for _ in row) for row in c)
    return tuple(Fraction(0) for _ in c)


# ---------------------------------------------------------------------------
# three-variable delta composites


def delta_three_term(
    side: str,
    window: Window,
    vars: tuple[str, str, str] = ("x0", "x1", "x2"),
) -> Distribution:
    """A side of the three-term delta identity on (x0, x1, x2), or half of the left side.

    side="right" builds x2^(-1) delta((x1-x0)/x2); side="d1" builds
    x0^(-1) delta((x1-x2)/x0) and side="d2" builds x0^(-1) delta((x2-x1)/(-x0));
    side="left" is d1 - d2.  Every term is produced by the second-variable
    binomial expansion convention.
    """
    if side == "left":
        return sub(delta_three_term("d1", window, vars), delta_three_term("d2", window, vars))
    # (center, a, b, sign): the sum over n of sign^n x_center^(-n-1) (x_a - x_b)^n,
    # expanded in nonnegative powers of x_b: terms C(n,i) (-1)^i x_a^(n-i) x_b^i
    expansions = {"right": (2, 1, 0, 1), "d1": (0, 1, 2, 1), "d2": (0, 2, 1, -1)}
    if side not in expansions:
        raise ValueError("side must be 'left', 'right', 'd1' or 'd2'")
    center, pa, pb, sign = expansions[side]
    (clo, chi), (alo, ahi), (blo, bhi) = (window.bounds[k] for k in (center, pa, pb))
    coeffs: dict[Exponent, Coeff] = {}
    for n in range(-1 - chi, -clo):
        for i in range(max(0, blo, n - ahi), min(bhi, n - alo) + 1):
            c = binom(n, i) * (-1) ** i * (sign ** (n % 2))
            if c != 0:
                e = [0, 0, 0]
                e[center], e[pa], e[pb] = -n - 1, n - i, i
                coeffs[tuple(e)] = c
    support = [(None, None)] * 3
    support[pb] = (0, None)
    return Distribution(vars, coeffs, tuple(support), window)
