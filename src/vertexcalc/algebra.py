"""Structure data and axiom checkers for finite-dimensional vertex structures.

An AlgebraStructure stores a finite basis, a vacuum vector, and the finitely
supported mode products (e_i)_n e_j.  The checkers verify, coefficient by
coefficient, the axioms of a vertex algebra without the commutativity axiom:
truncation, vacuum, creation, weak associativity, and on top of those the
translation-operator identities, q-locality, skew-symmetry, and the q-Jacobi
identity.

Everything here is exact.  Structure data is a Laurent polynomial in each
variable, so every identity whose two sides are Laurent polynomials (the
translation identities, skew-symmetry, locality, weak associativity) is
decided by one comparison of finite term dictionaries, and both its
refutations and its confirmations are exact-complete.  The Jacobi-type
identities multiply by delta composites, but on such data they hold exactly
when commutation and order-0 weak associativity hold (`jacobi_witness`), so
they are decided by the same comparisons and no window is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import CapExceeded, MalformedStructure, NonNilpotentD
from .linalg import (
    Mat,
    SpanBasis,
    Vec,
    is_zero_vec,
    mat_vec,
    nullspace,
    unit_vec,
    vec_add,
    vec_scale,
    zero_vec,
)
from .report import FOUND, REFUTED, CheckReport, OrderSearch, Witness
from .series import Distribution, Window, binom, from_terms
from .series import mul  # noqa: F401  perfbench/test_perfbench.py traces this binding

if TYPE_CHECKING:
    from .modules import ModuleStructure

ModeMap = dict[int, Vec]
ModeTable = dict[tuple[int, int], ModeMap]


# ---------------------------------------------------------------------------
# mode tables
#
# An algebra and a module store the same object: a finite table mapping
# (acting basis index i, target basis index j) to the modes {n: (e_i)_n w_j}.
# An algebra is its own adjoint module, so both read their table through the
# functions below.


def clean_table(table: ModeTable, dim: int, n_acting: int | None) -> ModeTable:
    """The table with Fraction vectors and without zero modes, after index checks.

    Target indices must lie in range(dim) and acting indices in
    range(n_acting); a module does not know its algebra and passes None.
    """
    clean: ModeTable = {}
    for (i, j), modes in table.items():
        if not (0 <= j < dim and (n_acting is None or 0 <= i < n_acting)):
            raise MalformedStructure(f"mode table indices ({i},{j}) out of range")
        entry: ModeMap = {}
        for n, v in modes.items():
            if len(v) != dim:
                raise MalformedStructure(f"vector length mismatch at ({i},{j},{n})")
            v = tuple(Fraction(x) for x in v)
            if not is_zero_vec(v):
                entry[int(n)] = v
        if entry:
            clean[(i, j)] = entry
    return clean


def table_apply(table: ModeTable, dim: int, u: Vec, n: int, w: Vec) -> Vec:
    """The single mode u_n w."""
    out = zero_vec(dim)
    for i, cu in enumerate(u):
        if cu == 0:
            continue
        for j, cw in enumerate(w):
            if cw == 0:
                continue
            img = table.get((i, j), {}).get(n)
            if img is not None:
                out = vec_add(out, vec_scale(cu * cw, img))
    return out


def table_mode_map(table: ModeTable, u: Vec, w: Vec) -> ModeMap:
    """All modes of Y(u, x)w as a finite {n: vector} dictionary."""
    out: ModeMap = {}
    for i, cu in enumerate(u):
        if cu == 0:
            continue
        for j, cw in enumerate(w):
            if cw == 0:
                continue
            for n, img in table.get((i, j), {}).items():
                s = vec_scale(cu * cw, img)
                out[n] = vec_add(out[n], s) if n in out else s
    return {n: v for n, v in out.items() if not is_zero_vec(v)}


def table_exp_radius(table: ModeTable) -> int:
    """Largest |x-exponent| appearing in the table, and at least 1."""
    r = 1
    for modes in table.values():
        for n in modes:
            r = max(r, abs(-n - 1))
    return r


def table_matrix(table: ModeTable, dim: int, u: Vec, n: int) -> Mat:
    """Matrix of w -> u_n w in the target basis."""
    cols = [table_apply(table, dim, u, n, unit_vec(dim, j)) for j in range(dim)]
    return tuple(tuple(col[r] for col in cols) for r in range(dim))


@dataclass
class AlgebraStructure:
    """Finite basis, vacuum index, and mode products (e_i)_n e_j.

    y_data maps (i, j) to a finite {n: vector} dictionary; missing entries
    are zero.  `assoc_variant` records which associativity flavor the source
    construction guarantees ("strong": the order depends only on the outer
    pair; "weak": it may depend on all three arguments).
    """

    basis: tuple[str, ...]
    vacuum: int
    y_data: ModeTable
    assoc_variant: str = "strong"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.basis = tuple(self.basis)
        if not self.basis:
            raise MalformedStructure("empty basis")
        if not (0 <= self.vacuum < len(self.basis)):
            raise MalformedStructure("vacuum index out of range")
        self.y_data = clean_table(self.y_data, self.dim, self.dim)

    # -- basic access ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_index(self, name: str) -> int:
        try:
            return self.basis.index(name)
        except ValueError:
            raise MalformedStructure(f"unknown basis name {name!r}") from None

    def vacuum_vec(self) -> Vec:
        return unit_vec(self.dim, self.vacuum)

    def unit(self, i: int) -> Vec:
        return unit_vec(self.dim, i)

    def product(self, i: int, n: int, j: int) -> Vec:
        return self.y_data.get((i, j), {}).get(n, zero_vec(self.dim))

    def mode_bounds(self) -> tuple[int, int]:
        """Global [n_min, n_max] over all stored mode products."""
        lo, hi = -1, -1
        for modes in self.y_data.values():
            for n in modes:
                lo = min(lo, n)
                hi = max(hi, n)
        return lo, hi

    # -- the mode table ---------------------------------------------------------

    def apply_mode(self, u: Vec, n: int, v: Vec) -> Vec:
        return table_apply(self.y_data, self.dim, u, n, v)

    def mode_map(self, u: Vec, v: Vec) -> ModeMap:
        """All modes of Y(u, x)v as a finite {n: vector} dictionary."""
        return table_mode_map(self.y_data, u, v)

    def exp_radius(self) -> int:
        """Largest |x-exponent| appearing in any basis mode product."""
        return table_exp_radius(self.y_data)

    def mode_matrix(self, u: Vec, n: int) -> Mat:
        """Matrix of w -> u_n w in the algebra basis."""
        return table_matrix(self.y_data, self.dim, u, n)


# ---------------------------------------------------------------------------
# the translation operator and its exponential


def d_images(alg: AlgebraStructure) -> list[Vec]:
    """The images D e_j = (e_j)_(-2) vacuum of the basis vectors."""
    return [alg.product(j, -2, alg.vacuum) for j in range(alg.dim)]


def d_operator(alg: AlgebraStructure) -> Mat:
    """Matrix of v -> v_(-2) vacuum (column j is the image of e_j)."""
    cols = d_images(alg)
    return tuple(tuple(col[r] for col in cols) for r in range(alg.dim))


def mode_derivative(modes: ModeMap) -> ModeMap:
    """d/dx of sum_n w_n x^(-n-1): mode n moves to n+1 with the factor -n-1."""
    return {n + 1: vec_scale(Fraction(-n - 1), w) for n, w in modes.items() if n != -1}


def exp_x_matrix(m: Mat, v: Vec, cap: int | None = None) -> dict[int, Vec]:
    """{j: m^j v / j!} until the iterate vanishes; errors if it never does."""
    cap = len(m) + 1 if cap is None else cap
    out: dict[int, Vec] = {}
    cur = v
    fact = Fraction(1)
    for j in range(cap + 1):
        if is_zero_vec(cur):
            return out
        out[j] = vec_scale(1 / fact, cur)
        cur = mat_vec(m, cur)
        fact *= j + 1
    raise NonNilpotentD("matrix iterates did not vanish within the dimension cap")


# ---------------------------------------------------------------------------
# term dictionaries and two-variable product series


def add_term(terms: dict, e, c: Vec) -> None:
    """Accumulate the vector c at exponent e of a term dictionary."""
    terms[e] = vec_add(terms[e], c) if e in terms else c


def term_differences(lhs: dict, rhs: dict, zero: Vec) -> list[tuple[tuple, Vec, Vec]]:
    """(exponent, lhs, rhs) wherever two term dictionaries differ, in increasing order.

    Missing exponents read as zero; the list is empty when the two sides are
    the same Laurent polynomial.
    """
    out = []
    for e in sorted(set(lhs) | set(rhs)):
        a, b = lhs.get(e, zero), rhs.get(e, zero)
        if a != b:
            out.append((e, a, b))
    return out


def product_terms(
    act: AlgebraStructure | ModuleStructure, u: Vec, v: Vec, w: Vec
) -> dict[tuple[int, int], Vec]:
    """Y(u, x1) Y(v, x2) w as {(x1-exponent, x2-exponent): vector}.

    `act` is the acting table: an algebra acting on itself, or a module.
    """
    terms: dict[tuple[int, int], Vec] = {}
    for n2, inner in act.mode_map(v, w).items():
        for n1, outer in act.mode_map(u, inner).items():
            add_term(terms, (-n1 - 1, -n2 - 1), outer)
    return terms


def reversed_product_terms(
    act: AlgebraStructure | ModuleStructure, u: Vec, v: Vec, w: Vec
) -> dict[tuple[int, int], Vec]:
    """Y(v, x2) Y(u, x1) w on the (x1, x2) exponent grid of product_terms(act, u, v, w)."""
    return {(e1, e2): c for (e2, e1), c in product_terms(act, v, u, w).items()}


def commutation_differences(
    act: AlgebraStructure | ModuleStructure, u: Vec, v: Vec, w: Vec, q: Fraction
) -> list[tuple[tuple[int, int], Vec, Vec]]:
    """term_differences of Y(u,x1)Y(v,x2)w against q Y(v,x2)Y(u,x1)w."""
    rhs = {e: vec_scale(q, c) for e, c in reversed_product_terms(act, u, v, w).items()}
    return term_differences(product_terms(act, u, v, w), rhs, zero_vec(act.dim))


def product_series(
    act: AlgebraStructure | ModuleStructure,
    u: Vec,
    v: Vec,
    w: Vec,
    vars: tuple[str, str],
    window: Window,
) -> Distribution:
    """Y(u, x_first) Y(v, x_second) w with exponents in the given var order."""
    return from_terms(vars, product_terms(act, u, v, w), window)


def iterate_series(
    alg: AlgebraStructure,
    u: Vec,
    v: Vec,
    w: Vec,
    vars: tuple[str, str],
    window: Window,
) -> Distribution:
    """Y(Y(u, x_first) v, x_second) w."""
    return from_terms(vars, iterate_terms(alg, alg, u, v, w), window)


def iterate_terms(
    alg: AlgebraStructure, act: AlgebraStructure | ModuleStructure, u: Vec, v: Vec, w: Vec
) -> dict[tuple[int, int], Vec]:
    """Y_act(Y(u, x0) v, x2) w as {(x0-exponent, x2-exponent): vector}.

    u_n v is taken in alg and acts on w through act.
    """
    terms: dict[tuple[int, int], Vec] = {}
    for n0, uv in alg.mode_map(u, v).items():
        for n2, out in act.mode_map(uv, w).items():
            add_term(terms, (-n0 - 1, -n2 - 1), out)
    return terms


# ---------------------------------------------------------------------------
# axiom checks


def validate_structure(alg: AlgebraStructure) -> CheckReport:
    """Truncation, vacuum, and creation axioms on every basis pair."""
    report = CheckReport("structure-axioms")
    dim = alg.dim
    vac = alg.vacuum
    # truncation is intrinsic to the finite representation; record the bounds
    lo, hi = alg.mode_bounds()
    report.found_orders["n_min"] = lo
    report.found_orders["n_max"] = hi
    # vacuum acts as the identity: (1)_(-1) v = v and nothing else
    for j in range(dim):
        modes = alg.y_data.get((vac, j), {})
        for n, w in modes.items():
            expect = alg.unit(j) if n == -1 else zero_vec(dim)
            if w != expect:
                report.fail(
                    Witness((alg.basis[vac], alg.basis[j]), (n,), w, expect)
                )
        if modes.get(-1) != alg.unit(j):
            report.fail(
                Witness(
                    (alg.basis[vac], alg.basis[j]),
                    (-1,),
                    modes.get(-1, zero_vec(dim)),
                    alg.unit(j),
                )
            )
    # creation: no nonnegative modes against the vacuum, and v_(-1) 1 = v
    for i in range(dim):
        modes = alg.y_data.get((i, vac), {})
        for n, w in modes.items():
            if n >= 0 and not is_zero_vec(w):
                report.fail(Witness((alg.basis[i], alg.basis[vac]), (n,), w, zero_vec(dim)))
        if modes.get(-1) != alg.unit(i):
            report.fail(
                Witness(
                    (alg.basis[i], alg.basis[vac]),
                    (-1,),
                    modes.get(-1, zero_vec(dim)),
                    alg.unit(i),
                )
            )
    return report


def check_d_bracket(alg: AlgebraStructure) -> CheckReport:
    """Both translation identities: [D, Y(v,x)] = Y(Dv,x) = d/dx Y(v,x)."""
    report = CheckReport("translation-bracket")
    d_mat = d_operator(alg)
    zero = zero_vec(alg.dim)
    d_units = d_images(alg)
    if not is_zero_vec(d_units[alg.vacuum]):
        report.fail(Witness((alg.basis[alg.vacuum],), None, d_units[alg.vacuum], zero))
    for i in range(alg.dim):
        for j in range(alg.dim):
            base = alg.mode_map(alg.unit(i), alg.unit(j))
            # commutator [D, Y(e_i, x)] e_j, mode by mode
            commutator = {n: mat_vec(d_mat, w) for n, w in base.items()}
            for n, w in alg.mode_map(alg.unit(i), d_units[j]).items():
                add_term(commutator, n, vec_scale(-1, w))
            middle = alg.mode_map(d_units[i], alg.unit(j))
            for name, lhs, rhs in (
                ("commutator-vs-middle", commutator, middle),
                ("middle-vs-derivative", middle, mode_derivative(base)),
            ):
                for n, a, b in term_differences(lhs, rhs, zero):
                    report.fail(Witness((name, alg.basis[i], alg.basis[j]), (n,), a, b))
    return report


def check_creation_exponential(alg: AlgebraStructure) -> CheckReport:
    """Y(v, x) vacuum = e^{xD} v for every basis vector, compared term by term."""
    report = CheckReport("creation-exponential")
    d_mat = d_operator(alg)
    for i in range(alg.dim):
        lhs = {(-n - 1,): w for n, w in alg.mode_map(alg.unit(i), alg.vacuum_vec()).items()}
        rhs = {(j,): w for j, w in exp_x_matrix(d_mat, alg.unit(i)).items()}
        diffs = term_differences(lhs, rhs, zero_vec(alg.dim))
        if diffs:
            report.fail(Witness((alg.basis[i],), *diffs[0]))
    return report


# ---------------------------------------------------------------------------
# locality and skew-symmetry


def find_locality_k(
    alg: AlgebraStructure,
    u_idx: int,
    v_idx: int,
    q: Fraction,
) -> OrderSearch:
    """Least k with (x1-x2)^k Y(u,x1)Y(v,x2) = q (x1-x2)^k Y(v,x2)Y(u,x1).

    Structure data is Laurent-polynomial, so multiplication by (x1-x2)^k is
    injective on the two-variable products: the relation holds for some k
    exactly when it holds at k = 0, and a nonzero difference is a certified
    refutation for every k (the constant witness of the nonlocal fixtures).
    """
    u, v = alg.unit(u_idx), alg.unit(v_idx)
    q = Fraction(q)
    for w_idx in range(alg.dim):
        diffs = commutation_differences(alg, u, v, alg.unit(w_idx), q)
        if diffs:
            names = (alg.basis[u_idx], alg.basis[v_idx], alg.basis[w_idx])
            return OrderSearch(REFUTED, witness=Witness(names, *diffs[0]))
    return OrderSearch(FOUND, order=0)


def truncation_order(alg: AlgebraStructure, u_idx: int, v_idx: int) -> int:
    """Least k >= 0 with x^k Y(u,x)v free of negative powers."""
    modes = alg.y_data.get((u_idx, v_idx), {})
    if not modes:
        return 0
    return max(0, max(modes) + 1)


def skew_terms(d_mat: Mat, modes: ModeMap, q: Fraction) -> dict[int, Vec]:
    """q e^{xD} Y(v,-x)u as {x-exponent: vector}, from the modes of Y(v,x)u."""
    terms: dict[int, Vec] = {}
    for n, w in modes.items():
        m = -n - 1
        sgn = -q if m % 2 else q
        for j, dv in exp_x_matrix(d_mat, w).items():
            add_term(terms, m + j, vec_scale(sgn, dv))
    return terms


def check_skew_symmetry(
    alg: AlgebraStructure,
    u_idx: int,
    v_idx: int,
    q: Fraction,
) -> CheckReport:
    """Y(u,x)v = q e^{xD} Y(v,-x)u plus the truncation condition.

    Both sides are Laurent polynomials in x and are compared term by term.
    The report's `exact` flag is whether the two sides agree: the report
    contract marks a failed skew comparison as not exact.
    """
    report = CheckReport(f"skew-symmetry[{alg.basis[u_idx]},{alg.basis[v_idx]}]")
    q = Fraction(q)
    u, v = alg.unit(u_idx), alg.unit(v_idx)
    lhs = {(-n - 1,): w for n, w in alg.mode_map(u, v).items()}
    rhs = {(m,): c for m, c in skew_terms(d_operator(alg), alg.mode_map(v, u), q).items()}
    diffs = term_differences(lhs, rhs, zero_vec(alg.dim))
    report.exact = not diffs
    if diffs:
        report.fail(Witness((alg.basis[u_idx], alg.basis[v_idx]), *diffs[0]))
    # truncation at the locality order when one exists
    k_min = truncation_order(alg, u_idx, v_idx)
    loc = find_locality_k(alg, u_idx, v_idx, q)
    k_used = loc.order if loc.found else k_min
    report.found_orders["truncation_k"] = k_min
    if loc.found:
        report.found_orders["locality_k"] = loc.order
    if k_used < k_min:
        report.fail(
            Witness(
                (alg.basis[u_idx], alg.basis[v_idx]),
                None,
                f"x^{k_used} leaves negative powers",
                f"needs k >= {k_min}",
            )
        )
    return report


# ---------------------------------------------------------------------------
# weak associativity


def assoc_search(
    alg: AlgebraStructure,
    act: AlgebraStructure | ModuleStructure,
    u: Vec,
    v: Vec,
    w: Vec,
    names: tuple,
) -> OrderSearch:
    """Weak associativity of u, v in alg acting through act on w, decided once.

    The relation (x0+x2)^l Y(u,x0+x2)Y(v,x2)w = (x0+x2)^l Y(Y(u,x0)v,x2)w
    expands (x0+x2)^m in nonnegative powers of x2, so both sides live in
    Q[x0, x0^-1]((x2)), where x0+x2 is a unit.  The order-l relation is the
    order-0 relation times a unit: it holds for some l exactly when it holds
    at every l, and the least order is 0.  It is decided at
    L = max(0, 1 + the largest outer mode n1 of Y(u,x1)Y(v,x2)w), where every
    (x0+x2)^(-n1-1+L) is a polynomial, so both sides are Laurent polynomials
    and one comparison of their terms is exact.  A difference refutes every
    order; its witness is the first differing (x0, x2)-exponent at order L.
    """
    prod = product_terms(act, u, v, w)
    order = max([0] + [-e1 for (e1, _e2), c in prod.items() if not is_zero_vec(c)])
    lhs: dict[tuple[int, int], Vec] = {}
    for (e1, e2), c in prod.items():
        for i in range(e1 + order + 1):
            add_term(lhs, (e1 + order - i, e2 + i), vec_scale(binom(e1 + order, i), c))
    rhs: dict[tuple[int, int], Vec] = {}
    for (e0, e2), c in iterate_terms(alg, act, u, v, w).items():
        for i in range(order + 1):
            add_term(rhs, (e0 + order - i, e2 + i), vec_scale(binom(order, i), c))
    diffs = term_differences(lhs, rhs, zero_vec(act.dim))
    if diffs:
        return OrderSearch(REFUTED, witness=Witness(names, *diffs[0]))
    return OrderSearch(FOUND, order=0)


def weak_assoc_triple(alg: AlgebraStructure, u_idx: int, v_idx: int, w_idx: int) -> OrderSearch:
    """The three-argument associativity relation: FOUND at order 0, or REFUTED."""
    names = (alg.basis[u_idx], alg.basis[v_idx], alg.basis[w_idx])
    units = (alg.unit(u_idx), alg.unit(v_idx), alg.unit(w_idx))
    return assoc_search(alg, alg, *units, names)


def find_weak_assoc_l(alg: AlgebraStructure, u_idx: int, w_idx: int) -> OrderSearch:
    """The uniform variant: order 0 for every middle argument v, or the first failing v."""
    u, w = alg.unit(u_idx), alg.unit(w_idx)
    for v_idx in range(alg.dim):
        names = (alg.basis[u_idx], alg.basis[v_idx], alg.basis[w_idx])
        search = assoc_search(alg, alg, u, alg.unit(v_idx), w, names)
        if not search.found:
            return search
    return OrderSearch(FOUND, order=0)


# ---------------------------------------------------------------------------
# the q-Jacobi identity


def jacobi_witness(
    alg: AlgebraStructure,
    u: Vec,
    v: Vec,
    w: Vec,
    reversed_terms: dict[tuple[int, int], Vec],
    names: tuple,
) -> Witness | None:
    """The first failure of a Jacobi-type identity on (u, v, w), or None when it holds.

    The identity reads
        x0^-1 d((x1-x2)/x0) Y(u,x1)Y(v,x2)w - x0^-1 d((x2-x1)/-x0) R(x1,x2)
            = x2^-1 d((x1-x0)/x2) Y(Y(u,x0)v,x2)w,
    where d is the formal delta function and R the reversed product
    (q-scaled, or routed through an R-map), given on the (x1, x2) grid of
    product_terms.  Taking Res_x0 leaves the
    product minus R on the left and a finite sum of derivatives of
    x1^-1 d(x2/x1) on the right; a nonzero sum of that kind is never a
    Laurent polynomial, so both vanish and the product equals R.  Then the
    left side is the product times x2^-1 d((x1-x0)/x2), and substituting
    x1 = x0 + x2 under that delta function leaves order-0 weak associativity.
    So the identity holds exactly when the commutation comparison and
    assoc_search both pass, and the witness names the half that failed.
    """
    diffs = term_differences(product_terms(alg, u, v, w), reversed_terms, zero_vec(alg.dim))
    if diffs:
        return Witness(("commutation",) + names, *diffs[0])
    assoc = assoc_search(alg, alg, u, v, w, names)
    if not assoc.found:
        return replace(assoc.witness, where=("associativity",) + names)
    return None


def check_jacobi(alg: AlgebraStructure, u_idx: int, v_idx: int, q: Fraction) -> CheckReport:
    """The q-Jacobi identity on every basis w, decided exactly by jacobi_witness.

    lemma_equivalence records the stated invariant: the verdict is
    (q-locality and weak associativity on every w) by construction.
    """
    report = CheckReport(f"jacobi[{alg.basis[u_idx]},{alg.basis[v_idx]};q={q}]")
    q = Fraction(q)
    u, v = alg.unit(u_idx), alg.unit(v_idx)
    for w_idx in range(alg.dim):
        w = alg.unit(w_idx)
        rterms = {e: vec_scale(q, c) for e, c in reversed_product_terms(alg, u, v, w).items()}
        names = (alg.basis[u_idx], alg.basis[v_idx], alg.basis[w_idx])
        witness = jacobi_witness(alg, u, v, w, rterms, names)
        if witness is not None:
            report.fail(witness)
    report.found_orders["lemma_equivalence"] = 1
    return report


# ---------------------------------------------------------------------------
# subspaces: generated subalgebra, stabilizer, localizer


def generate_subalgebra(alg: AlgebraStructure, generators: list[Vec]) -> list[Vec]:
    """Row-reduced basis of the subalgebra generated by the given vectors.

    Breadth-first span of all mode words applied to the vacuum; stabilizes
    within dim steps for valid data.
    """
    span = SpanBasis([alg.vacuum_vec()])
    gen_modes: list[tuple[Vec, list[int]]] = []
    for g in generators:
        modes = set()
        for i, c in enumerate(g):
            if c == 0:
                continue
            for (a, _b), mm in alg.y_data.items():
                if a == i:
                    modes.update(mm.keys())
        gen_modes.append((g, sorted(modes)))
    changed = True
    rounds = 0
    while changed:
        changed = False
        rounds += 1
        if rounds > alg.dim + 1:
            raise CapExceeded("generated span failed to stabilize within the dimension")
        for g, modes in gen_modes:
            for b in list(span.rows):
                for n in modes:
                    w = alg.apply_mode(g, n, b)
                    if not is_zero_vec(w) and span.add(w):
                        changed = True
        if span.dim > alg.dim:
            raise CapExceeded("span dimension exceeded the ambient dimension")
    return list(span.rows)


def _all_modes(alg: AlgebraStructure) -> list[int]:
    modes = set()
    for mm in alg.y_data.values():
        modes.update(mm.keys())
    return sorted(modes)


def stabilizer(alg: AlgebraStructure, subspace: list[Vec]) -> list[Vec]:
    """{v : v_n U inside U for all n}, solved as exact linear conditions."""
    span = SpanBasis(subspace)
    rows: list[Vec] = []
    modes = _all_modes(alg)
    for u in span.rows:
        for n in modes:
            # residues of (e_i)_n u modulo U, one linear row per coordinate
            images = [span.reduce(alg.apply_mode(alg.unit(i), n, u)) for i in range(alg.dim)]
            for r in range(alg.dim):
                row = tuple(images[i][r] for i in range(alg.dim))
                if not is_zero_vec(row):
                    rows.append(row)
    return nullspace(rows, alg.dim)


def localizer(alg: AlgebraStructure, targets: list[Vec]) -> list[Vec]:
    """{v : Y(v,x)w = e^{xD} Y(w,-x)v for every w in the target set}.

    The defining skew-symmetry relation is linear in v, so the localizer is
    the exact nullspace of one linear condition per (target, exponent,
    coordinate).
    """
    d_mat = d_operator(alg)
    zero = zero_vec(alg.dim)
    rows: list[Vec] = []
    for w in targets:
        # Y(e_i,x)w - e^{xD}Y(w,-x)e_i for each i, every image e^{xD} built once
        diffs = []
        for i in range(alg.dim):
            ei = alg.unit(i)
            diff = {-n - 1: c for n, c in alg.mode_map(ei, w).items()}
            for m, c in skew_terms(d_mat, alg.mode_map(w, ei), Fraction(-1)).items():
                add_term(diff, m, c)
            diffs.append(diff)
        for m in sorted(set().union(*diffs)):
            cols = [diff.get(m, zero) for diff in diffs]
            for r in range(alg.dim):
                row = tuple(col[r] for col in cols)
                if not is_zero_vec(row):
                    rows.append(row)
    return nullspace(rows, alg.dim)


def subspace_is_subalgebra(alg: AlgebraStructure, rows: list[Vec]) -> CheckReport:
    """Verify a subspace contains the vacuum and is closed under all modes."""
    report = CheckReport("subalgebra-closure")
    span = SpanBasis(rows)
    if not span.contains(alg.vacuum_vec()):
        report.fail(Witness(("vacuum",), None, "missing", "vacuum in span"))
    for a in span.rows:
        for b in span.rows:
            for n, w in alg.mode_map(a, b).items():
                if not span.contains(w):
                    report.fail(Witness(("closure",), (n,), w, "inside span"))
    return report
