"""Structure data and axiom checkers for finite-dimensional vertex structures.

An AlgebraStructure stores a finite basis, a vacuum vector, and the finitely
supported mode products (e_i)_n e_j.  The checkers verify, coefficient by
coefficient, the axioms of a vertex algebra without the commutativity axiom:
truncation, vacuum, creation, weak associativity, and on top of those the
translation-operator identities, q-locality, skew-symmetry, and the q-Jacobi
identity.

Everything here is exact.  Structure data is a Laurent polynomial in each
variable, so every identity whose two sides are Laurent polynomials is
decided by one comparison of finite term dictionaries, refutations and
confirmations alike.  The Jacobi-type identities hold exactly when
commutation and order-0 weak associativity hold (`check_jacobi`), so no
window is involved.

The checks compute on nonzero entries only, from the mode index to the
witness.  A structure stores its mode products as one sparse image index,
and `sparse_modes`, the one mode product, walks the nonzero (k, c) of its
arguments (a basis vector is ((i, ONE),)) through it.  One-variable
products and the powers of D are term dictionaries {exponent: {k: c}}, and
a witness holds the first differing pair as it is, with the basis that
names its coordinates.  The two-variable products of basis vectors come
from the scatter of vertexcalc.pairs, which builds on vertexcalc.linalg
alone; each structure holds one pair analysis, built on first use, whose
verdicts and witnesses the checks read, and the images of e^{xD}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import CapExceeded, InvalidArgument, MalformedStructure, NonNilpotentD
from .linalg import (
    ONE,
    CoordSpan,
    Mat,
    SparseVec,
    Support,
    Terms,
    Vec,
    add_scaled,
    add_term,
    dense_span,
    densify,
    integral,
    scale,
    span_nullspace,
    sparse_differences,
    support,
    unit_vec,
)
from .pairs import (
    PairAnalysis,
    acting_columns,
    iterate_sources,
    pair_analysis,
    scatter_iterates,
    scatter_products,
)
from .report import CheckReport, Witness
from .series import Distribution, Window, from_terms
from .series import mul  # noqa: F401  perfbench/test_perfbench.py traces this binding

if TYPE_CHECKING:
    from .modules import ModuleStructure

ModeMap = dict[int, Vec]
ModeIndex = dict[tuple[int, int], dict[int, Support]]
FIRST = itemgetter(0)


# ---------------------------------------------------------------------------
# mode tables
#
# An algebra and a module store the same object: a finite table mapping
# (acting basis index i, target basis index j) to the modes {n: (e_i)_n w_j}.
# An algebra is its own adjoint module, so both read their table through the
# functions below.  The table is held as one sparse image index,
# {(i, j): {n: [(k, c), ...]}} with only the nonzero coordinates c of each
# image, which the builders and the parser hand in directly and
# normal_index puts in one form.  The products walk only the nonzero
# coordinates of their arguments: a product costs its nonzero terms, not a
# test against zero for each of dim^2 coordinate pairs.


def normal_index(index, dim: int, n_acting: int | None) -> ModeIndex:
    """The mode index in its one stored form, after range checks.

    index maps (i, j) to {n: (k, c) pairs}; the pairs may come in any order
    and any iterable.  Each c goes through `integral`, zero coefficients and
    empty modes are dropped, k comes ascending and n in input order.  i, j, n
    and k must be ints (not bools); target indices j and coordinates k must
    lie in range(dim) and acting indices i in range(n_acting), each k at
    most once per image; a module does not know its algebra and passes None.
    Each image is sorted on k and walked once; a bad coefficient is refused
    before a bad coordinate.
    """
    out: ModeIndex = {}
    try:
        for (i, j), modes in index.items():
            if type(i) is not int or type(j) is not int:
                raise MalformedStructure(f"mode table indices ({i!r},{j!r}) are not integers")
            if not (0 <= j < dim and (n_acting is None or 0 <= i < n_acting)):
                raise MalformedStructure(f"mode table indices ({i},{j}) out of range")
            entry = {}
            for n, img in modes.items():
                if type(n) is not int:
                    raise MalformedStructure(f"mode {n!r} at ({i},{j}) is not an integer")
                img, kept, last, bad = sorted(img, key=FIRST), [], None, False
                for k, c in img:
                    # sorted: a repeat is adjacent
                    bad, last = bad or k == last or type(k) is not int or not 0 <= k < dim, k
                    if c := c if type(c) is int else integral(c):
                        kept.append((k, c))
                if bad:
                    ks = [k for k, _c in img]
                    raise MalformedStructure(
                        f"image coordinates {ks} at ({i},{j},{n}) are not distinct in range({dim})"
                    )
                if kept:
                    entry[n] = kept
            if entry:
                out[(i, j)] = entry
    except (AttributeError, TypeError, ValueError, ArithmeticError) as exc:
        # an entry of the wrong shape: a key or an image item that is not a
        # pair, modes that are not a dict, a coefficient that is no rational,
        # or coordinates of different types that do not sort
        raise MalformedStructure(f"malformed mode table: {exc}") from exc
    return out


def sparse_modes(index: ModeIndex, su: Support, sw: Support) -> dict[int, SparseVec]:
    """All modes of Y(u, x)w as {n: {k: c}}, in (i, j, n) order, from nonzero (k, c) pairs.

    Entries that cancel and modes left empty are dropped; every dict is fresh.
    """
    acc: dict[int, SparseVec] = {}
    for i, cu in su:
        for j, cw in sw:
            modes = index.get((i, j))
            if modes is not None:
                c = cw if cu is ONE else cu if cw is ONE else cu * cw
                for n, img in modes.items():
                    add_scaled(acc.setdefault(n, {}), c, img)
    return {n: v for n, v in acc.items() if v}


def basis_modes(index: ModeIndex, i: int, j: int) -> dict[int, SparseVec]:
    """sparse_modes on the basis vectors e_i and e_j, read straight off the index."""
    return {n: dict(img) for n, img in index.get((i, j), {}).items()}


def dense_terms(terms: Terms, dim: int) -> dict:
    """A sparse term dictionary with every value densified to length dim."""
    return {e: densify(v, dim) for e, v in terms.items()}


@dataclass
class AlgebraStructure:
    """Finite basis, vacuum index, and mode products (e_i)_n e_j.

    mode_index maps (i, j) to the modes {n: nonzero (k, c) of (e_i)_n e_j},
    missing entries are zero; the constructor puts it in normal form
    (normal_index), the products read it, and nothing changes it after
    construction.  `assoc_variant` records which associativity flavor the
    source construction guarantees ("strong": the order depends only on the
    outer pair; "weak": it may depend on all three arguments).  `_pairs`
    holds the pair analysis (vertexcalc.pairs) and `_exp_images` the images
    of e^{xD} (exp_images), each built on first use and kept for the
    structure's lifetime.  They are fields, not cached properties: writing
    through `__dict__` would slow every attribute read of the structure.
    """

    basis: tuple[str, ...]
    vacuum: int
    mode_index: ModeIndex
    assoc_variant: str = "strong"
    _pairs: PairAnalysis | None = field(default=None, init=False, repr=False, compare=False)
    _exp_images: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.basis = tuple(self.basis)
        if not self.basis:
            raise MalformedStructure("empty basis")
        if not (0 <= self.vacuum < len(self.basis)):
            raise MalformedStructure("vacuum index out of range")
        self.mode_index = normal_index(self.mode_index, self.dim, self.dim)

    # -- basic access ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_index(self, name: str) -> int:
        try:
            return self.basis.index(name)
        except ValueError:
            raise MalformedStructure(f"unknown basis name {name!r}") from None

    def unit(self, i: int) -> Vec:
        return unit_vec(self.dim, i)

    @property
    def exp_images(self) -> list[Terms]:
        """e^{xD} e_k as {power of x: {k: c}} for each basis index k (exp_sparse), built once."""
        if self._exp_images is None:
            cols = d_columns(self)
            self._exp_images = [exp_sparse(cols, ((k, ONE),)) for k in range(self.dim)]
        return self._exp_images

    def mode_bounds(self) -> tuple[int, int]:
        """Global [n_min, n_max] over all stored mode products."""
        lo, hi = -1, -1
        for modes in self.mode_index.values():
            for n in modes:
                lo = min(lo, n)
                hi = max(hi, n)
        return lo, hi

    # -- dense views ------------------------------------------------------------

    def mode_map(self, u: Vec, v: Vec) -> ModeMap:
        """All modes of Y(u, x)v as a finite {n: vector} dictionary, in (i, j, n) order."""
        return dense_terms(sparse_modes(self.mode_index, support(u), support(v)), len(v))

    def exp_radius(self) -> int:
        """Largest |x-exponent| appearing in any basis mode product, and at least 1."""
        lo, hi = self.mode_bounds()
        return max(1, -lo - 1, hi + 1)

    def mode_matrix(self, u: Vec, n: int) -> Mat:
        """Matrix of w -> u_n w in the algebra basis."""
        su = support(u)
        cols = [sparse_modes(self.mode_index, su, ((j, ONE),)).get(n, {}) for j in range(self.dim)]
        return tuple(zip(*(densify(col, self.dim) for col in cols)))


# ---------------------------------------------------------------------------
# the translation operator and its exponential


def d_columns(alg: AlgebraStructure) -> list[Support]:
    """The nonzero coordinates of each image D e_j, read off the sparse index."""
    return [alg.mode_index.get((j, alg.vacuum), {}).get(-2, ()) for j in range(alg.dim)]


def d_sparse(cols: list[Support], entries: Support) -> SparseVec:
    """D v = sum over the nonzero v_j of v_j D e_j, on nonzero coordinates."""
    acc: SparseVec = {}
    for j, c in entries:
        add_scaled(acc, c, cols[j])
    return acc


def mode_derivative(modes: dict[int, SparseVec]) -> dict[int, SparseVec]:
    """d/dx of sum_n w_n x^(-n-1): mode n moves to n+1 with the factor -n-1."""
    return {n + 1: scale(-n - 1, w) for n, w in modes.items() if n != -1}


def exp_sparse(cols: list[Support], entries: Support) -> Terms:
    """{j: D^j v / j!} until the iterate vanishes; errors if it never does.

    D is given by its sparse columns (d_columns), v by its nonzero entries.
    A nilpotent D on a space of dimension d has D^d = 0, so the iterates
    stop by j = d + 1 or never.
    """
    out: Terms = {}
    cur = dict(entries)
    fact = 1
    for j in range(len(cols) + 2):
        if not cur:
            return out
        out[j] = {k: integral(Fraction(c, fact)) for k, c in cur.items()}
        cur = d_sparse(cols, cur.items())
        fact *= j + 1
    raise NonNilpotentD("matrix iterates did not vanish within the dimension cap")


# ---------------------------------------------------------------------------
# two-variable products of arbitrary vectors


def _bilinear(scatter, u: Vec, v: Vec, w: Vec, dim: int) -> dict[tuple[int, int], Vec]:
    """The sum of u_i v_j w_k scatter(k)[(i, j)] over the basis products, densified.

    scatter(k) is {(i, j): terms} for the basis vector e_k; exponents whose
    terms cancel are dropped.
    """
    su, sv = dict(support(u)), dict(support(v))
    terms: Terms = {}
    for k, ck in support(w):
        for (i, j), basis_terms in scatter(k).items():
            if i in su and j in sv:
                for e, vec in basis_terms.items():
                    add_term(terms, e, su[i] * sv[j] * ck, vec.items())
    return dense_terms({e: vec for e, vec in terms.items() if vec}, dim)


def product_terms(
    act: AlgebraStructure | ModuleStructure, u: Vec, v: Vec, w: Vec
) -> dict[tuple[int, int], Vec]:
    """Y(u, x1) Y(v, x2) w as {(x1-exponent, x2-exponent): vector}, read off the pair scatter.

    `act` is the acting table: an algebra acting on itself, or a module.
    Each basis vector of w's support is scattered once
    (pairs.scatter_products), and the basis products are combined with the
    coefficients of u, v and w.
    """
    index, n = act.mode_index, len(u)
    cols = acting_columns(index, n)
    return _bilinear(lambda k: scatter_products(index, cols, k, n), u, v, w, act.dim)


def iterate_terms(
    alg: AlgebraStructure, act: AlgebraStructure | ModuleStructure, u: Vec, v: Vec, w: Vec
) -> dict[tuple[int, int], Vec]:
    """Y_act(Y(u, x0) v, x2) w as {(x0-exponent, x2-exponent): vector}, read off the scatter.

    u_n v is taken in alg and acts on w through act; each basis vector of
    w's support is scattered once (pairs.scatter_iterates).
    """
    sources, cols = iterate_sources(alg.mode_index), acting_columns(act.mode_index, alg.dim)
    return _bilinear(lambda k: scatter_iterates(cols, sources, k), u, v, w, act.dim)


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


# ---------------------------------------------------------------------------
# axiom checks


def validate_structure(alg: AlgebraStructure) -> CheckReport:
    """Truncation, vacuum, and creation axioms on every basis pair."""
    report = CheckReport("structure-axioms")
    dim, vac = alg.dim, alg.vacuum
    # truncation is intrinsic to the finite representation; record the bounds
    lo, hi = alg.mode_bounds()
    report.found_orders["n_min"] = lo
    report.found_orders["n_max"] = hi
    # vacuum: (1)_(-1) v = v and no other mode; creation: v_(-1) 1 = v and no
    # nonnegative mode.  (1, 1) is read once, by the vacuum check, so each
    # wrong mode is one witness.
    keys = [(vac, j, j) for j in range(dim)] + [(i, vac, i) for i in range(dim) if i != vac]
    for a, b, k in keys:
        modes = {n: w for n, w in basis_modes(alg.mode_index, a, b).items() if a == vac or n >= -1}
        for n, got, expect in sparse_differences(modes, {-1: {k: 1}}):
            report.fail(Witness((alg.basis[a], alg.basis[b]), (n,), got, expect, alg.basis))
    return report


def check_d_bracket(alg: AlgebraStructure) -> CheckReport:
    """Both translation identities: [D, Y(v,x)] = Y(Dv,x) = d/dx Y(v,x).

    The commutator D Y(e_i,x)e_j - Y(e_i,x)De_j and the middle Y(De_i,x)e_j
    of every pair are built in one scatter over the index entries and D's
    columns, and the pairs it reaches are compared in sorted order.  On
    every other pair all three sides are zero and both identities hold.
    """
    report = CheckReport("translation-bracket")
    cols = d_columns(alg)
    index = alg.mode_index
    if d_vac := d_sparse(cols, ((alg.vacuum, ONE),)):
        report.fail(Witness((alg.basis[alg.vacuum],), None, d_vac, {}, alg.basis))
    reached: list[list] = [[] for _ in cols]  # reached[k]: every (j, c) with c e_k in D e_j
    for j, col in enumerate(cols):
        for k, c in col:
            reached[k].append((j, c))
    # (i, j): {n: D (e_i)_n e_j - (e_i)_n D e_j}, starting from D of every index entry
    commutators = {ij: {n: d_sparse(cols, v) for n, v in ns.items()} for ij, ns in index.items()}
    middles: dict = {}  # (i, j): {n: (D e_i)_n e_j}
    for (a, b), modes in index.items():
        for j, c in reached[b]:
            commutator = commutators.setdefault((a, j), {})
            for n, img in modes.items():
                add_term(commutator, n, -c, img)
        for i, c in reached[a]:
            middle = middles.setdefault((i, b), {})
            for n, img in modes.items():
                add_term(middle, n, c, img)
    for i, j in sorted(commutators.keys() | middles.keys()):
        middle = middles.get((i, j), {})
        for name, lhs, rhs in (
            ("commutator-vs-middle", commutators.get((i, j), {}), middle),
            ("middle-vs-derivative", middle, mode_derivative(basis_modes(index, i, j))),
        ):
            for n, a, b in sparse_differences(lhs, rhs):
                report.fail(Witness((name, alg.basis[i], alg.basis[j]), (n,), a, b, alg.basis))
    return report


def check_creation_exponential(alg: AlgebraStructure) -> CheckReport:
    """Y(v, x) vacuum = e^{xD} v for every basis vector, compared term by term."""
    report = CheckReport("creation-exponential")
    images = alg.exp_images
    for i in range(alg.dim):
        modes = basis_modes(alg.mode_index, i, alg.vacuum)
        lhs = {(-n - 1,): w for n, w in modes.items()}
        rhs = {(j,): w for j, w in images[i].items()}
        if (diff := next(sparse_differences(lhs, rhs), None)) is not None:
            report.fail(Witness((alg.basis[i],), *diff, alg.basis))
    return report


# ---------------------------------------------------------------------------
# index and length checks


def require_basis(alg: AlgebraStructure, *indices: int) -> None:
    """Refuse an index outside range(alg.dim), which the pair analysis would read as holding."""
    for i in indices:
        if not 0 <= i < alg.dim:
            raise MalformedStructure(f"basis index {i} is not in range({alg.dim})")


def require_length(dim: int, vectors: list[Vec]) -> None:
    """Refuse a vector whose length is not dim."""
    for v in vectors:
        if len(v) != dim:
            raise MalformedStructure(f"a vector of length {len(v)} in a space of dimension {dim}")


# ---------------------------------------------------------------------------
# locality and skew-symmetry


def find_locality_k(
    alg: AlgebraStructure,
    u_idx: int,
    v_idx: int,
    q: Fraction,
) -> Witness | None:
    """q-locality of a pair: None when it holds, else the refuting witness.

    The relation reads (x1-x2)^k Y(u,x1)Y(v,x2) = q (x1-x2)^k Y(v,x2)Y(u,x1)
    for some k >= 0.  Structure data is Laurent-polynomial, so multiplication
    by (x1-x2)^k is injective on the two-variable products: the relation
    holds for some k exactly when it holds at k = 0, the order of every local
    pair, and a nonzero difference is a certified refutation for every k (the
    constant witness of the nonlocal fixtures).  The witness is the first
    differing exponent on the first failing basis w.
    """
    require_basis(alg, u_idx, v_idx)
    return pair_analysis(alg).commutation_witness(u_idx, v_idx, integral(q))


def truncation_order(alg: AlgebraStructure, u_idx: int, v_idx: int) -> int:
    """Least k >= 0 with x^k Y(u,x)v free of negative powers; refuses an index outside range(dim)."""
    if modes := alg.mode_index.get((u_idx, v_idx)):
        return max(0, max(modes) + 1)
    if not (0 <= u_idx < alg.dim and 0 <= v_idx < alg.dim):  # a named pair is in range
        require_basis(alg, u_idx, v_idx)
    return 0


def skew_terms(images: list[Terms], modes: dict[int, SparseVec], q: Fraction) -> Terms:
    """q e^{xD} Y(v,-x)u as {x-exponent: {k: c}}, from the sparse modes of Y(v,x)u.

    e^{xD} is linear, so it is read off its basis images: images[k] is
    e^{xD} e_k as {power of x: {k: c}} (AlgebraStructure.exp_images).
    """
    terms: Terms = {}
    for n, w in modes.items():
        m = -n - 1
        sgn = -q if m % 2 else q
        for k, c in w.items():
            for j, dv in images[k].items():
                add_term(terms, m + j, sgn * c, dv.items())
    return terms


def skew_difference(alg: AlgebraStructure, u_idx: int, v_idx: int, q: Fraction):
    """The first difference (exponent, lhs, rhs) of Y(u,x)v and q e^{xD} Y(v,-x)u, or None.

    Both sides are Laurent polynomials in x and are compared term by term.
    With neither (u, v) nor (v, u) in the mode index both sides are 0, a
    closed form.  For q != 0 the comparison of (u, v, q) agrees exactly when
    that of (v, u, 1/q) does: substituting x -> -x and applying e^{xD},
    which is invertible because D is nilpotent, turns one relation into the
    other (Lepowsky-Li, Introduction to Vertex Operator Algebras, 2004).
    An index outside range(dim) is refused.
    """
    index = alg.mode_index
    if (u_idx, v_idx) not in index and (v_idx, u_idx) not in index:
        if not (0 <= u_idx < alg.dim and 0 <= v_idx < alg.dim):  # a named pair is in range
            require_basis(alg, u_idx, v_idx)
        return None
    lhs = {(-n - 1,): w for n, w in basis_modes(index, u_idx, v_idx).items()}
    modes = basis_modes(index, v_idx, u_idx)
    rhs = {(m,): c for m, c in skew_terms(alg.exp_images, modes, q).items()}
    return next(sparse_differences(lhs, rhs), None)


def check_skew_symmetry(
    alg: AlgebraStructure,
    u_idx: int,
    v_idx: int,
    q: Fraction,
) -> CheckReport:
    """Y(u,x)v = q e^{xD} Y(v,-x)u (skew_difference) plus the truncation condition.

    The report's `exact` flag is whether the two sides agree: the report
    contract marks a failed skew comparison as not exact.  The condition
    asks x^k Y(u,x)v to be free of negative powers at the locality order k,
    which is 0 for a local pair (find_locality_k); so a local pair fails it
    exactly when truncation_order is positive, and a nonlocal pair has no
    order to test it at.
    """
    require_basis(alg, u_idx, v_idx)
    report = CheckReport(f"skew-symmetry[{alg.basis[u_idx]},{alg.basis[v_idx]}]")
    q = integral(q)
    diff = skew_difference(alg, u_idx, v_idx, q)
    report.exact = diff is None
    if diff is not None:
        report.fail(Witness((alg.basis[u_idx], alg.basis[v_idx]), *diff, alg.basis))
    k_min = report.found_orders["truncation_k"] = truncation_order(alg, u_idx, v_idx)
    if pair_analysis(alg).commutes(u_idx, v_idx, q):
        report.found_orders["locality_k"] = 0
        if k_min:
            where = (alg.basis[u_idx], alg.basis[v_idx])
            report.fail(Witness(where, None, "x^0 leaves negative powers", f"needs k >= {k_min}"))
    return report


# ---------------------------------------------------------------------------
# weak associativity


def weak_assoc_triple(alg: AlgebraStructure, u_idx: int, v_idx: int, w_idx: int) -> Witness | None:
    """Three-argument weak associativity: None when it holds (at order 0), else its witness."""
    require_basis(alg, u_idx, v_idx, w_idx)
    return pair_analysis(alg).assoc_witness(u_idx, w_idx, v_idx)


def find_weak_assoc_l(alg: AlgebraStructure, u_idx: int, w_idx: int) -> Witness | None:
    """Uniform weak associativity: None when it holds (at order 0) for every middle v.

    Otherwise the witness of the first failing v.
    """
    require_basis(alg, u_idx, w_idx)
    return pair_analysis(alg).assoc_witness(u_idx, w_idx)


# ---------------------------------------------------------------------------
# the q-Jacobi identity


def check_jacobi(
    alg: AlgebraStructure, u_idx: int, v_idx: int, q: Fraction, limit: int | None = None
) -> CheckReport:
    """The q-Jacobi identity on every basis w, decided exactly as commutation plus associativity.

    The identity reads
        x0^-1 d((x1-x2)/x0) Y(u,x1)Y(v,x2)w - x0^-1 d((x2-x1)/-x0) R(x1,x2)
            = x2^-1 d((x1-x0)/x2) Y(Y(u,x0)v,x2)w,
    where d is the formal delta function and R the reversed product
    (q-scaled here, routed through an R-map in construct.check_jacobi_like).
    Taking Res_x0 leaves the product minus R on the left and a finite sum of
    derivatives of x1^-1 d(x2/x1) on the right; a nonzero sum of that kind
    is never a Laurent polynomial, so both vanish and the product equals R.
    Then the left side is the product times x2^-1 d((x1-x0)/x2), and
    substituting x1 = x0 + x2 under that delta function leaves order-0 weak
    associativity.  So the identity holds on w exactly when commutation and
    weak associativity hold there, and the report records no order.  Each
    failing w has one witness, naming the half that failed; the report
    holds those of the first `limit` failing w, or of every one when limit
    is None (PairAnalysis.jacobi_witnesses).
    """
    if limit is not None and limit < 1:
        raise InvalidArgument(f"the witness limit must be positive or None, not {limit}")
    require_basis(alg, u_idx, v_idx)
    report = CheckReport(f"jacobi[{alg.basis[u_idx]},{alg.basis[v_idx]};q={q}]")
    for witness in pair_analysis(alg).jacobi_witnesses(u_idx, v_idx, integral(q), limit).values():
        report.fail(witness)
    return report


# ---------------------------------------------------------------------------
# subspaces: generated subalgebra, stabilizer, localizer


def spin(
    index: ModeIndex,
    acting: list[Support],
    start: list[SparseVec],
    dim: int,
    span: CoordSpan | None = None,
) -> list:
    """The span of start under every mode of the acting vectors, in spin order.

    MeatAxe spinning (Parker 1984): each accepted vector is multiplied once
    by each acting vector (all modes in one sparse_modes call), and each
    nonzero image outside the span so far is accepted and queued.  Once the
    span has rank dim no image can be accepted, so the spin stops there.
    More accepted vectors than dim would be a dependent set: CapExceeded.
    The accepted vectors go into `span`, a fresh coordinate-free CoordSpan
    unless the caller passes an empty one to keep.
    """
    span = CoordSpan() if span is None else span
    accepted: list[SparseVec] = []
    for v in start:
        if v and span.insert(v) is None:
            accepted.append(v)
    for v in accepted:  # the queue: appended to while it is read
        for su in acting:
            if span.dim == dim:  # full rank: the rest of the queue adds nothing
                return accepted
            for img in sparse_modes(index, su, v.items()).values():
                if span.insert(img) is None:
                    accepted.append(img)
                    if len(accepted) > dim:
                        raise CapExceeded("spin accepted more vectors than the dimension")
    return accepted


def generate_subalgebra(alg: AlgebraStructure, generators: list[Vec]) -> list[Vec]:
    """Basis of the subalgebra generated by the vectors: the vacuum spun under their modes.

    The rows are the accepted vectors in spin order, vacuum first, not an RREF.
    """
    require_length(alg.dim, generators)
    rows = spin(alg.mode_index, [support(g) for g in generators], [{alg.vacuum: 1}], alg.dim)
    return [densify(v, alg.dim) for v in rows]


def stabilizer(alg: AlgebraStructure, subspace: list[Vec]) -> list[Vec]:
    """{v : v_n U inside U for all n}, solved as exact linear conditions.

    For each echelon row u of U, mode n and coordinate r, the residue of
    (e_i)_n u modulo U at r, over i, is one condition on v.
    """
    require_length(alg.dim, subspace)
    span = dense_span(subspace)
    conditions: dict[tuple, SparseVec] = {}
    for p, u in span.echelon():
        for i in range(alg.dim):
            for n, img in sparse_modes(alg.mode_index, ((i, ONE),), u.items()).items():
                for r, c in span.residue(img).items():
                    conditions.setdefault((p, n, r), {})[i] = c
    return span_nullspace(CoordSpan(conditions.values()), alg.dim)


def localizer(alg: AlgebraStructure, targets: list[Vec]) -> list[Vec]:
    """{v : Y(v,x)w = e^{xD} Y(w,-x)v for every w in the target set}.

    The defining skew-symmetry relation is linear in v, so the localizer is
    the exact nullspace of one linear condition per (target, exponent,
    coordinate).
    """
    require_length(alg.dim, targets)
    exp_images = alg.exp_images
    index = alg.mode_index
    conditions: dict[tuple, SparseVec] = {}
    for t, w in enumerate(targets):
        # Y(e_i,x)w - e^{xD}Y(w,-x)e_i for each i, e^{xD} read off its basis images
        sw = support(w)
        for i in range(alg.dim):
            ei = ((i, ONE),)
            diff = {-n - 1: c for n, c in sparse_modes(index, ei, sw).items()}
            for m, c in skew_terms(exp_images, sparse_modes(index, sw, ei), -1).items():
                add_term(diff, m, 1, c.items())
            for m, img in diff.items():
                for r, c in img.items():
                    conditions.setdefault((t, m, r), {})[i] = c
    return span_nullspace(CoordSpan(conditions.values()), alg.dim)
