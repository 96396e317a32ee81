"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  Everything
is immutable and exact; there is no floating point anywhere in the package.
There is one elimination, the sparse span CoordSpan: vectors are {key:
nonzero int or Fraction} dicts, and each row is fully reduced with a unit
pivot on its least key.  Row reduction, rank and nullspace are views of it:
its rows in pivot order are the reduced row echelon form, which is unique, so
reduced bases are reproducible across runs.  The structure checks compute on
the same sparse form: `support` reads the nonzero entries of a dense vector
once, `add_scaled` accumulates on them, and `densify` comes back only for a
public return value; a witness keeps its sparse vectors.  A Laurent
polynomial with vector coefficients is a term dictionary {exponent: {k: c}}
(`Terms`), built with `add_term` and compared with `sparse_differences`.

Sparse coefficients are `int` where integral (`integral`, where they enter
the kernel) and `Fraction` otherwise; the two compare and hash alike.  Dense
vectors are `Fraction`.  `format_rational` is the one text form of a
rational, "p" or "p/q", shared by the file format and the report.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
Scalar = int | Fraction
SparseVec = dict[object, Scalar]  # nonzero int or Fraction entries only; absent keys are zero
Support = Sequence[tuple[int, Scalar]]  # the nonzero (index, int or Fraction) pairs of a Vec
Terms = dict  # {exponent: {k: nonzero c}}, a sparse term dictionary

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(e) for e in entries)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    v = [ZERO] * n
    v[i] = ONE
    return tuple(v)


def is_zero_vec(v: Vec) -> bool:
    return all(c is ZERO or not c for c in v)


def support(v: Vec) -> Support:
    """The nonzero coordinates (k, c) of v in increasing k.

    The shared ZERO is skipped by identity, so a unit vector or a densified
    vector costs no Fraction method call per zero coordinate.
    """
    return [(k, c) for k, c in enumerate(v) if c is not ZERO and c]


def integral(x) -> Scalar:
    """x (int, Fraction or anything Fraction accepts) as an int if integral, else a Fraction."""
    if type(x) is not int and type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def format_rational(x) -> str:
    """x as "p" when integral, else "p/q" in lowest terms."""
    x = integral(x)
    return str(x) if type(x) is int else f"{x.numerator}/{x.denominator}"


def densify(coords: SparseVec, n: int) -> Vec:
    """The length-n Fraction vector with the given {index: value} entries and ZERO elsewhere."""
    out = [ZERO] * n
    for k, c in coords.items():
        out[k] = c if type(c) is Fraction else Fraction(c)
    return tuple(out)


def add_scaled(acc: SparseVec, c: Scalar, entries: Iterable[tuple[object, Scalar]]) -> None:
    """acc += c * entries in place, dropping the entries that cancel to zero.

    c and every entry value are nonzero, so a key absent from acc never
    receives a zero.  A c equal to 1 adds the entries without a multiply.
    """
    one = c is ONE or c == 1
    for k, x in entries:
        x = x if one else c * x
        if k not in acc:
            acc[k] = x
        elif y := acc[k] + x:
            acc[k] = y
        else:
            del acc[k]


def scale(c, v: SparseVec) -> SparseVec:
    """c v for a nonzero c; v itself when c is 1."""
    return v if c == 1 else {k: c * x for k, x in v.items()}


# term dictionaries {exponent: {k: c}} (missing or empty reads as zero)


def add_term(terms: Terms, e, c, entries: Support) -> None:
    """terms[e] += c * entries, nothing for c = 0; a new exponent gets a fresh dict.

    So accumulating at e never writes into a vector stored elsewhere.
    """
    if c:
        add_scaled(terms.setdefault(e, {}), c, entries)


def sparse_differences(lhs: Terms, rhs: Terms):
    """(exponent, lhs, rhs), sparse, wherever two term dictionaries differ, in increasing order.

    Equal dictionaries yield nothing, without the walk over their exponents.
    """
    if lhs == rhs:
        return
    for e in sorted(set(lhs) | set(rhs)):
        a, b = lhs.get(e, {}), rhs.get(e, {})
        if a != b:
            yield e, a, b


def binom(n: int, i: int) -> int:
    """Generalized binomial coefficient n over i for integers n and i (0 for i < 0)."""
    if i < 0:
        return 0
    num = 1
    for j in range(i):
        num *= n - j
    den = 1
    for j in range(2, i + 1):
        den *= j
    return num // den


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(c, v: Vec) -> Vec:
    if c == 1:
        return v
    return tuple(c * x for x in v)


def identity_mat(n: int) -> Mat:
    return tuple(unit_vec(n, i) for i in range(n))


def mat_scale(c, m: Mat) -> Mat:
    if c == 1:
        return m
    return tuple(vec_scale(c, r) for r in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    # rows of a against columns of b
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in bt) for row in a
    )


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(sum((x * y for x, y in zip(row, v)), ZERO) for row in m)


def mat_pow(m: Mat, k: int) -> Mat:
    out = identity_mat(len(m))
    for _ in range(k):
        out = mat_mul(out, m)
    return out


class CoordSpan:
    """Sparse row space; made with coords=True, it also expresses members over the inserted reps.

    A vector is a {key: nonzero int or Fraction} dict over sortable, hashable keys;
    absent keys are zero.  Rows stay fully reduced with a unit pivot on their
    least key, so no row holds another row's pivot, reduction is one pass, and
    the rows taken in pivot order are the reduced row echelon form of the
    span.  Only the closure engine reads coordinates over the representative
    vectors in insertion order, to read off structure constants, so only a
    span made with coords=True keeps them, one more sparse row per row.
    Spinning, the rank test and the nullspaces ask only for membership and
    the echelon rows, and their spans keep none.
    """

    def __init__(self, rows: Iterable[SparseVec] = (), coords: bool = False):
        # (pivot key, reduced row, the row's coordinates over the reps in
        # insertion order or None); there is one row per accepted vector
        self._rows: list[tuple[object, SparseVec, SparseVec | None]] = []
        self.coords = coords
        for v in rows:
            self.insert(v)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def reduce(self, v: SparseVec) -> tuple[SparseVec, SparseVec]:
        """(v minus its span component, that component's sparse coordinates over the reps).

        The coordinates are empty when the span keeps none.
        """
        w = {k: x for k, x in v.items() if x}
        combo: SparseVec = {}
        for p, row, cmb in self._rows:
            if f := w.get(p):
                add_scaled(w, -f, row.items())
                if cmb:
                    add_scaled(combo, f, cmb.items())
        return w, combo

    def residue(self, v: SparseVec) -> SparseVec:
        """v minus its span component: empty exactly when v is a member."""
        return self.reduce(v)[0]

    def solve(self, v: SparseVec) -> Vec | None:
        """Coordinates of v over the reps, or None if v is outside the span; needs coords=True."""
        if not self.coords:
            raise ValueError("this span keeps no coordinates over its reps")
        w, combo = self.reduce(v)
        return None if w else densify(combo, self.dim)

    def insert(self, v: SparseVec) -> SparseVec | None:
        """Add v as a new rep if independent: None then, else v's sparse coordinates (reduce)."""
        w, combo = self.reduce(v)
        if not w:
            return combo
        pivot = min(w)
        inv = integral(ONE / w[pivot])
        row = {k: inv * x for k, x in w.items()}
        cmb = None
        if self.coords:
            # w = v - sum of combo[k] * rep k, and v becomes the last rep
            cmb = {k: -inv * c for k, c in combo.items()}
            cmb[self.dim] = inv
        for _p, r, rc in self._rows:
            if f := r.get(pivot):
                add_scaled(r, -f, row.items())
                if rc:
                    add_scaled(rc, -f, cmb.items())
        self._rows.append((pivot, row, cmb))
        return None

    def echelon(self) -> list[tuple[object, SparseVec]]:
        """(pivot, row) in pivot order, each row's keys sorted: the span's RREF."""
        rows = sorted(self._rows, key=lambda t: t[0])
        return [(p, {k: row[k] for k in sorted(row)}) for p, row, _cmb in rows]


def dense_span(rows: Iterable[Vec]) -> CoordSpan:
    """The CoordSpan of dense rows, keyed by column index."""
    return CoordSpan(dict(support(r)) for r in rows)


def row_reduce(rows: Sequence[Vec]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form with unit pivots; returns (rows, pivot columns).

    The span's echelon rows, densified.  Zero and dependent rows are
    dropped, and the RREF of a row space is unique, so the result does not
    depend on the order of the rows.
    """
    echelon = dense_span(rows).echelon()
    ncols = len(rows[0]) if echelon else 0
    return [densify(row, ncols) for _p, row in echelon], [p for p, _row in echelon]


def rank(rows: Sequence[Vec]) -> int:
    return dense_span(rows).dim


def span_nullspace(span: CoordSpan, ncols: int) -> list[Vec]:
    """RREF basis of {v : r . v = 0 for every row r of the span}, column keys below ncols.

    Each free column fc gives the vector with 1 at fc and minus the fc entry
    of each echelon row at that row's pivot.
    """
    echelon = span.echelon()
    pivots = {p for p, _row in echelon}
    kernel = CoordSpan(
        {fc: ONE, **{p: -row[fc] for p, row in echelon if fc in row}}
        for fc in range(ncols)
        if fc not in pivots
    )
    return [densify(row, ncols) for _p, row in kernel.echelon()]


def nullspace(rows: Sequence[Vec], ncols: int) -> list[Vec]:
    """Basis of {v : M v = 0} for the matrix with the given rows, in RREF."""
    return span_nullspace(dense_span(rows), ncols)
