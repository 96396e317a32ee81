"""Dense spans: the test-side oracle for every span the package computes.

The package has one elimination, the sparse `linalg.CoordSpan`.  This module
keeps the dense formulas it replaced, sharing no code with it:

- `dense_row_reduce`, a column-by-column Gauss-Jordan loop on dense rows,
  and `dense_rank` and `dense_nullspace` read off it;
- `SpanBasis`, a dense row-reduced span that row-reduces again on each
  accepted vector;
- the saturation loops for generated submodules and subalgebras: every
  round applies every mode to every row of a dense span;
- `dense_stabilizer`, `dense_localizer` and `dense_subspace_is_subalgebra`,
  which collect dense condition rows, with modes applied through the dense
  views apply_mode and mode_map and e^{xD} by dense matrix iteration.

`reference_spin` is the exception: the package's sparse spin loop as it was
before it stopped at full rank, on the package's own CoordSpan and
sparse_modes, so that the two can be compared row for row and call for call.
"""

from fractions import Fraction
from functools import partial

from reference_tables import apply_mode, product, table_of

import vertexcalc.algebra as algebra_module
from vertexcalc.errors import CapExceeded
from vertexcalc.linalg import ZERO, CoordSpan, is_zero_vec, mat_vec, support, zero_vec
from vertexcalc.report import CheckReport, Witness


def dense_row_reduce(rows):
    """Reduced row echelon form with unit pivots; returns (rows, pivot columns).

    Zero rows are dropped.  Pivoting always takes the first nonzero column,
    scanning rows in the order given, so the result is deterministic.
    """
    work = [list(r) for r in rows if not is_zero_vec(r)]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    reduced = []
    for col in range(ncols):
        pivot_row = None
        for r in work:
            if r[col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work.remove(pivot_row)
        inv = 1 / pivot_row[col]
        pivot_row = [inv * x for x in pivot_row]
        for r in work:
            f = r[col]
            if f != 0:
                for j in range(col, ncols):
                    r[j] -= f * pivot_row[j]
        work = [r for r in work if any(x != 0 for x in r)]
        for r in reduced:
            f = r[col]
            if f != 0:
                for j in range(col, ncols):
                    r[j] -= f * pivot_row[j]
        reduced.append(pivot_row)
        pivots.append(col)
        if not work:
            break
    return [tuple(r) for r in reduced], pivots


def dense_rank(rows):
    return len(dense_row_reduce(rows)[0])


def dense_nullspace(rows, ncols):
    """Basis of {v : M v = 0} for the matrix with the given rows, row-reduced."""
    reduced, pivots = dense_row_reduce(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[fc]
        basis.append(tuple(v))
    reduced_basis, _ = dense_row_reduce(basis)
    return reduced_basis


class SpanBasis:
    """A dense row-reduced basis of a subspace, supporting exact membership tests."""

    def __init__(self, rows=()):  # rows need not be independent
        self.rows, self.pivots = dense_row_reduce(rows)

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v):
        """Residue of v modulo the span (zero iff v is a member)."""
        w = list(v)
        for row, p in zip(self.rows, self.pivots):
            f = w[p]
            if f != 0:
                for j in range(p, len(w)):
                    w[j] -= f * row[j]
        return tuple(w)

    def contains(self, v):
        return is_zero_vec(self.reduce(v))

    def add(self, v):
        """Insert v if independent; returns True when the span grew."""
        if self.contains(v):
            return False
        self.rows, self.pivots = dense_row_reduce(list(self.rows) + [v])
        return True


def _saturate(span, dim, acting, apply_mode):
    """Close span under every (vector, mode) in acting; at most dim + 1 rounds."""
    changed = True
    rounds = 0
    while changed:
        changed = False
        rounds += 1
        if rounds > dim + 1:
            raise CapExceeded("dense span failed to stabilize within the dimension")
        for g, modes in acting:
            for b in list(span.rows):
                for n in modes:
                    w = apply_mode(g, n, b)
                    if not is_zero_vec(w) and span.add(w):
                        changed = True
    return list(span.rows)


def reference_spin(index, acting, start, dim, span=None):
    """algebra.spin with no full-rank stop: every accepted vector times every acting vector.

    sparse_modes is read off the algebra module on each call, so a counter
    patched in there counts these calls too.
    """
    span = CoordSpan() if span is None else span
    accepted = []
    for v in start:
        if v and span.insert(v) is None:
            accepted.append(v)
    for v in accepted:
        for su in acting:
            for img in algebra_module.sparse_modes(index, su, v.items()).values():
                if span.insert(img) is None:
                    accepted.append(img)
                    if len(accepted) > dim:
                        raise CapExceeded("spin accepted more vectors than the dimension")
    return accepted


def dense_generate_submodule(alg, mod, start):
    """Row-reduced basis of the submodule generated by start."""
    modes = sorted({n for mm in table_of(mod).values() for n in mm})
    acting = [(alg.unit(i), modes) for i in range(alg.dim)]
    return _saturate(SpanBasis([start]), mod.dim, acting, partial(apply_mode, mod))


def dense_generate_subalgebra(alg, generators):
    """Row-reduced basis of the subalgebra generated by the given vectors."""
    acting = []
    for g in generators:
        modes = set()
        for i, c in enumerate(g):
            if c != 0:
                for (a, _b), mm in table_of(alg).items():
                    if a == i:
                        modes.update(mm)
        acting.append((g, sorted(modes)))
    return _saturate(SpanBasis([alg.unit(alg.vacuum)]), alg.dim, acting, partial(apply_mode, alg))


def _all_modes(alg):
    return sorted({n for mm in table_of(alg).values() for n in mm})


def dense_stabilizer(alg, subspace):
    """{v : v_n U inside U for all n}: residues of (e_i)_n u modulo U, one row per coordinate."""
    span = SpanBasis(subspace)
    rows = []
    for u in span.rows:
        for n in _all_modes(alg):
            images = [span.reduce(apply_mode(alg, alg.unit(i), n, u)) for i in range(alg.dim)]
            for r in range(alg.dim):
                row = tuple(images[i][r] for i in range(alg.dim))
                if not is_zero_vec(row):
                    rows.append(row)
    return dense_nullspace(rows, alg.dim)


def _dense_exp(alg, v):
    """{j: D^j v / j!} with D the dense matrix of v -> v_(-2) vacuum."""
    cols = [product(alg, j, -2, alg.vacuum) for j in range(alg.dim)]
    d = tuple(tuple(col[r] for col in cols) for r in range(alg.dim))
    out, cur, fact = {}, v, Fraction(1)
    while not is_zero_vec(cur):
        out[len(out)] = tuple(x / fact for x in cur)
        cur = mat_vec(d, cur)
        fact *= len(out)
    return out


def dense_localizer(alg, targets):
    """{v : Y(v,x)w = e^{xD} Y(w,-x)v for every target w}: one row per (w, exponent, coordinate)."""
    rows = []
    for w in targets:
        diffs = []
        for i in range(alg.dim):
            diff = {}
            for n, c in alg.mode_map(alg.unit(i), w).items():
                diff[-n - 1] = c
            for n, c in alg.mode_map(w, alg.unit(i)).items():
                m = -n - 1
                for j, dv in _dense_exp(alg, c).items():
                    old = diff.get(m + j, zero_vec(alg.dim))
                    diff[m + j] = tuple(a - (-1) ** (m % 2) * b for a, b in zip(old, dv))
            diffs.append(diff)
        for m in sorted(set().union(*diffs)):
            images = [diff.get(m, zero_vec(alg.dim)) for diff in diffs]
            for r in range(alg.dim):
                row = tuple(img[r] for img in images)
                if not is_zero_vec(row):
                    rows.append(row)
    return dense_nullspace(rows, alg.dim)


def dense_subspace_is_subalgebra(alg, rows):
    """The vacuum and every mode product of two reduced rows must lie in the span."""
    report = CheckReport("subalgebra-closure")
    span = SpanBasis(rows)
    if not span.contains(alg.unit(alg.vacuum)):
        report.fail(Witness(("vacuum",), None, "missing", "vacuum in span"))
    for a in span.rows:
        for b in span.rows:
            for n, w in alg.mode_map(a, b).items():
                if not span.contains(w):
                    where, lhs = ("closure",), dict(support(w))
                    report.fail(Witness(where, (n,), lhs, "inside span", alg.basis))
    return report
