"""Dense views of the mode table: the test-side oracle of the sparse image index.

A structure stores its mode products as one sparse image index,
{(i, j): {n: [(k, c), ...]}} in the normal form of
vertexcalc.algebra.normal_index.  The tests state their expectations on
dense tables {(i, j): {n: vector}}, the form the structures used to store;
`dense_table` and `index_from_dense` convert between the two, and
`table_of` is the dense table of a structure.  The views below had no
caller in the package and are kept here, with their old values, for the
tests that compare against them:

- `apply_mode` and `product`, the single mode u_n w and (e_i)_n e_j;
- `mode_map` and `mode_matrix` on a module (an AlgebraStructure keeps its
  own);
- `subspace_is_subalgebra`, the closure check of a subspace;
- `mat_add`, the sum of two dense matrices;
- `apply_columns` and `term_differences`, D v and the differing terms of
  two term dictionaries as dense vectors, which the checks read sparse
  (`term_differences` walks every exponent, with no shortcut for equal
  dictionaries, as `algebra.sparse_differences` once did);
- `dense_witness`, the Witness of a dense first difference, its two sides
  read back through `support`, as the checks build it from sparse ones;
- `sparse_columns` and `dense_matrix`, a square dense matrix as the sparse
  columns a derivation or a group element is given by, and back;
- `reference_normal_index`, the normal form of a mode index as the
  library took it in four passes over each image (sort on (k, c) with every
  c through `integral`, the coordinate list, its set, the zero drop) before
  `algebra.normal_index` sorted on k alone and walked each image once;
- `reference_d_bracket` and `reference_skew_symmetry`, the translation
  bracket and skew-symmetry checks as they compared both sides on every
  basis pair, before the pairs the mode index names no entry for were
  decided in closed form; the skew copy reads locality off the analysis's
  walk of every profile (`commutation_failures`), not off its memoized
  verdict.
"""

from vertexcalc.algebra import (
    add_term,
    basis_modes,
    d_columns,
    d_sparse,
    dense_terms,
    mode_derivative,
    skew_terms,
    sparse_differences,
    sparse_modes,
    truncation_order,
)
from vertexcalc.errors import MalformedStructure
from vertexcalc.linalg import ONE, dense_span, densify, integral, support, unit_vec
from vertexcalc.pairs import pair_analysis
from vertexcalc.report import CheckReport, Witness


def dense_table(index, dim):
    """The index as {(i, j): {n: length-dim Fraction vector}}, in its own order."""
    return {
        key: {n: densify(dict(img), dim) for n, img in modes.items()}
        for key, modes in index.items()
    }


def table_of(act):
    """The dense table of an algebra or a module."""
    return dense_table(act.mode_index, act.dim)


def index_from_dense(table, dim):
    """The normalised index of a dense table.

    Each vector must have length dim; its nonzero coordinates come as (k, c)
    with k ascending and c an int when integral, and zero modes and empty
    entries are dropped.
    """
    out = {}
    for key, modes in table.items():
        entry = {}
        for n, v in modes.items():
            assert len(v) == dim, (key, n, len(v), dim)
            if img := [(k, c) for k, c in ((k, integral(x)) for k, x in enumerate(v)) if c]:
                entry[n] = img
        if entry:
            out[key] = entry
    return out


def reference_normal_index(index, dim, n_acting):
    """The mode index in its one stored form, after range checks, four passes per image."""
    out = {}
    for (i, j), modes in index.items():
        if not (0 <= j < dim and (n_acting is None or 0 <= i < n_acting)):
            raise MalformedStructure(f"mode table indices ({i},{j}) out of range")
        entry = {}
        for n, img in modes.items():
            img = sorted((k, integral(c)) for k, c in img)
            ks = [k for k, _c in img]
            if ks and (ks[0] < 0 or ks[-1] >= dim or len(set(ks)) < len(ks)):
                raise MalformedStructure(
                    f"image coordinates {ks} at ({i},{j},{n}) are not distinct in range({dim})"
                )
            if img := [(k, c) for k, c in img if c]:
                entry[int(n)] = img
        if entry:
            out[(i, j)] = entry
    return out


def apply_mode(act, u, n, w):
    """The single mode u_n w of an algebra or a module, dense."""
    return densify(sparse_modes(act.mode_index, support(u), support(w)).get(n, {}), len(w))


def product(alg, i, n, j):
    """The stored mode (e_i)_n e_j, dense; zero when it is not stored."""
    return densify(dict(alg.mode_index.get((i, j), {}).get(n, ())), alg.dim)


def mode_map(act, u, w):
    """All modes of Y(u, x)w as a finite {n: vector} dictionary."""
    return dense_terms(sparse_modes(act.mode_index, support(u), support(w)), len(w))


def mode_matrix(act, u, n):
    """Matrix of w -> u_n w in the target basis."""
    cols = [apply_mode(act, u, n, unit_vec(act.dim, j)) for j in range(act.dim)]
    return tuple(tuple(col[r] for col in cols) for r in range(act.dim))


def subspace_is_subalgebra(alg, rows):
    """Verify a subspace contains the vacuum and is closed under all modes."""
    report = CheckReport("subalgebra-closure")
    span = dense_span(rows)
    if span.residue({alg.vacuum: ONE}):
        report.fail(Witness(("vacuum",), None, "missing", "vacuum in span"))
    echelon = [row.items() for _p, row in span.echelon()]
    for a in echelon:
        for b in echelon:
            for n, w in sparse_modes(alg.mode_index, a, b).items():
                if span.residue(w):
                    report.fail(Witness(("closure",), (n,), w, "inside span", alg.basis))
    return report


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def apply_columns(cols, v):
    """D v for D given by its sparse columns, as a dense vector."""
    return densify(d_sparse(cols, support(v)), len(v))


def term_differences(lhs, rhs, dim):
    """(exponent, lhs, rhs) wherever two term dictionaries differ, in increasing order, dense.

    Every exponent of either side is compared, equal dictionaries included.
    """
    out = []
    for e in sorted(set(lhs) | set(rhs)):
        a, b = lhs.get(e, {}), rhs.get(e, {})
        if a != b:
            out.append((e, densify(a, dim), densify(b, dim)))
    return out


def dense_witness(where, diff, basis):
    """The Witness of a dense difference (exponent, lhs, rhs), its sides read through support."""
    e, a, b = diff
    return Witness(where, e, dict(support(a)), dict(support(b)), basis)


def sparse_columns(m):
    """The nonzero (r, c) of each column m e_j of a square dense matrix, c int if integral."""
    return [[(r, integral(row[j])) for r, row in enumerate(m) if row[j]] for j in range(len(m))]


def dense_matrix(cols):
    """The dense Fraction matrix, as rows, whose sparse columns are cols."""
    rows = [{} for _ in cols]
    for j, col in enumerate(cols):
        for r, c in col:
            rows[r][j] = c
    return tuple(densify(row, len(cols)) for row in rows)


def reference_d_bracket(alg):
    """Both translation identities, compared on every basis pair (i, j)."""
    report = CheckReport("translation-bracket")
    cols = d_columns(alg)
    index = alg.mode_index
    if d_vac := d_sparse(cols, ((alg.vacuum, ONE),)):
        report.fail(Witness((alg.basis[alg.vacuum],), None, d_vac, {}, alg.basis))
    for i in range(alg.dim):
        for j in range(alg.dim):
            base = basis_modes(index, i, j)
            commutator = {n: d_sparse(cols, w.items()) for n, w in base.items()}
            for n, w in sparse_modes(index, ((i, ONE),), cols[j]).items():
                add_term(commutator, n, -1, w.items())
            middle = sparse_modes(index, cols[i], ((j, ONE),))
            for name, lhs, rhs in (
                ("commutator-vs-middle", commutator, middle),
                ("middle-vs-derivative", middle, mode_derivative(base)),
            ):
                for n, a, b in sparse_differences(lhs, rhs):
                    report.fail(Witness((name, alg.basis[i], alg.basis[j]), (n,), a, b, alg.basis))
    return report


def reference_skew_symmetry(alg, u_idx, v_idx, q):
    """Skew-symmetry with truncation, both sides built whatever the index holds for the pair."""
    report = CheckReport(f"skew-symmetry[{alg.basis[u_idx]},{alg.basis[v_idx]}]")
    q = integral(q)
    pairs = pair_analysis(alg)
    lhs = {(-n - 1,): w for n, w in basis_modes(alg.mode_index, u_idx, v_idx).items()}
    modes = basis_modes(alg.mode_index, v_idx, u_idx)
    rhs = {(m,): c for m, c in skew_terms(pairs.exp_images, modes, q).items()}
    diff = next(sparse_differences(lhs, rhs), None)
    report.exact = diff is None
    if diff is not None:
        report.fail(Witness((alg.basis[u_idx], alg.basis[v_idx]), *diff, alg.basis))
    k_min = truncation_order(alg, u_idx, v_idx)
    report.found_orders["truncation_k"] = k_min
    if next(pairs.commutation_failures(u_idx, v_idx, q), None) is None:
        report.found_orders["locality_k"] = 0
        if k_min > 0:
            report.fail(
                Witness(
                    (alg.basis[u_idx], alg.basis[v_idx]),
                    None,
                    "x^0 leaves negative powers",
                    f"needs k >= {k_min}",
                )
            )
    return report
