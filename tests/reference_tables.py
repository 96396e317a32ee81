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
  two term dictionaries as dense vectors, which the checks read sparse;
- `dense_witness`, the Witness of a dense first difference, its two sides
  read back through `support`, as the checks build it from sparse ones.
"""

from vertexcalc.algebra import d_sparse, dense_terms, sparse_differences, sparse_modes
from vertexcalc.linalg import ONE, dense_span, densify, integral, support, unit_vec
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
    """(exponent, lhs, rhs) wherever two term dictionaries differ, in increasing order, dense."""
    return [(e, densify(a, dim), densify(b, dim)) for e, a, b in sparse_differences(lhs, rhs)]


def dense_witness(where, diff, basis):
    """The Witness of a dense difference (exponent, lhs, rhs), its sides read through support."""
    e, a, b = diff
    return Witness(where, e, dict(support(a)), dict(support(b)), basis)
