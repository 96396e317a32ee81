"""Dense saturation loops: the test-side oracle for generated spans.

These are the generators' former formulas.  Every round applies every mode
to every row of a dense row-reduced span, and the span is row-reduced again
on each accepted vector.  They share no code with algebra.spin: a mode is
applied through the public apply_mode, and the span is a dense SpanBasis.
"""

from vertexcalc.errors import CapExceeded
from vertexcalc.linalg import SpanBasis, is_zero_vec


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


def dense_generate_submodule(alg, mod, start):
    """Row-reduced basis of the submodule generated by start."""
    modes = sorted({n for mm in mod.action.values() for n in mm})
    acting = [(alg.unit(i), modes) for i in range(alg.dim)]
    return _saturate(SpanBasis([start]), mod.dim, acting, mod.apply_mode)


def dense_generate_subalgebra(alg, generators):
    """Row-reduced basis of the subalgebra generated by the given vectors."""
    acting = []
    for g in generators:
        modes = set()
        for i, c in enumerate(g):
            if c != 0:
                for (a, _b), mm in alg.y_data.items():
                    if a == i:
                        modes.update(mm)
        acting.append((g, sorted(modes)))
    return _saturate(SpanBasis([alg.vacuum_vec()]), alg.dim, acting, alg.apply_mode)
