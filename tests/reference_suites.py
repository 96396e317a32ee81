"""The per-pair loops of the locality, skew and weak-associativity suites, kept as their oracle.

The suites read the pair analysis directly: the locality suite reads each
pair's commutation verdict and builds a witness only for a nonlocal pair,
the skew suite decides each comparison once per unordered pair where the
skew invariant allows it and builds no report, and the weak-associativity
record reads the failing (u, w) or (u, v, w) off the analysis.  The loops
below are the ones they replaced: every ordered pair goes through a full
library call, `find_locality_k`, `check_skew_symmetry`, `check_jacobi`
with its witnesses cut to MAX_WITNESSES, and `find_weak_assoc_l` or
`weak_assoc_triple`.  `reference_runners` gives them in the shape of
`vertexcalc.suite`'s runners, so a test can run a suite both ways and
compare the records.

The pair analysis also builds the witness of each failure it records.
Before it did, the checks turned its records into witnesses by hand; the
last functions below are those assemblies, on the records alone
(`commutation_failures`, `assoc_failure`), kept as the oracle of the
analysis's witness methods.
"""

from vertexcalc.algebra import (
    check_jacobi,
    check_skew_symmetry,
    find_locality_k,
    find_weak_assoc_l,
    weak_assoc_triple,
)
from vertexcalc.linalg import integral
from vertexcalc.pairs import pair_analysis
from vertexcalc.report import FAIL, PASS, Witness
from vertexcalc.suite import (
    CHECK,
    CLASSIFICATION,
    MAX_WITNESSES,
    SuiteRecord,
    _pair_q,
)


def assoc_record(rid, identity, alg, uniform, notes) -> SuiteRecord:
    """One weak-associativity check, one library call per (u, w) pair or per triple."""
    basis = range(alg.dim)
    if uniform:
        answers = [find_weak_assoc_l(alg, u, w) for u in basis for w in basis]
    else:
        answers = [weak_assoc_triple(alg, u, v, w) for u in basis for v in basis for w in basis]
    failed = [w for w in answers if w is not None]
    return SuiteRecord(
        id=rid,
        identity=identity,
        kind=CHECK,
        verdict=FAIL if failed else PASS,
        orders={"max_l": 0},
        witnesses=[w.describe() for w in failed[:MAX_WITNESSES]],
        notes=notes,
    )


def suite_locality(bundle, options, report) -> None:
    """One find_locality_k call per ordered pair."""
    alg = bundle.alg
    pair_q = _pair_q(bundle, options)
    nonlocal_pairs = 0
    for i in range(alg.dim):
        for j in range(alg.dim):
            q = pair_q(i, j)
            witness = find_locality_k(alg, i, j, q)
            if witness is None:
                verdict = "local(k=0)"
            else:
                verdict = "nonlocal"
                nonlocal_pairs += 1
            report.add(
                SuiteRecord(
                    id=f"locality/{alg.basis[i]},{alg.basis[j]}",
                    identity="damped commutation of operator pairs",
                    kind=CLASSIFICATION,
                    verdict=verdict,
                    orders={"q": str(q)},
                    witnesses=[witness.describe()] if witness else [],
                )
            )
    report.add(
        SuiteRecord(
            id="locality/summary",
            identity="damped commutation of operator pairs",
            kind=CLASSIFICATION,
            verdict="nonlocal" if nonlocal_pairs else "local",
            orders={"nonlocal_pairs": nonlocal_pairs},
        )
    )


def suite_skew(bundle, options, report) -> None:
    """One check_skew_symmetry report per ordered pair, both directions of every pair."""
    alg = bundle.alg
    pair_q = _pair_q(bundle, options)
    for i in range(alg.dim):
        for j in range(alg.dim):
            skew = check_skew_symmetry(alg, i, j, pair_q(i, j))
            local = "locality_k" in skew.found_orders
            report.add(
                SuiteRecord(
                    id=f"skew/{alg.basis[i]},{alg.basis[j]}",
                    identity="skew-symmetry with truncation",
                    kind=CLASSIFICATION,
                    verdict="holds" if skew.passed else "fails",
                    exact=skew.exact,
                    orders=dict(skew.found_orders),
                )
            )
            agree = skew.passed == local
            report.add(
                SuiteRecord(
                    id=f"skew/equivalence/{alg.basis[i]},{alg.basis[j]}",
                    identity="locality equivalent to skew-symmetry with truncation",
                    kind=CHECK,
                    verdict=PASS if agree else FAIL,
                    witnesses=[] if agree else [f"skew={skew.passed} locality={local}"],
                )
            )


def suite_jacobi(bundle, options, report) -> None:
    """One check_jacobi report per ordered pair, its witnesses cut to MAX_WITNESSES."""
    alg = bundle.alg
    pair_q = _pair_q(bundle, options)
    for i in range(alg.dim):
        for j in range(alg.dim):
            q = pair_q(i, j)
            rep = check_jacobi(alg, i, j, q, limit=MAX_WITNESSES)
            report.add(
                SuiteRecord(
                    id=f"jacobi/{alg.basis[i]},{alg.basis[j]}",
                    identity="q-Jacobi identity",
                    kind=CLASSIFICATION,
                    verdict="holds" if rep.passed else "fails",
                    exact=False,
                    orders={"q": str(q)},
                    witnesses=[w.describe() for w in rep.witnesses],
                )
            )
            report.add(
                SuiteRecord(
                    id=f"jacobi/round-trip/{alg.basis[i]},{alg.basis[j]}",
                    identity="Jacobi equivalent to locality plus associativity",
                    kind=CHECK,
                    verdict=PASS,
                )
            )


def reference_runners() -> dict:
    """The runners above, keyed as in vertexcalc.suite._RUNNERS."""
    return {"locality": suite_locality, "skew": suite_skew, "jacobi": suite_jacobi}


# -- the witness assemblies the checks made from the analysis's records ----------------


def commutation_witness(alg, act, u, v, q):
    """The first commutation failure of (u, v) on act, as the locality checks built it."""
    first = next(pair_analysis(alg, act).commutation_failures(u, v, integral(q)), None)
    if first is None:
        return None
    w, *diff = first
    return Witness((alg.basis[u], alg.basis[v], act.basis[w]), *diff, act.basis)


def assoc_witness(alg, act, u, v, w):
    """The weak-associativity witness of (u, v, w) on act, as weak_assoc_triple built it."""
    diff = pair_analysis(alg, act).assoc_failure(u, v, w)
    if diff is None:
        return None
    return Witness((alg.basis[u], alg.basis[v], act.basis[w]), *diff, act.basis)


def uniform_assoc_witness(alg, act, u, w):
    """The witness of the least failing middle v, as find_weak_assoc_l and check_module built it."""
    return next(
        (x for v in range(alg.dim) if (x := assoc_witness(alg, act, u, v, w)) is not None), None
    )


def jacobi_witnesses(alg, u, v, q, limit):
    """check_jacobi's witnesses: every failing w, commutation first, then cut to `limit`."""
    pairs = pair_analysis(alg)
    failing = {w: diff for w, *diff in pairs.commutation_failures(u, v, integral(q))}
    assoc = {w: d for w in range(alg.dim) if (d := pairs.assoc_failure(u, v, w)) is not None}
    out = []
    for w in sorted(failing.keys() | assoc.keys())[:limit]:
        half, diff = ("commutation", failing[w]) if w in failing else ("associativity", assoc[w])
        out.append(Witness((half, alg.basis[u], alg.basis[v], alg.basis[w]), *diff, alg.basis))
    return out
